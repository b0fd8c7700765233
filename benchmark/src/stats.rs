//! Order statistics over timing samples.

use crate::json::Json;

/// Median, quartiles, extremes and count of one metric's samples.
///
/// With the 7 to a few dozen samples a run collects, no percentile above the
/// third quartile has ten samples beyond it, so none is reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The 10th percentile: the typical undisturbed value. Machine noise only
    /// ever adds to a time or a peak, and on a shared box it comes in phases
    /// that shift a run's median by 10–50 %; the fast decile moves half as much.
    pub p10: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            p10: quantile(&sorted, 0.1),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            samples: samples.to_vec(),
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("p10", Json::Num(self.p10)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.samples.len() as f64)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }
}

/// Median of `samples` (0 when empty, which no caller passes).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Quantile `p` of an ascending slice, interpolating linearly between the two
/// nearest ranks (the "inclusive" method: `p = 0` is the minimum, `p = 1` the
/// maximum).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_odd_and_even_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.p10, 1.4);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(
            s.samples,
            vec![4.0, 1.0, 3.0, 2.0],
            "samples keep run order"
        );
    }

    #[test]
    fn one_sample_is_its_own_summary_and_none_is_none() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!(
            (s.min, s.p10, s.q1, s.median, s.q3, s.max),
            (7.5, 7.5, 7.5, 7.5, 7.5, 7.5)
        );
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }
}
