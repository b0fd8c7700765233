//! Span recorder for the traced pass.
//!
//! The benchmark measures the program from outside, so spans wrap the
//! benchmark's own calls into each layer. They are kept in memory and written
//! as a Chrome `trace_events` file when the workload ends.

use std::time::Instant;

use crate::json::Json;

/// One timed call: what ran, when, and which span caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans of one workload on one thread.
pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// While disabled, [`Recorder::span`] still times its closure but keeps
    /// nothing; alternating the two states is how tracing overhead is measured.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name`; returns its result and wall seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: 0.0,
            end_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let t0 = Instant::now();
        let r = f(self);
        let secs = t0.elapsed().as_secs_f64();
        self.open.pop();
        let start_us = t0.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans[idx].start_us = start_us;
        self.spans[idx].end_us = start_us + secs * 1e6;
        (r, secs)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_events` JSON: one complete (`"ph":"X"`) event per span,
    /// carrying its workload, parent and self time.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us())),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::str(&self.workload)),
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Num(-1.0), |p| Json::Num(p as f64)),
                            ),
                            ("self_us", Json::Num(self_us(&self.spans, i))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// A span's self time: its duration minus the part its child spans cover.
/// Spans of one recorder run on one thread, so children never overlap.
pub fn self_us(spans: &[Span], idx: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::dur_us)
        .sum();
    spans[idx].dur_us() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_of_a_tree_add_up_to_the_root() {
        let mut rec = Recorder::new("w");
        rec.span("root", |rec| {
            spin(200);
            rec.span("a", |rec| {
                spin(100);
                rec.span("a1", |_| spin(100));
            });
            rec.span("b", |_| spin(100));
        });
        let spans = rec.spans();
        assert_eq!(
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["root", "a", "a1", "b"]
        );
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        let total: f64 = (0..spans.len()).map(|i| self_us(spans, i)).sum();
        assert!(
            (total - spans[0].dur_us()).abs() < 1e-6,
            "{total} vs {}",
            spans[0].dur_us()
        );
        assert!(self_us(spans, 0) >= 200.0 && self_us(spans, 1) >= 100.0);
        for s in &spans[1..] {
            let p = &spans[s.parent.unwrap()];
            assert!(
                p.start_us <= s.start_us && s.end_us <= p.end_us,
                "child inside parent"
            );
        }
    }

    #[test]
    fn a_disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new("w");
        rec.set_enabled(false);
        let (v, secs) = rec.span("x", |_| {
            spin(100);
            42
        });
        assert_eq!(v, 42);
        assert!(secs >= 100e-6);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_json_names_workload_parent_and_self_time() {
        let mut rec = Recorder::new("dense-blocked");
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
        });
        let json = rec.to_chrome_json().render();
        assert!(
            json.starts_with(r#"{"traceEvents":[{"name":"outer","ph":"X""#),
            "{json}"
        );
        assert!(
            json.contains(r#""workload":"dense-blocked","id":1,"parent":0,"self_us":"#),
            "{json}"
        );
        assert!(json.contains(r#""id":0,"parent":-1"#), "{json}");
    }
}
