//! Chrome trace_events export of a finished [`crate::engine::Schedule`] —
//! the schedule view used when tuning the variant schedules (which task
//! blocked which resource, where the pipeline bubbles are).

use apsp_trace::{Span, Timeline, Trace};

use crate::engine::Schedule;
use crate::task::{TaskGraph, TaskId};

impl TaskGraph {
    /// Number of registered resources.
    pub fn num_resources(&self) -> u32 {
        self.num_resources
    }
}

/// Export a finished schedule as Chrome trace_events JSON through the
/// workspace's one writer ([`apsp_trace::Trace::to_chrome_json`]), so
/// simulated schedules and recorded runs open side by side in
/// `chrome://tracing` / Perfetto.
///
/// Each resource becomes one timeline (`tid` = [`crate::task::ResourceId::index`],
/// named from `names` when provided, `r{i}` otherwise); each task becomes a
/// span named by its phase label. Schedule times are seconds.
pub fn chrome_trace(graph: &TaskGraph, sched: &Schedule, names: &[String]) -> String {
    let ns = |s: f64| (s * 1e9).round() as u64;
    let mut timelines: Vec<Timeline> = (0..graph.num_resources() as usize)
        .map(|r| Timeline {
            name: names.get(r).filter(|n| !n.is_empty()).cloned().unwrap_or_else(|| format!("r{r}")),
            ..Timeline::default()
        })
        .collect();
    for (i, t) in graph.tasks.iter().enumerate() {
        timelines[t.resource.index()].spans.push(Span {
            name: graph.label_of(TaskId(i as u32)),
            start_ns: ns(sched.start[i]),
            end_ns: ns(sched.finish[i]),
        });
    }
    Trace { timelines }.to_chrome_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;

    #[test]
    fn chrome_trace_labels_tasks_and_resources() {
        let mut g = TaskGraph::new();
        let r1 = g.resource();
        let r2 = g.resource();
        g.set_phase("DiagUpdate");
        let a = g.task(r1, 1.0, 0, &[]);
        g.set_phase("PanelBcast");
        g.task(r2, 0.5, 0, &[a]);
        let s = run(&g);
        let json = chrome_trace(&g, &s, &["gpu0".into()]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"DiagUpdate\""));
        assert!(json.contains("\"PanelBcast\""));
        assert!(json.contains("\"gpu0\"")); // named resource
        assert!(json.contains("\"r1\"")); // fallback name
        // second task starts after the first: ts = 1.0 s = 1e6 µs
        assert!(json.contains("\"ts\":1000000.000"));
    }
}
