//! ASCII Gantt rendering of a finished [`crate::engine::Schedule`] — the
//! debugging view used when tuning the variant schedules (which task
//! blocked which resource, where the pipeline bubbles are) — plus its
//! Chrome trace_events export.

use apsp_trace::{Span, Timeline, Trace};

use crate::engine::Schedule;
use crate::task::{TaskGraph, TaskId};

/// Render up to `max_resources` resource timelines as `width`-column ASCII
/// bars. Each `#` is busy time, `.` idle; the header shows the makespan.
pub fn gantt(graph: &TaskGraph, sched: &Schedule, width: usize, max_resources: usize) -> String {
    let width = width.max(10);
    let mut out = String::new();
    let span = sched.makespan.max(1e-12);
    out.push_str(&format!("makespan: {:.6e} s\n", sched.makespan));

    let nres = graph.num_resources() as usize;
    for r in 0..nres.min(max_resources) {
        let mut cols = vec!['.'; width];
        for (i, t) in graph.tasks().enumerate() {
            if t == r {
                let (s, f) = (sched.start[i], sched.finish[i]);
                let lo = ((s / span) * width as f64).floor() as usize;
                let hi = (((f / span) * width as f64).ceil() as usize).min(width);
                for c in cols.iter_mut().take(hi).skip(lo.min(width)) {
                    *c = '#';
                }
            }
        }
        let busy = sched.busy[r];
        out.push_str(&format!(
            "r{r:<3} |{}| {:5.1}%\n",
            cols.iter().collect::<String>(),
            100.0 * busy / span
        ));
    }
    if nres > max_resources {
        out.push_str(&format!("… {} more resources\n", nres - max_resources));
    }
    out
}

impl TaskGraph {
    /// Resource index of each task, in task order (for trace rendering).
    pub fn tasks(&self) -> impl Iterator<Item = usize> + '_ {
        self.tasks.iter().map(|t| t.resource.0 as usize)
    }

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
    fn gantt_shows_busy_and_idle() {
        let mut g = TaskGraph::new();
        let r1 = g.resource();
        let r2 = g.resource();
        let a = g.task(r1, 1.0, 0, &[]);
        g.task(r2, 1.0, 0, &[a]); // r2 idles the first half
        let s = run(&g);
        let txt = gantt(&g, &s, 20, 8);
        assert!(txt.contains("makespan"));
        assert!(txt.contains("r0"));
        assert!(txt.contains("r1"));
        // r1 is ~50% busy, r0 ~50% too (each one of two seconds)
        assert!(txt.matches('#').count() >= 20);
        assert!(txt.contains('.'));
    }

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

    #[test]
    fn gantt_truncates_resource_list() {
        let mut g = TaskGraph::new();
        for _ in 0..5 {
            let r = g.resource();
            g.task(r, 1.0, 0, &[]);
        }
        let s = run(&g);
        let txt = gantt(&g, &s, 10, 2);
        assert!(txt.contains("3 more resources"));
    }
}
