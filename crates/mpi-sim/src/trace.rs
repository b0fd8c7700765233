//! How a run shows up in the workspace's span recorder ([`apsp_trace`]).
//!
//! A run records only when the thread that starts it has a recorder
//! installed. Each rank thread is then handed a track of its own on that
//! recorder, named `rank {r}` and made in rank order, so the trace of a run
//! lists the caller's track first and one track per rank after it. The
//! spans a rank opens land on its track, and each send becomes an instant
//! event carrying bytes, NIC crossing and the open phase
//! ([`apsp_trace::current_phase`]); [`apsp_trace::Trace::phase_traffic`]
//! sums those events per phase, with sends outside any span under
//! [`apsp_trace::UNTRACED`], so its NIC bytes add up to the run's
//! [`crate::TrafficReport::total_nic_bytes`]. With nothing installed the
//! ranks record nothing, and the [`crate::TrafficReport`] still counts
//! every sent byte per node.

use apsp_trace::Track;

/// One track per rank on the recorder installed on the calling thread, in
/// rank order; all `None` when nothing is installed.
pub(crate) fn rank_tracks(p: usize) -> Vec<Option<Track>> {
    let rec = apsp_trace::current();
    (0..p).map(|r| rec.as_ref().map(|rec| rec.track(format!("rank {r}")))).collect()
}

#[cfg(test)]
mod tests {
    use apsp_trace::{current_phase, record, span, Trace};

    use crate::Runtime;

    /// Two ranks under a recorder: rank 0 sends 64 bytes to rank 1 inside
    /// `DiagBcast`, and both open `OuterUpdate` for a while.
    fn two_rank_trace() -> Trace {
        let ((), trace) = record("caller", || {
            Runtime::new(2).run(|comm| {
                {
                    let _p = span("DiagBcast");
                    if comm.rank() == 0 {
                        comm.send(1, 0, vec![0u8; 64]).unwrap();
                    } else {
                        let _: Vec<u8> = comm.recv(0, 0).unwrap();
                    }
                }
                let _p = span("OuterUpdate");
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        trace
    }

    #[test]
    fn chrome_json_has_span_and_msg_events() {
        let trace = two_rank_trace();
        let names: Vec<_> = trace.timelines.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["caller", "rank 0", "rank 1"]);
        let send = trace.timelines[1].events[0];
        assert_eq!((send.dst, send.bytes, send.nic, send.phase), (1, 64, true, Some("DiagBcast")));
        assert!(trace.timelines[2].events.is_empty());
        let json = trace.to_chrome_json();
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"bytes\":64"));
    }

    #[test]
    fn phase_wall_sums_across_ranks() {
        let trace = two_rank_trace();
        let per_rank: u64 = trace.timelines[1..]
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.name == "OuterUpdate")
            .map(|s| s.dur_ns())
            .sum();
        assert_eq!(trace.phase_wall_us()["OuterUpdate"], per_rank / 1000);
        // each rank slept 1 ms inside the phase, so the sum covers both
        assert!(per_rank >= 2_000_000, "{per_rank} ns");
    }

    #[test]
    fn phase_stack_nests() {
        // each rank thread has its own stack: the caller's open span is not
        // a rank's phase, and a rank's innermost span is
        let _caller = span("solve");
        let seen = Runtime::new(2).run(|_comm| {
            let outside = current_phase();
            let _a = span("PanelBcast");
            let _b = span("OuterUpdate");
            (outside, current_phase())
        });
        assert_eq!(seen, vec![(None, Some("OuterUpdate")); 2]);
        assert_eq!(current_phase(), Some("solve"));
    }

    #[test]
    fn escapes_hostile_names() {
        let ((), trace) = record("caller", || {
            Runtime::new(1).run(|_comm| {
                let _p = span("a\"b\\c\nd");
            });
        });
        assert!(trace.to_chrome_json().contains("\"name\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn without_a_recorder_spans_record_nothing_and_bytes_still_book_to_the_phase() {
        // a recorder came and went on this thread; the run after it records
        // into nothing, yet sends the same bytes under the same open phase,
        // which a recorded run books them to
        let run = |rt: &Runtime| {
            rt.run_traced(|comm| {
                let _p = span("PanelBcast");
                if comm.rank() == 0 {
                    comm.send(1, 0, vec![0u8; 256]).unwrap();
                } else {
                    let _: Vec<u8> = comm.recv(0, 0).unwrap();
                }
                (apsp_trace::current().is_some(), current_phase())
            })
        };
        let rt = Runtime::new(2);
        let ((), before) = record("caller", || {});
        let (seen, report) = run(&rt);
        assert_eq!(seen, vec![(false, Some("PanelBcast")); 2]);
        assert_eq!(before.timelines.len(), 1);
        assert!(before.timelines[0].spans.is_empty() && before.timelines[0].events.is_empty());
        assert_eq!(report.total_nic_bytes(), 256);
        let ((seen, recorded), trace) = record("caller", || run(&rt));
        assert_eq!(seen, vec![(true, Some("PanelBcast")); 2]);
        assert_eq!(recorded, report);
        assert_eq!(trace.phase_traffic()["PanelBcast"].nic_bytes, 256);
    }
}
