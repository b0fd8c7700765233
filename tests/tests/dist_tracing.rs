//! Cross-variant equivalence and trace/traffic invariants for the
//! distributed FW variants: every variant is bit-identical to sequential
//! FW; the trace's per-phase NIC bytes sum exactly to the traffic total;
//! every rank's track carries all five paper phase names.

use apsp_core::dist::{
    distributed_apsp_opts, distributed_apsp_traced_opts, DistRunOpts, FwConfig, Variant,
};
use apsp_core::fw_seq::fw_seq;
use apsp_graph::generators::{self, WeightKind};
use apsp_trace::PHASES;
use srgemm::MinPlusF32;

#[test]
fn all_variants_match_sequential_fw_across_grids_and_blocks() {
    let n = 23;
    let g = generators::erdos_renyi(n, 0.3, WeightKind::small_ints(), 11);
    let input = g.to_dense();
    let mut want = input.clone();
    fw_seq::<MinPlusF32>(&mut want);
    for (pr, pc) in [(1, 2), (2, 2), (2, 3), (3, 2)] {
        for block in [4usize, 7, 16] {
            for variant in Variant::all() {
                let cfg = FwConfig::new(block, variant);
                let (got, _) = distributed_apsp_opts::<MinPlusF32>(
                    pr, pc, &cfg, &input, None, &DistRunOpts::default(),
                )
                .expect("run");
                assert!(
                    want.eq_exact(&got),
                    "{variant:?} diverges from fw_seq at pr={pr} pc={pc} b={block}"
                );
            }
        }
    }
}

#[test]
fn phase_nic_bytes_sum_to_the_traffic_total_and_every_rank_sees_all_phases() {
    let n = 24;
    let input = generators::uniform_dense(n, WeightKind::small_ints(), 5).to_dense();
    for variant in Variant::all() {
        let cfg = FwConfig::new(6, variant);
        let (_, traffic, trace) =
            distributed_apsp_traced_opts::<MinPlusF32>(
                2, 2, &cfg, &input, None, &DistRunOpts::default(),
            )
            .expect("run");

        // every send a rank made is an event on its track, so every NIC
        // byte lands in exactly one phase bucket (the end-of-run gather is
        // outside any span and lands in "(untraced)", which the sum includes)
        assert!(traffic.total_nic_bytes() > 0, "{variant:?} sent nothing");
        let from_trace = trace.phase_traffic();
        let nic_sum: u64 = from_trace.values().map(|t| t.nic_bytes).sum();
        assert_eq!(nic_sum, traffic.total_nic_bytes(), "{variant:?}: phase attribution lost bytes");
        let msgs: u64 = from_trace.values().map(|t| t.msgs).sum();
        assert_eq!(msgs, traffic.total_msgs, "{variant:?}");
        for phase in ["DiagBcast", "PanelBcast", apsp_trace::UNTRACED] {
            assert!(from_trace[phase].nic_bytes > 0, "{variant:?}: no NIC bytes in {phase}");
        }

        // the caller's track, then every rank's with the five-phase structure
        let names: Vec<_> = trace.timelines.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["caller", "rank 0", "rank 1", "rank 2", "rank 3"]);
        for (rank, tl) in trace.timelines[1..].iter().enumerate() {
            for phase in PHASES {
                assert!(
                    tl.spans.iter().any(|s| s.name == phase),
                    "{variant:?}: rank {rank} has no {phase} span"
                );
            }
        }

        // and the Chrome export carries all five names, well-formed
        let json = trace.to_chrome_json();
        for phase in PHASES {
            assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{variant:?} json misses {phase}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
