//! Machine model: calibrated constants and the cluster resource facade.

use crate::engine::{EngineError, ResourceFault, Schedule};
use crate::task::{ResourceId, TaskGraph, TaskId};

/// Hardware constants of one homogeneous cluster (per-node values).
///
/// [`MachineSpec::summit`] is calibrated from the paper's §5.1.1/§4.1:
/// 6 V100s per node at 6.8 TF/s sustained SRGEMM each, 25 GB/s effective NIC
/// bandwidth per node, NVLink 50 GB/s per direction per GPU, and a few-µs
/// message latency typical of Spectrum MPI on fat-tree InfiniBand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Sustained semiring-GEMM rate per GPU, flop/s.
    pub gpu_flops: f64,
    /// Device memory per GPU, bytes.
    pub gpu_mem_bytes: u64,
    /// Host memory per node, bytes.
    pub host_mem_bytes: u64,
    /// NIC bandwidth per node (each direction), bytes/s.
    pub nic_bw: f64,
    /// Per-message latency on the interconnect, seconds.
    pub nic_latency: f64,
    /// Intra-node transfer bandwidth (shared-memory MPI / NVLink), bytes/s.
    pub intra_bw: f64,
    /// Host↔device bandwidth per GPU (one NVLink direction), bytes/s.
    pub hd_bw: f64,
    /// Host CPU↔DRAM bandwidth per node, bytes/s.
    pub host_mem_bw: f64,
}

impl MachineSpec {
    /// `nodes` Summit nodes.
    pub fn summit(nodes: usize) -> Self {
        MachineSpec {
            nodes,
            gpus_per_node: 6,
            gpu_flops: 6.8e12,
            gpu_mem_bytes: 16 * (1 << 30),
            host_mem_bytes: 512 * (1 << 30),
            nic_bw: 25e9,
            nic_latency: 2e-6,
            intra_bw: 50e9,
            hd_bw: 50e9,
            host_mem_bw: 6.0 * 75e9, // per-node: 6 GPUs' worth of host shares
        }
    }

    /// Aggregate sustained flop/s of the whole machine.
    pub fn total_flops(&self) -> f64 {
        self.nodes as f64 * self.gpus_per_node as f64 * self.gpu_flops
    }

    /// Aggregate GPU memory in bytes.
    pub fn total_gpu_mem(&self) -> u64 {
        self.nodes as u64 * self.gpus_per_node as u64 * self.gpu_mem_bytes
    }
}

/// Per-node resources of a cluster, layered over a [`TaskGraph`].
///
/// Granularity is one task-resource per node per engine kind:
///
/// * `gpu[i]` — node *i*'s aggregated GPU pool (durations are divided by the
///   per-node GPU count by [`Cluster::gpu_task`]);
/// * `nic[i]` — node *i*'s NIC egress; a transfer occupies the *sender's*
///   NIC (paper §3.4.1 models exactly the data sent out of a node);
/// * `intra[i]` — node *i*'s intra-node fabric;
/// * `host[i]` — node *i*'s host-memory engine (offload hostUpdate).
pub struct Cluster {
    /// The machine constants used for durations.
    pub spec: MachineSpec,
    /// The DAG being built.
    pub dag: TaskGraph,
    gpu: Vec<ResourceId>,
    nic: Vec<ResourceId>,
    intra: Vec<ResourceId>,
    host: Vec<ResourceId>,
}

impl Cluster {
    /// Create resources for every node of `spec`.
    pub fn new(spec: MachineSpec) -> Self {
        let mut dag = TaskGraph::new();
        let gpu = (0..spec.nodes).map(|_| dag.resource()).collect();
        let nic = (0..spec.nodes).map(|_| dag.resource()).collect();
        let intra = (0..spec.nodes).map(|_| dag.resource()).collect();
        let host = (0..spec.nodes).map(|_| dag.resource()).collect();
        Cluster { spec, dag, gpu, nic, intra, host }
    }

    /// GPU resource of `node` (exposed for utilization reporting).
    pub fn gpu_resource(&self, node: usize) -> ResourceId {
        self.gpu[node]
    }

    /// Label every subsequently-created task with `name` (see
    /// [`TaskGraph::set_phase`]). Schedule builders call this at each of the
    /// paper's phase boundaries so trace exports carry phase attribution.
    pub fn set_phase(&mut self, name: &'static str) {
        self.dag.set_phase(name);
    }

    /// Human-readable name of every resource, indexed by
    /// [`ResourceId::index`] — `gpu{i}`, `nic{i}`, `intra{i}`, `host{i}`
    /// for each node `i`, matching the creation order in [`Cluster::new`].
    pub fn resource_names(&self) -> Vec<String> {
        let mut names = vec![String::new(); self.dag.num_resources() as usize];
        for (kind, ids) in [
            ("gpu", &self.gpu),
            ("nic", &self.nic),
            ("intra", &self.intra),
            ("host", &self.host),
        ] {
            for (i, r) in ids.iter().enumerate() {
                names[r.index()] = format!("{kind}{i}");
            }
        }
        names
    }

    /// NIC resource of `node`.
    pub fn nic_resource(&self, node: usize) -> ResourceId {
        self.nic[node]
    }

    /// A compute task of `flops` on node `node`'s GPU pool.
    pub fn gpu_task(&mut self, node: usize, flops: f64, priority: u32, deps: &[TaskId]) -> TaskId {
        let rate = self.spec.gpu_flops * self.spec.gpus_per_node as f64;
        self.dag.task(self.gpu[node], flops / rate, priority, deps)
    }

    /// A message of `bytes` from `src` to `dst` node. Inter-node messages
    /// occupy the sender's NIC for `latency + bytes/nic_bw`; intra-node
    /// messages the intra fabric for `bytes/intra_bw`. Returns the task whose
    /// completion means "delivered".
    pub fn send_task(&mut self, src: usize, dst: usize, bytes: f64, priority: u32, deps: &[TaskId]) -> TaskId {
        if src == dst {
            let dur = bytes / self.spec.intra_bw;
            self.dag.task(self.intra[src], dur, priority, deps)
        } else {
            let dur = self.spec.nic_latency + bytes / self.spec.nic_bw;
            self.dag.task(self.nic[src], dur, priority, deps)
        }
    }

    /// A host-memory task touching `bytes` on `node` (hostUpdate et al.).
    pub fn host_task(&mut self, node: usize, bytes: f64, priority: u32, deps: &[TaskId]) -> TaskId {
        let dur = bytes / self.spec.host_mem_bw;
        self.dag.task(self.host[node], dur, priority, deps)
    }

    /// Execute the DAG.
    pub fn run(&self) -> Schedule {
        crate::engine::run(&self.dag)
    }

    /// Every engine resource of `node` — GPU pool, NIC, intra fabric, and
    /// host-memory engine — dying at simulated second `at`: a whole-node
    /// failure for [`Cluster::try_run_with_faults`].
    pub fn node_fault(&self, node: usize, at: f64) -> Vec<ResourceFault> {
        [self.gpu[node], self.nic[node], self.intra[node], self.host[node]]
            .into_iter()
            .map(|resource| ResourceFault { resource, at })
            .collect()
    }

    /// Execute the DAG under a fault plan; a stalled schedule comes back as
    /// the typed [`EngineError`] instead of a panic.
    pub fn try_run_with_faults(&self, faults: &[ResourceFault]) -> Result<Schedule, EngineError> {
        crate::engine::try_run_with_faults(&self.dag, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_aggregates() {
        let s = MachineSpec::summit(256);
        // 256 nodes × 6 GPUs × 6.8 TF = 10.44 PF sustained SRGEMM
        assert!((s.total_flops() - 256.0 * 6.0 * 6.8e12).abs() < 1.0);
        assert_eq!(s.total_gpu_mem(), 256 * 6 * 16 * (1 << 30) as u64);
    }

    #[test]
    fn gpu_task_duration_uses_node_aggregate_rate() {
        let mut c = Cluster::new(MachineSpec::summit(2));
        let t = c.gpu_task(0, 6.0 * 6.8e12, 0, &[]);
        let s = c.run();
        assert!((s.finish_of(t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn internode_send_charges_sender_nic() {
        let mut c = Cluster::new(MachineSpec::summit(2));
        let t = c.send_task(0, 1, 25e9, 0, &[]);
        let s = c.run();
        assert!((s.finish_of(t) - (1.0 + 2e-6)).abs() < 1e-9);
        assert!(s.busy[c.nic_resource(0).0 as usize] > 0.0);
        assert_eq!(s.busy[c.nic_resource(1).0 as usize], 0.0);
    }

    #[test]
    fn intranode_send_uses_fast_fabric() {
        let mut c = Cluster::new(MachineSpec::summit(1));
        let t = c.send_task(0, 0, 50e9, 0, &[]);
        let s = c.run();
        assert!((s.finish_of(t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_sends_from_one_node_serialize_on_its_nic() {
        let mut c = Cluster::new(MachineSpec::summit(3));
        c.send_task(0, 1, 25e9, 0, &[]);
        c.send_task(0, 2, 25e9, 0, &[]);
        let s = c.run();
        assert!(s.makespan > 2.0); // serialized on node 0's NIC
    }

    #[test]
    fn node_fault_stalls_a_cross_node_pipeline() {
        let mut c = Cluster::new(MachineSpec::summit(2));
        let a = c.gpu_task(0, 6.8e12, 0, &[]);
        let x = c.send_task(0, 1, 25e9, 0, &[a]);
        let _b = c.gpu_task(1, 6.8e12, 0, &[x]);
        let err = c.try_run_with_faults(&c.node_fault(1, 0.0)).expect_err("node 1 is dead");
        let EngineError::Stalled { completed, total, .. } = err;
        assert_eq!((completed, total), (2, 3));
        // a fault that fires after the schedule is done never bites
        let clean = c.run();
        let late = c.try_run_with_faults(&c.node_fault(1, 1e9)).expect("fault after the end");
        assert_eq!(late.makespan, clean.makespan);
    }

    #[test]
    fn sends_from_different_nodes_overlap() {
        let mut c = Cluster::new(MachineSpec::summit(4));
        c.send_task(0, 1, 25e9, 0, &[]);
        c.send_task(2, 3, 25e9, 0, &[]);
        let s = c.run();
        assert!(s.makespan < 1.1);
    }
}
