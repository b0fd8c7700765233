//! Host-level out-of-core blocked Floyd-Warshall (§4.3–4.5, one tier down).
//!
//! The paper's `Me-ParallelFw` keeps the matrix in host RAM and streams
//! tiles through the GPU; this module replays the same three-engine
//! pipeline one level down the hierarchy — **{disk, DRAM, cores}** instead
//! of {host RAM, PCIe, device} — so graphs whose dense closure exceeds host
//! RAM still solve on one node:
//!
//! * the matrix lives in a [`TileStore`] as serialized [`PackedB`] blobs —
//!   tiles are packed into the GEMM kernel's layout **once at ingest** and
//!   the stored row tile is handed to `gemm_packed_with_b` directly, never
//!   re-packed per iteration;
//! * [`ooc_fw`] walks the blocked-FW schedule (Algorithm 2: DiagUpdate →
//!   PanelUpdate → per-tile MinPlus outer product) under an explicit
//!   host-RAM budget, caching hot packed tiles in an LRU working set and
//!   spilling dirty ones back to the store;
//! * the [`FileStore`] overlaps its slot reads (prefetch) and write-backs
//!   with the packed GEMM via a background I/O thread — the disk-tier
//!   double buffer. The matching cost term is `gpu_sim::cost`'s fourth
//!   engine `t3`, and [`gpu_sim::min_block_size_disk`] is the Eq. 5
//!   analysis that predicts the tile size where the run turns
//!   compute-bound.
//!
//! Budget semantics: `peak resident = cache + scratch tiles + in-flight
//! I/O buffers (+ every blob, for the in-memory store)` never exceeds
//! [`OocConfig::budget_bytes`]; a budget below the floor fails up front
//! with [`OocError::BudgetTooSmall`] — the same `{required, budget}` shape
//! as the device tier's `Oom {requested, available}`.

pub mod store;

use std::collections::HashMap;
use std::time::Instant;

use gpu_sim::OogConfig;
use srgemm::gemm::pack::{PackDecodeError, PackElem, PackedB};
use srgemm::gemm::{gemm_packed_threads, KC, NC};
use srgemm::matrix::{Matrix, View, ViewMut};
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::prelude::fw_closure;
use srgemm::semiring::Semiring;

pub use store::{tile_blob_capacity, FileStore, MemStore, StoreError, TileStore};

/// Out-of-core driver configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OocConfig {
    /// Host-RAM ceiling for the solve (cache + scratch + I/O buffers).
    pub budget_bytes: u64,
    /// Double-buffer depth: outstanding prefetch reads and queued writes.
    pub depth: usize,
    /// Kernel threads each outer-product update may use.
    pub threads: usize,
}

impl OocConfig {
    /// A budget-limited, single-threaded config with double buffering
    /// (`depth = 2`).
    pub fn with_budget(budget_bytes: u64) -> Self {
        OocConfig { budget_bytes, depth: 2, threads: 1 }
    }

    /// No effective budget — for in-memory baselines.
    pub fn unbounded() -> Self {
        OocConfig::with_budget(u64::MAX)
    }
}

/// Typed failures of the out-of-core driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OocError {
    /// Zero tile size or buffer depth — rejected by the same validation the
    /// GPU offload tier applies to its `OogConfig` (mx/nx/streams).
    InvalidConfig {
        /// Tile side length.
        tile: usize,
        /// Double-buffer depth.
        depth: usize,
    },
    /// The budget cannot hold even the minimal working set. Mirrors the
    /// device tier's `Oom { requested, available }`: `required` is the full
    /// up-front floor (scratch + I/O reserve + two cache slots + resident
    /// store blobs), not the increment that happened to overflow.
    BudgetTooSmall {
        /// Minimum bytes the solve needs resident.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The tile store failed (I/O error, bad file, missing tile).
    Store(StoreError),
    /// A stored blob failed to decode (corruption, wrong element type).
    Decode(PackDecodeError),
}

impl std::fmt::Display for OocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OocError::InvalidConfig { tile, depth } => {
                write!(f, "invalid ooc config: tile={tile}, depth={depth} (all must be positive)")
            }
            OocError::BudgetTooSmall { required, budget } => write!(
                f,
                "memory budget too small: solve needs {required} bytes resident, budget is {budget}"
            ),
            OocError::Store(e) => write!(f, "{e}"),
            OocError::Decode(e) => write!(f, "tile blob decode failed: {e}"),
        }
    }
}

impl std::error::Error for OocError {}

impl From<StoreError> for OocError {
    fn from(e: StoreError) -> Self {
        OocError::Store(e)
    }
}

impl From<PackDecodeError> for OocError {
    fn from(e: PackDecodeError) -> Self {
        OocError::Decode(e)
    }
}

/// Counters from one out-of-core solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OocStats {
    /// Matrix dimension.
    pub n: usize,
    /// Tile side length.
    pub tile: usize,
    /// Tiles per side (`⌈n/t⌉`).
    pub tiles_per_side: usize,
    /// Whether the store was file-backed (true) or in-memory.
    pub staged: bool,
    /// Tile blobs fetched from the store.
    pub tiles_read: u64,
    /// Tile blobs spilled or flushed back.
    pub tiles_written: u64,
    /// Bytes fetched.
    pub bytes_read: u64,
    /// Bytes written back.
    pub bytes_written: u64,
    /// Peak host-RAM residency observed (cache + scratch + store buffers).
    pub peak_resident_bytes: u64,
    /// The configured budget.
    pub budget_bytes: u64,
    /// Time in GEMM / panel / closure kernels.
    pub compute_seconds: f64,
    /// Time blocked on the store (reads that missed prefetch, full queues).
    pub io_seconds: f64,
    /// End-to-end driver time.
    pub wall_seconds: f64,
}

/// Minimum [`OocConfig::budget_bytes`] a staged solve with `tile × tile`
/// blobs and `depth`-deep buffering can run under: three dense scratch
/// tiles, the bounded in-flight I/O buffers, and two cache slots (the tile
/// being updated plus the packed row tile feeding the GEMM).
pub fn staged_budget_floor<E: PackElem>(tile: usize, depth: usize) -> u64 {
    let slot = tile_blob_capacity::<E>(tile) as u64;
    let dense = (tile * tile * E::BYTES) as u64;
    // I/O reserve: `depth` prefetch buffers + `depth` queued writes + one
    // demand-read buffer in flight while the cache is at capacity.
    3 * dense + (2 * depth as u64 + 1) * slot + 2 * slot
}

/// Largest tile size (from a fixed candidate ladder, clamped to `n`) whose
/// staged working set fits `budget`. `None` if even the smallest tile
/// doesn't fit — the graph is unsolvable under that budget.
pub fn choose_tile<E: PackElem>(n: usize, budget: u64, depth: usize) -> Option<usize> {
    const LADDER: &[usize] =
        &[1024, 768, 512, 384, 256, 192, 128, 96, 64, 48, 32, 24, 16, 8];
    let n = n.max(1);
    LADDER
        .iter()
        .map(|&t| t.min(n))
        .find(|&t| staged_budget_floor::<E>(t, depth) <= budget)
}

// ---------------------------------------------------------------------------
// LRU packed-tile cache
// ---------------------------------------------------------------------------

struct CacheEntry<E> {
    pb: PackedB<E>,
    bytes: u64,
    dirty: bool,
    stamp: u64,
}

/// Budget-bounded LRU over decoded packed tiles. All sizes are the tiles'
/// serialized lengths — a faithful proxy for their heap footprint.
struct TileCache<E> {
    map: HashMap<(usize, usize), CacheEntry<E>>,
    resident: u64,
    cap: u64,
    scratch_bytes: u64,
    clock: u64,
}

impl<E: PackElem> TileCache<E> {
    fn new(cap: u64, scratch_bytes: u64) -> Self {
        TileCache { map: HashMap::new(), resident: 0, cap, scratch_bytes, clock: 0 }
    }

    fn note_peak(&self, store: &dyn TileStore, stats: &mut OocStats) {
        let total = self.resident + self.scratch_bytes + store.resident_bytes();
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(total);
    }

    fn contains(&self, key: (usize, usize)) -> bool {
        self.map.contains_key(&key)
    }

    fn peek(&self, key: (usize, usize)) -> &PackedB<E> {
        &self.map[&key].pb
    }

    /// Evict least-recently-used entries (never `keep`) until `need` more
    /// bytes fit, spilling dirty tiles back to the store.
    fn make_room(
        &mut self,
        store: &mut dyn TileStore,
        stats: &mut OocStats,
        need: u64,
        keep: Option<(usize, usize)>,
    ) -> Result<(), OocError> {
        while self.resident + need > self.cap {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(victim) = victim else {
                // Nothing evictable and still over: the floor check should
                // make this unreachable, but report it honestly if not.
                return Err(OocError::BudgetTooSmall {
                    required: self.resident + need + self.scratch_bytes,
                    budget: self.cap + self.scratch_bytes,
                });
            };
            let entry = self.map.remove(&victim).expect("victim exists");
            self.resident -= entry.bytes;
            if entry.dirty {
                let blob = entry.pb.to_bytes();
                stats.tiles_written += 1;
                stats.bytes_written += blob.len() as u64;
                let t0 = Instant::now();
                store.write(victim.0, victim.1, blob)?;
                stats.io_seconds += t0.elapsed().as_secs_f64();
            }
        }
        Ok(())
    }

    /// Make `key` resident, loading and decoding its blob on a miss.
    fn ensure(
        &mut self,
        store: &mut dyn TileStore,
        stats: &mut OocStats,
        key: (usize, usize),
    ) -> Result<(), OocError> {
        self.clock += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = self.clock;
            return Ok(());
        }
        let t0 = Instant::now();
        let blob = store.read(key.0, key.1)?;
        stats.io_seconds += t0.elapsed().as_secs_f64();
        stats.tiles_read += 1;
        stats.bytes_read += blob.len() as u64;
        let pb = PackedB::<E>::from_bytes(&blob)?;
        let bytes = blob.len() as u64;
        self.make_room(store, stats, bytes, None)?;
        self.resident += bytes;
        self.map
            .insert(key, CacheEntry { pb, bytes, dirty: false, stamp: self.clock });
        self.note_peak(store, stats);
        Ok(())
    }

    /// Replace `key`'s contents by repacking `src`, marking it dirty.
    fn put_dense<S: Semiring<Elem = E>>(
        &mut self,
        store: &mut dyn TileStore,
        stats: &mut OocStats,
        key: (usize, usize),
        src: &View<'_, E>,
    ) -> Result<(), OocError> {
        self.clock += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.pb.repack::<S>(src);
            e.dirty = true;
            e.stamp = self.clock;
            return Ok(());
        }
        let bytes = PackedB::<E>::serialized_len(src.rows(), src.cols(), KC, NC) as u64;
        self.make_room(store, stats, bytes, None)?;
        let pb = PackedB::pack::<S>(src);
        self.resident += bytes;
        self.map
            .insert(key, CacheEntry { pb, bytes, dirty: true, stamp: self.clock });
        self.note_peak(store, stats);
        Ok(())
    }

    /// Spill every dirty tile and drop the cache contents.
    fn flush(
        &mut self,
        store: &mut dyn TileStore,
        stats: &mut OocStats,
    ) -> Result<(), OocError> {
        let mut keys: Vec<_> = self.map.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let entry = self.map.remove(&key).expect("key exists");
            self.resident -= entry.bytes;
            if entry.dirty {
                let blob = entry.pb.to_bytes();
                stats.tiles_written += 1;
                stats.bytes_written += blob.len() as u64;
                let t0 = Instant::now();
                store.write(key.0, key.1, blob)?;
                stats.io_seconds += t0.elapsed().as_secs_f64();
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Ingest / export
// ---------------------------------------------------------------------------

/// Pack `d` tile by tile into `store` — the one and only packing pass.
///
/// # Panics
/// Panics if `d` is not `store.n() × store.n()`.
pub fn ingest<S: Semiring>(store: &mut dyn TileStore, d: &View<'_, S::Elem>) -> Result<(), OocError>
where
    S::Elem: PackElem,
{
    let (n, t) = (store.n(), store.tile());
    assert_eq!(d.rows(), n, "ingest: matrix rows != store dimension");
    assert_eq!(d.cols(), n, "ingest: matrix cols != store dimension");
    let nb = store.tiles_per_side();
    for ti in 0..nb {
        let (r0, rb) = (ti * t, t.min(n - ti * t));
        for tj in 0..nb {
            let (c0, cb) = (tj * t, t.min(n - tj * t));
            let pb = PackedB::pack::<S>(&d.subview(r0, c0, rb, cb));
            store.write(ti, tj, pb.to_bytes())?;
        }
    }
    store.flush()?;
    Ok(())
}

/// Read every tile back out of `store` into the dense `out`.
///
/// # Panics
/// Panics if `out` is not `store.n() × store.n()`.
pub fn export_into<S: Semiring>(
    store: &mut dyn TileStore,
    out: &mut ViewMut<'_, S::Elem>,
) -> Result<(), OocError>
where
    S::Elem: PackElem,
{
    let (n, t) = (store.n(), store.tile());
    assert_eq!(out.rows(), n, "export: matrix rows != store dimension");
    assert_eq!(out.cols(), n, "export: matrix cols != store dimension");
    let nb = store.tiles_per_side();
    for ti in 0..nb {
        let (r0, rb) = (ti * t, t.min(n - ti * t));
        for tj in 0..nb {
            let (c0, cb) = (tj * t, t.min(n - tj * t));
            let pb = PackedB::<S::Elem>::from_bytes(&store.read(ti, tj)?)?;
            pb.unpack_into(&mut out.subview_mut(r0, c0, rb, cb));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Out-of-core blocked Floyd-Warshall over the tiles in `store`, in place.
///
/// Per block-iteration `k`: DiagUpdate closes tile `(k,k)`; PanelUpdate
/// fixes block row and column `k`; then every remaining tile folds
/// `C(i,j) ⊕= A(i,k) ⊗ B(k,j)` with the **stored packed row tile** as the
/// GEMM's `B` operand. Same kernels, same per-element ⊕ fold order as
/// [`crate::fw_blocked::fw_blocked_threads`], hence bit-identical results.
///
/// # Panics
/// Panics if `S` is not ⊕-idempotent (same precondition as blocked FW).
pub fn ooc_fw<S: Semiring>(
    store: &mut dyn TileStore,
    cfg: &OocConfig,
) -> Result<OocStats, OocError>
where
    S::Elem: PackElem,
{
    assert!(
        S::IDEMPOTENT_ADD,
        "out-of-core FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    let (n, t) = (store.n(), store.tile());
    // Same validation the GPU offload tier runs on its OogConfig: positive
    // tile extents, positive buffer count.
    OogConfig { mx: t, nx: t, streams: cfg.depth }
        .validate()
        .map_err(|_| OocError::InvalidConfig { tile: t, depth: cfg.depth })?;

    let wall = Instant::now();
    let nb = store.tiles_per_side();
    let s = t.min(n);
    let scratch_bytes = 3 * (s * s * S::Elem::BYTES) as u64;
    let slot = store.max_blob_bytes() as u64;
    let io_reserve = (2 * cfg.depth as u64 + 1) * slot;
    let baseline = store.resident_bytes();
    let floor = baseline + scratch_bytes + io_reserve + 2 * slot;
    if cfg.budget_bytes < floor {
        return Err(OocError::BudgetTooSmall { required: floor, budget: cfg.budget_bytes });
    }
    let cap = cfg.budget_bytes - scratch_bytes - io_reserve - baseline;

    let mut stats = OocStats {
        n,
        tile: t,
        tiles_per_side: nb,
        staged: store.kind() == "file",
        budget_bytes: cfg.budget_bytes,
        ..OocStats::default()
    };
    let mut cache = TileCache::<S::Elem>::new(cap, scratch_bytes);
    // Three dense scratch tiles: the closed diagonal, the A operand, and
    // the tile being updated. Ragged tiles use subviews of these.
    let mut diag = Matrix::filled(s, s, S::zero());
    let mut a_buf = Matrix::filled(s, s, S::zero());
    let mut c_buf = Matrix::filled(s, s, S::zero());
    let dim = |b: usize| t.min(n - b * t);

    for k in 0..nb {
        let bk = dim(k);
        let others = || (0..nb).filter(move |&x| x != k);

        // ----- DiagUpdate -----
        cache.ensure(store, &mut stats, (k, k))?;
        let t0 = Instant::now();
        {
            let mut dv = diag.subview_mut(0, 0, bk, bk);
            cache.peek((k, k)).unpack_into(&mut dv);
            fw_closure::<S>(&mut dv);
        }
        stats.compute_seconds += t0.elapsed().as_secs_f64();
        cache.put_dense::<S>(store, &mut stats, (k, k), &diag.subview(0, 0, bk, bk))?;

        // ----- PanelUpdate: block row k -----
        let js: Vec<usize> = others().collect();
        for (idx, &j) in js.iter().enumerate() {
            if let Some(&jn) = js.get(idx + 1) {
                if !cache.contains((k, jn)) {
                    store.prefetch(k, jn);
                }
            }
            let bj = dim(j);
            cache.ensure(store, &mut stats, (k, j))?;
            let t0 = Instant::now();
            {
                let mut cv = c_buf.subview_mut(0, 0, bk, bj);
                cache.peek((k, j)).unpack_into(&mut cv);
                panel_update_left::<S>(&mut cv, &diag.subview(0, 0, bk, bk));
            }
            stats.compute_seconds += t0.elapsed().as_secs_f64();
            cache.put_dense::<S>(store, &mut stats, (k, j), &c_buf.subview(0, 0, bk, bj))?;
        }

        // ----- PanelUpdate: block column k -----
        let is: Vec<usize> = others().collect();
        for (idx, &i) in is.iter().enumerate() {
            if let Some(&inx) = is.get(idx + 1) {
                if !cache.contains((inx, k)) {
                    store.prefetch(inx, k);
                }
            }
            let bi = dim(i);
            cache.ensure(store, &mut stats, (i, k))?;
            let t0 = Instant::now();
            {
                let mut cv = c_buf.subview_mut(0, 0, bi, bk);
                cache.peek((i, k)).unpack_into(&mut cv);
                panel_update_right::<S>(&mut cv, &diag.subview(0, 0, bk, bk));
            }
            stats.compute_seconds += t0.elapsed().as_secs_f64();
            cache.put_dense::<S>(store, &mut stats, (i, k), &c_buf.subview(0, 0, bi, bk))?;
        }

        // ----- MinPlus outer product -----
        for (ii, &i) in is.iter().enumerate() {
            let bi = dim(i);
            cache.ensure(store, &mut stats, (i, k))?;
            let t0 = Instant::now();
            {
                let mut av = a_buf.subview_mut(0, 0, bi, bk);
                cache.peek((i, k)).unpack_into(&mut av);
            }
            stats.compute_seconds += t0.elapsed().as_secs_f64();
            for (jj, &j) in js.iter().enumerate() {
                // Double buffer: ask the store for the next C tile of the
                // sweep while this one multiplies.
                let next = js
                    .get(jj + 1)
                    .map(|&jn| (i, jn))
                    .or_else(|| is.get(ii + 1).map(|&inx| (inx, k)));
                if let Some((pi, pj)) = next {
                    if !cache.contains((pi, pj)) {
                        store.prefetch(pi, pj);
                    }
                }
                let bj = dim(j);
                cache.ensure(store, &mut stats, (i, j))?;
                let t0 = Instant::now();
                {
                    let mut cv = c_buf.subview_mut(0, 0, bi, bj);
                    cache.peek((i, j)).unpack_into(&mut cv);
                }
                stats.compute_seconds += t0.elapsed().as_secs_f64();
                cache.ensure(store, &mut stats, (k, j))?;
                let t0 = Instant::now();
                {
                    let mut cv = c_buf.subview_mut(0, 0, bi, bj);
                    let av = a_buf.subview(0, 0, bi, bk);
                    let pb = cache.peek((k, j));
                    gemm_packed_threads::<S>(&mut cv, &av, pb, cfg.threads);
                }
                stats.compute_seconds += t0.elapsed().as_secs_f64();
                cache.put_dense::<S>(store, &mut stats, (i, j), &c_buf.subview(0, 0, bi, bj))?;
            }
        }
    }

    cache.flush(store, &mut stats)?;
    let t0 = Instant::now();
    store.flush()?;
    stats.io_seconds += t0.elapsed().as_secs_f64();
    cache.note_peak(store, &mut stats);
    stats.wall_seconds = wall.elapsed().as_secs_f64();
    Ok(stats)
}

/// Ingest `d`, run [`ooc_fw`], and export the closure back into `d`.
pub fn solve_in_store<S: Semiring>(
    d: &mut Matrix<S::Elem>,
    store: &mut dyn TileStore,
    cfg: &OocConfig,
) -> Result<OocStats, OocError>
where
    S::Elem: PackElem,
{
    ingest::<S>(store, &d.view())?;
    let stats = ooc_fw::<S>(store, cfg)?;
    export_into::<S>(store, &mut d.view_mut())?;
    Ok(stats)
}
