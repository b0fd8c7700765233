//! Host-level out-of-core blocked Floyd-Warshall (§4.3–4.5, one tier down).
//!
//! The paper's `Me-ParallelFw` keeps the matrix in host RAM and streams
//! tiles through the GPU; this module replays the same three-engine
//! pipeline one level down the hierarchy — **{disk, DRAM, cores}** instead
//! of {host RAM, PCIe, device} — so graphs whose dense closure exceeds host
//! RAM still solve on one node:
//!
//! * the matrix lives in a [`TileStore`] — the solve's private scratch,
//!   created, filled and dropped by one solve — as dense tiles (only the
//!   [`FileStore`] turns them into checksummed bytes), and only the operand
//!   a product needs is staged: the row tile `B(k, j)` is packed into one
//!   persistent [`PackedB`] per update;
//! * [`ooc_fw`] walks the blocked-FW schedule (Algorithm 2: DiagUpdate →
//!   PanelUpdate → per-tile MinPlus outer product) under an explicit
//!   host-RAM budget, running the same four kernels as
//!   [`mod@crate::fw_blocked`] in place on views of the tiles cached in an LRU
//!   working set, and spilling dirty ones back to the store;
//! * a tile the store holds as *absent* is all ⊕-identity and is skipped as
//!   an operand; only fill-in materializes it. That makes the same loop the
//!   block-sparse FW of the paper's §7 direction (supernodal APSP, its
//!   reference \[31\]): on clustered or banded graphs it multiplies only the
//!   tiles that hold paths. [`ingest`] reads the [`Graph`] one tile row at a
//!   time and declares every off-diagonal tile without an edge absent, so
//!   the `n × n` matrix exists only when [`export`] builds the answer;
//! * the [`FileStore`] keeps the tiles in one unlinked temp file and
//!   overlaps its slot reads (prefetch) and write-backs with the GEMM via a
//!   background I/O thread — the disk-tier double buffer. The matching
//!   cost term is `gpu_sim::cost`'s fourth engine `t3`, and
//!   [`gpu_sim::min_block_size_disk`] is the Eq. 5 analysis that predicts
//!   the tile size where the run turns compute-bound.
//!
//! Where the time goes is a trace, not a counter: [`ooc_fw`] opens the
//! paper's phase spans per iteration, `pack` around each repack of `B(k, j)`
//! and `io-wait` around every store read, write-back and flush, on the
//! calling thread's `apsp_trace` recorder. [`OocStats`] holds counts only.
//!
//! Budget semantics: `peak resident = cached tiles + the packed B scratch +
//! in-flight I/O buffers (+ every tile, for the in-memory store)` never
//! exceeds [`OocConfig::budget_bytes`]; a budget below
//! [`staged_budget_floor`] fails up front with
//! [`OocError::BudgetTooSmall`] — the same `{required, budget}` shape as
//! the device tier's `Oom {requested, available}`.

pub mod store;

use std::collections::HashMap;

use apsp_graph::Graph;
use apsp_trace::span;
use srgemm::gemm::{gemm_packed_threads, pad_quantum, PackedB};
use srgemm::matrix::{Matrix, ViewMut};
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::prelude::fw_closure;
use srgemm::semiring::Semiring;
use srgemm::MinPlusF32;

pub use store::{tile_bytes, FileStore, MemStore, StoreError, TileElem, TileStore, IO_DEPTH};

/// Out-of-core driver configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OocConfig {
    /// Host-RAM ceiling for the solve (cache + scratch + I/O buffers).
    pub budget_bytes: u64,
    /// Kernel threads each outer-product update may use.
    pub threads: usize,
}

impl OocConfig {
    /// A budget-limited, single-threaded config.
    pub fn with_budget(budget_bytes: u64) -> Self {
        OocConfig { budget_bytes, threads: 1 }
    }

    /// No effective budget — for in-memory baselines.
    pub fn unbounded() -> Self {
        OocConfig::with_budget(u64::MAX)
    }
}

/// Typed failures of the out-of-core driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OocError {
    /// The budget cannot hold even the minimal working set. Mirrors the
    /// device tier's `Oom { requested, available }`: `required` is the full
    /// up-front floor ([`staged_budget_floor`] plus whatever the store
    /// itself keeps resident), not the increment that happened to overflow.
    BudgetTooSmall {
        /// Minimum bytes the solve needs resident.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The tile store failed (I/O error, bad geometry, missing or corrupt
    /// tile).
    Store(StoreError),
}

impl std::fmt::Display for OocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OocError::BudgetTooSmall { required, budget } => write!(
                f,
                "memory budget too small: solve needs {required} bytes resident, budget is {budget}"
            ),
            OocError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OocError {}

impl From<StoreError> for OocError {
    fn from(e: StoreError) -> Self {
        OocError::Store(e)
    }
}

/// Counters from one out-of-core solve; its shape is the store's
/// ([`TileStore::tile`], [`TileStore::tiles_per_side`], [`TileStore::kind`])
/// and its budget the caller's [`OocConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OocStats {
    /// Tiles fetched from the store.
    pub tiles_read: u64,
    /// Tiles spilled or flushed back.
    pub tiles_written: u64,
    /// Bytes fetched.
    pub bytes_read: u64,
    /// Bytes written back.
    pub bytes_written: u64,
    /// Outer-product tile GEMMs run: `nb·(nb − 1)²` when every tile is
    /// present, fewer for each one an absent operand skipped.
    pub outer_gemms: u64,
    /// Peak host-RAM residency observed (cache + scratch + store buffers).
    pub peak_resident_bytes: u64,
}

/// Bytes of the driver's one persistent packed `B` operand: a `tile × tile`
/// [`PackedB`], its rows padded to the kernel's [`pad_quantum`] stride.
fn packed_b_bytes<E: TileElem>(tile: usize) -> u64 {
    (tile * tile.next_multiple_of(pad_quantum::<E>()) * E::BYTES) as u64
}

/// The part of a staged working set the tile cache may never use: the
/// packed `B` scratch and the store's bounded in-flight I/O buffers —
/// [`IO_DEPTH`] prefetch reads, [`IO_DEPTH`] queued writes and one demand
/// read.
fn reserved_bytes<E: TileElem>(tile: usize) -> u64 {
    packed_b_bytes::<E>(tile) + (2 * IO_DEPTH as u64 + 1) * tile_bytes::<E>(tile, tile)
}

/// Minimum [`OocConfig::budget_bytes`] a staged solve over `tile × tile`
/// tiles of `E` can run under: the packed scratch and I/O reserve, plus two
/// cache slots — the tile being updated and the one borrowed beside it
/// (the diagonal during PanelUpdate, `A(i, k)` during the outer product).
/// The planner, the solver adapter and [`ooc_fw`] all use this one number.
pub fn staged_budget_floor<E: TileElem>(tile: usize) -> u64 {
    reserved_bytes::<E>(tile) + 2 * tile_bytes::<E>(tile, tile)
}

/// Largest tile size (from a fixed candidate ladder, clamped to `n`) whose
/// staged working set fits `budget`. `None` if even the smallest tile
/// doesn't fit — the graph is unsolvable under that budget.
pub fn choose_tile<E: TileElem>(n: usize, budget: u64) -> Option<usize> {
    const LADDER: &[usize] =
        &[1024, 768, 512, 384, 256, 192, 128, 96, 64, 48, 32, 24, 16, 8];
    let n = n.max(1);
    LADDER
        .iter()
        .map(|&t| t.min(n))
        .find(|&t| staged_budget_floor::<E>(t) <= budget)
}

// ---------------------------------------------------------------------------
// LRU tile cache
// ---------------------------------------------------------------------------

/// One resident dense tile; `bytes` is what it is charged against the
/// budget — its stored size.
struct Resident<E> {
    tile: Matrix<E>,
    bytes: u64,
    dirty: bool,
    stamp: u64,
}

/// Whether kernel work handed to [`TileCache::run`] modifies its tile.
#[derive(PartialEq)]
enum Access {
    Read,
    Write,
}

/// Budget-bounded LRU over dense tiles of `store`, and the solve's
/// counters. A tile is resident while it is in `map` *or* checked out with
/// [`TileCache::take`]; checked-out tiles cannot be evicted. A tile the
/// store holds as absent is materialized as all `zero` on first use.
struct TileCache<'s, E> {
    store: &'s mut dyn TileStore<E>,
    stats: OocStats,
    map: HashMap<(usize, usize), Resident<E>>,
    resident: u64,
    cap: u64,
    scratch: u64,
    clock: u64,
    zero: E,
}

impl<'s, E: TileElem> TileCache<'s, E> {
    /// Split `budget` into the reserved part and the cache capacity, or
    /// refuse a budget below the floor.
    fn new(store: &'s mut dyn TileStore<E>, budget: u64, zero: E) -> Result<Self, OocError> {
        let tile = store.tile();
        let baseline = store.resident_bytes();
        let required = baseline + staged_budget_floor::<E>(tile);
        if budget < required {
            return Err(OocError::BudgetTooSmall { required, budget });
        }
        Ok(TileCache {
            store,
            stats: OocStats::default(),
            map: HashMap::new(),
            resident: 0,
            cap: budget - baseline - reserved_bytes::<E>(tile),
            scratch: packed_b_bytes::<E>(tile),
            clock: 0,
            zero,
        })
    }

    /// Whether tile `key` holds anything but ⊕-identity: resident, or
    /// present in the store. A checked-out tile is not asked about.
    fn present(&self, key: (usize, usize)) -> bool {
        self.map.contains_key(&key) || self.store.present(key.0, key.1)
    }

    fn note_peak(&mut self) {
        let total = self.resident + self.scratch + self.store.resident_bytes();
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(total);
    }

    /// Write `entry` back to the store.
    fn spill(&mut self, key: (usize, usize), entry: &Resident<E>) -> Result<(), OocError> {
        self.stats.tiles_written += 1;
        self.stats.bytes_written += entry.bytes;
        let _io = span("io-wait");
        self.store.write(key.0, key.1, &entry.tile.view()).map_err(OocError::Store)
    }

    /// Evict least-recently-used entries until `need` more bytes fit,
    /// spilling dirty tiles back to the store.
    fn make_room(&mut self, need: u64) -> Result<(), OocError> {
        while self.resident + need > self.cap {
            // The floor's two cache slots hold the one checked-out tile and
            // the incoming one, so there is always something to evict.
            let (&victim, _) =
                self.map.iter().min_by_key(|(_, e)| e.stamp).expect("an evictable tile");
            let entry = self.map.remove(&victim).expect("victim exists");
            self.resident -= entry.bytes;
            if entry.dirty {
                self.spill(victim, &entry)?;
            }
        }
        Ok(())
    }

    /// Make `key` resident: fetch and verify it on a miss, or materialize
    /// it as fill-in — dirty, so it is stored when it leaves — if the store
    /// holds it as absent.
    fn ensure(&mut self, key: (usize, usize)) -> Result<(), OocError> {
        self.clock += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = self.clock;
            return Ok(());
        }
        let entry = if self.store.present(key.0, key.1) {
            let tile = {
                let _io = span("io-wait");
                self.store.read(key.0, key.1)?
            };
            let bytes = tile_bytes::<E>(tile.rows(), tile.cols());
            self.stats.tiles_read += 1;
            self.stats.bytes_read += bytes;
            Resident { tile, bytes, dirty: false, stamp: self.clock }
        } else {
            let (rows, cols) = self.store.tile_dims(key.0, key.1);
            let tile = Matrix::filled(rows, cols, self.zero);
            Resident { tile, bytes: tile_bytes::<E>(rows, cols), dirty: true, stamp: self.clock }
        };
        self.make_room(entry.bytes)?;
        self.resident += entry.bytes;
        self.map.insert(key, entry);
        self.note_peak();
        Ok(())
    }

    /// Ask the store to start reading `key` if it is stored and not
    /// resident.
    fn prefetch(&mut self, key: (usize, usize)) {
        if !self.map.contains_key(&key) && self.store.present(key.0, key.1) {
            self.store.prefetch(key.0, key.1);
        }
    }

    /// Run kernel work `f` on tile `key`, marking the tile dirty if `f`
    /// writes it.
    fn run(
        &mut self,
        key: (usize, usize),
        access: Access,
        f: impl FnOnce(&mut ViewMut<'_, E>),
    ) -> Result<(), OocError> {
        self.ensure(key)?;
        let entry = self.map.get_mut(&key).expect("tile was just made resident");
        f(&mut entry.tile.view_mut());
        entry.dirty |= access == Access::Write;
        Ok(())
    }

    /// Check tile `key` out of the map so it can be borrowed beside the
    /// tiles later calls make resident. It stays charged to the budget and
    /// must come back through [`TileCache::restore`].
    fn take(&mut self, key: (usize, usize)) -> Result<Resident<E>, OocError> {
        self.ensure(key)?;
        Ok(self.map.remove(&key).expect("tile was just made resident"))
    }

    fn restore(&mut self, key: (usize, usize), entry: Resident<E>) {
        self.map.insert(key, entry);
    }

    /// Spill every dirty tile in slot order, wait for the store and hand
    /// back the counters.
    fn finish(mut self) -> Result<OocStats, OocError> {
        let mut keys: Vec<_> = self.map.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let entry = self.map.remove(&key).expect("key exists");
            self.resident -= entry.bytes;
            if entry.dirty {
                self.spill(key, &entry)?;
            }
        }
        let _io = span("io-wait");
        self.store.flush()?;
        Ok(self.stats)
    }
}

// ---------------------------------------------------------------------------
// Ingest / export
// ---------------------------------------------------------------------------

/// Write the distance matrix of `g` into the `f32` store one tile row at a
/// time, laid out as [`Graph::to_dense`] lays it out (`D[i][i] = min(0,
/// w(i,i))`, `D[i][j] = w(i,j)`, `∞` elsewhere) without building it: each
/// strip of [`Graph::tile_rows`] writes its diagonal tile and every tile
/// that received an edge. Every other tile of the row is all ∞ and is
/// declared absent.
///
/// # Panics
/// Panics if `g` does not have `store.n()` vertices.
pub fn ingest(store: &mut dyn TileStore<f32>, g: &Graph) -> Result<(), OocError> {
    let (n, t) = (store.n(), store.tile());
    assert_eq!(g.n(), n, "ingest: graph order != store dimension");
    let mut tile_rows = g.tile_rows(t);
    for ti in 0..tile_rows.tiles_per_side() {
        let (strip, present) = tile_rows.row(ti);
        for (tj, &present) in present.iter().enumerate() {
            if present {
                let (rows, cols) = store.tile_dims(ti, tj);
                store.write(ti, tj, &strip.subview(0, tj * t, rows, cols))?;
            } else {
                store.declare_absent(ti, tj);
            }
        }
    }
    store.flush()?;
    Ok(())
}

/// The matrix held in `store`: a fresh `S::zero()` matrix with every
/// present tile read into place.
pub fn export<S: Semiring>(
    store: &mut dyn TileStore<S::Elem>,
) -> Result<Matrix<S::Elem>, OocError> {
    let (n, t, nb) = (store.n(), store.tile(), store.tiles_per_side());
    let mut out = Matrix::filled(n, n, S::zero());
    for ti in 0..nb {
        for tj in 0..nb {
            if store.present(ti, tj) {
                out.set_block(ti * t, tj * t, &store.read(ti, tj)?.view());
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Out-of-core blocked Floyd-Warshall over the tiles in `store`, in place.
///
/// Per block-iteration `k`: DiagUpdate closes tile `(k,k)`; PanelUpdate
/// fixes block row and column `k`; then every remaining tile folds
/// `C(i,j) ⊕= A(i,k) ⊗ B(k,j)`. All four kernels run in place on the cached
/// dense tiles; the only copy per update is the pack of `B(k,j)`. Same
/// kernels, same per-element ⊕ fold order as
/// [`crate::fw_blocked::fw_blocked_threads`], hence bit-identical results.
///
/// Tiles the store holds as absent are skipped, which is exact because ⊕
/// is idempotent: PanelUpdate leaves an absent `(k,j)` or `(i,k)` all
/// `S::zero()`, and a product with an absent `A(i,k)` or `B(k,j)` adds
/// nothing. An absent `(k,k)` or `C(i,j)` is materialized when it is
/// updated, as fill-in.
///
/// # Panics
/// Panics if `S` is not ⊕-idempotent (same precondition as blocked FW).
pub fn ooc_fw<S: Semiring>(
    store: &mut dyn TileStore<S::Elem>,
    cfg: &OocConfig,
) -> Result<OocStats, OocError>
where
    S::Elem: TileElem,
{
    assert!(
        S::IDEMPOTENT_ADD,
        "out-of-core FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    let nb = store.tiles_per_side();
    // The one persistent packed operand, sized up front for a full tile so
    // that no later repack grows it.
    let side = store.tile().min(store.n());
    let mut pb = PackedB::pack::<S>(&Matrix::filled(side, side, S::zero()).view());
    let mut cache = TileCache::<S::Elem>::new(store, cfg.budget_bytes, S::zero())?;

    for k in 0..nb {
        // ----- DiagUpdate -----
        {
            let _p = span("DiagUpdate");
            cache.run((k, k), Access::Write, |d| fw_closure::<S>(d))?;
        }

        // The present tiles of block row and column k: the operands of
        // both later phases. Neither phase materializes one of them.
        let cols: Vec<usize> = (0..nb).filter(|&j| j != k && cache.present((k, j))).collect();
        let rows: Vec<usize> = (0..nb).filter(|&i| i != k && cache.present((i, k))).collect();

        // ----- PanelUpdate: block row k, then block column k -----
        let panel_update = span("PanelUpdate");
        let diag = cache.take((k, k))?;
        for (idx, &j) in cols.iter().enumerate() {
            if let Some(&jn) = cols.get(idx + 1) {
                cache.prefetch((k, jn));
            }
            cache.run((k, j), Access::Write, |c| panel_update_left::<S>(c, &diag.tile.view()))?;
        }
        for (idx, &i) in rows.iter().enumerate() {
            if let Some(&inx) = rows.get(idx + 1) {
                cache.prefetch((inx, k));
            }
            cache.run((i, k), Access::Write, |c| panel_update_right::<S>(c, &diag.tile.view()))?;
        }
        cache.restore((k, k), diag);
        drop(panel_update);

        // ----- MinPlus outer product -----
        let _p = span("OuterUpdate");
        for (ii, &i) in rows.iter().enumerate() {
            let a = cache.take((i, k))?;
            for (jj, &j) in cols.iter().enumerate() {
                // Double buffer: ask the store for the next C tile of the
                // sweep while this one multiplies.
                let next = cols
                    .get(jj + 1)
                    .map(|&jn| (i, jn))
                    .or_else(|| rows.get(ii + 1).map(|&inx| (inx, k)));
                if let Some(next) = next {
                    cache.prefetch(next);
                }
                cache.run((k, j), Access::Read, |b| {
                    let _pack = span("pack");
                    pb.repack::<S>(&b.as_view())
                })?;
                cache.run((i, j), Access::Write, |c| {
                    gemm_packed_threads::<S>(c, &a.tile.view(), &pb, cfg.threads)
                })?;
                cache.stats.outer_gemms += 1;
            }
            cache.restore((i, k), a);
        }
    }

    cache.finish()
}

/// [`ingest`] `g` into the empty `f32` store `store`, run min-plus
/// [`ooc_fw`], and [`export`] the closure — the first and last step under
/// `ingest` and `export` spans. The body of the `ooc` solver.
pub fn solve_in_store(
    g: &Graph,
    store: &mut dyn TileStore<f32>,
    cfg: &OocConfig,
) -> Result<(Matrix<f32>, OocStats), OocError> {
    {
        let _s = span("ingest");
        ingest(store, g)?;
    }
    let stats = ooc_fw::<MinPlusF32>(store, cfg)?;
    let _s = span("export");
    Ok((export::<MinPlusF32>(store)?, stats))
}
