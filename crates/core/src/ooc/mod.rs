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
//!   persistent [`srgemm::gemm::PackedB`] once per block-iteration;
//! * [`ooc_fw`] walks the blocked-FW schedule (Algorithm 2: DiagUpdate →
//!   PanelUpdate → per-tile MinPlus outer product, column by column) under
//!   an explicit host-RAM budget, running the kernels of
//!   [`mod@crate::fw_blocked`] in place on views of the tiles in a cache,
//!   spilling dirty ones back to the store. The diagonal tile is closed by
//!   blocked FW's own DiagUpdate, in blocks of 64 when it is wider;
//! * which tiles hold anything is the solve's [`BlockPresence`] map at the
//!   tile width: a tile it holds clear is all ⊕-identity, is never stored
//!   and is skipped as an operand; only fill-in materializes it. That makes
//!   the same loop the block-sparse FW of the paper's §7 direction
//!   (supernodal APSP, its reference \[31\]): on clustered or banded graphs
//!   it multiplies only the tiles that hold paths. [`ingest`] reads the
//!   [`Graph`] one tile row at a time, writes the tiles that received an
//!   edge and returns their map, so the `n × n` matrix exists only when
//!   [`export`] builds the answer;
//! * the [`FileStore`] keeps the tiles in one unlinked temp file and moves
//!   a slot on the solving thread when the cache misses or spills, straight
//!   between its one slot buffer and the evicted tile's matrix, so no
//!   transfer allocates. Unlike the paper's PCIe tier, the transfer does
//!   not overlap the GEMM, so the `ooc` price adds its disk term to the
//!   compute term instead of taking the larger of the two.
//!
//! Where the time goes is a trace, not a counter: [`ooc_fw`] opens the
//! paper's phase spans per iteration, `pack` around each repack of `B(k, j)`
//! and `io-wait` around every store read and write-back, on the calling
//! thread's `apsp_trace` recorder. The blocked closure of a wide diagonal
//! tile runs [`apsp_trace::muted`], so its own phases book under DiagUpdate.
//! [`OocStats`] holds counts only.
//!
//! Budget semantics: the budget splits into a reserve — the packed `B`
//! scratch plus two tile slots, for the file store's slot buffer and the
//! one tile in transit beside the cache — and the cache, which gets the
//! rest. `peak resident` samples `cached tiles + the packed B scratch`
//! between cache operations and never exceeds [`OocConfig::budget_bytes`];
//! a budget below [`staged_budget_floor`] fails up front with
//! [`OocError::BudgetTooSmall`] — the same `{required, budget}` shape as
//! the device tier's `Oom {requested, available}`.

pub mod store;

use std::collections::HashMap;

use apsp_graph::Graph;
use apsp_trace::span;
use srgemm::gemm::{gemm_packed_threads, pad_quantum};
use srgemm::matrix::{Matrix, ViewMut};
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::semiring::Semiring;
use srgemm::MinPlusF32;

use crate::fw_blocked::{diag_update, QuadrantUpdate, CLOSURE_WIDTH};
use crate::presence::BlockPresence;

pub use store::{tile_bytes, FileStore, StoreError, TileElem, TileStore};

/// Out-of-core driver configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OocConfig {
    /// Host-RAM ceiling for the solve (cache + scratch + transfer slots).
    pub budget_bytes: u64,
    /// Kernel threads each outer-product update may use.
    pub threads: usize,
}

impl OocConfig {
    /// A budget-limited, single-threaded config.
    pub fn with_budget(budget_bytes: u64) -> Self {
        OocConfig { budget_bytes, threads: 1 }
    }
}

/// Typed failures of the out-of-core driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OocError {
    /// The budget cannot hold even the minimal working set. Mirrors the
    /// device tier's `Oom { requested, available }`: `required` is the full
    /// up-front floor ([`staged_budget_floor`]), not the increment that
    /// happened to overflow.
    BudgetTooSmall {
        /// Minimum bytes the solve needs resident.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The tile store failed (I/O error, bad geometry, corrupt tile).
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
/// ([`TileStore::tile`], [`TileStore::tiles_per_side`]) and its budget the
/// caller's [`OocConfig`].
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
    /// Peak host-RAM residency observed between cache operations (cache +
    /// scratch).
    pub peak_resident_bytes: u64,
}

/// Bytes of the driver's one persistent packed `B` operand: a `tile × tile`
/// [`srgemm::gemm::PackedB`], its rows padded to the kernel's [`pad_quantum`] stride.
fn packed_b_bytes<E: TileElem>(tile: usize) -> u64 {
    (tile * tile.next_multiple_of(pad_quantum::<E>()) * E::BYTES) as u64
}

/// The part of a staged working set the tile cache may never use: the
/// packed `B` scratch and two tile slots — the slot buffer a file store
/// moves every tile through, and the one tile in transit beside the cache
/// (evicted, and being encoded or refilled with the incoming tile).
fn reserved_bytes<E: TileElem>(tile: usize) -> u64 {
    packed_b_bytes::<E>(tile) + 2 * tile_bytes::<E>(tile, tile)
}

/// Minimum [`OocConfig::budget_bytes`] a staged solve over `tile × tile`
/// tiles of `E` can run under: the reserve plus five cache slots. Two would
/// run — the tile being updated and the one borrowed beside it (the
/// diagonal during PanelUpdate, `A(i, k)` during the outer product) — but
/// the floor picks the tile size, and a lower one makes [`choose_tile`]
/// pick tiles that straddle the components of a clustered graph (see its
/// test). The planner, the solver adapter and [`ooc_fw`] all use this one
/// number.
pub fn staged_budget_floor<E: TileElem>(tile: usize) -> u64 {
    reserved_bytes::<E>(tile) + 5 * tile_bytes::<E>(tile, tile)
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
/// budget — its stored size. `spent` marks a tile the sweep is done with
/// for the current block-iteration, until it is used again.
struct Resident<E> {
    tile: Matrix<E>,
    bytes: u64,
    dirty: bool,
    spent: bool,
    stamp: u64,
}

/// Whether kernel work handed to [`TileCache::run`] modifies its tile.
#[derive(PartialEq)]
enum Access {
    Read,
    Write,
}

/// Budget-bounded cache over dense tiles of `store`, and the solve's
/// counters. It evicts the tiles the sweep has marked spent
/// ([`TileCache::retire`]) first, then the least recently used; stamps are
/// unique, so the victim, and with it the store traffic, is exact. A tile
/// is resident while it is in `map` *or* checked out with
/// [`TileCache::take`]; checked-out tiles cannot be evicted. A tile that
/// `blocks` holds clear is not in the store: it is materialized as all
/// `zero` on first use, and its bit set.
struct TileCache<'s, E> {
    store: &'s mut dyn TileStore<E>,
    blocks: &'s mut BlockPresence,
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
    fn new(
        store: &'s mut dyn TileStore<E>,
        blocks: &'s mut BlockPresence,
        budget: u64,
        zero: E,
    ) -> Result<Self, OocError> {
        let tile = store.tile();
        let required = staged_budget_floor::<E>(tile);
        if budget < required {
            return Err(OocError::BudgetTooSmall { required, budget });
        }
        Ok(TileCache {
            store,
            blocks,
            stats: OocStats::default(),
            map: HashMap::new(),
            resident: 0,
            cap: budget - reserved_bytes::<E>(tile),
            scratch: packed_b_bytes::<E>(tile),
            clock: 0,
            zero,
        })
    }

    fn note_peak(&mut self) {
        let total = self.resident + self.scratch;
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(total);
    }

    /// Write `entry` back to the store.
    fn spill(&mut self, key: (usize, usize), entry: &Resident<E>) -> Result<(), OocError> {
        self.stats.tiles_written += 1;
        self.stats.bytes_written += entry.bytes;
        let _io = span("io-wait");
        self.store.write(key.0, key.1, &entry.tile.view()).map_err(OocError::Store)
    }

    /// Evict until `need` more bytes fit — spent tiles first, then the
    /// least recently used — spilling dirty ones back to the store. Hands
    /// back the last victim's matrix: the tile in transit.
    fn make_room(&mut self, need: u64) -> Result<Option<Matrix<E>>, OocError> {
        let mut victim_tile = None;
        while self.resident + need > self.cap {
            // The floor's cache slots hold the one checked-out tile and the
            // incoming one, so there is always something to evict.
            let (&victim, _) = self
                .map
                .iter()
                .min_by_key(|(_, e)| (!e.spent, e.stamp))
                .expect("an evictable tile");
            let entry = self.map.remove(&victim).expect("victim exists");
            self.resident -= entry.bytes;
            if entry.dirty {
                self.spill(victim, &entry)?;
            }
            victim_tile = Some(entry.tile);
        }
        Ok(victim_tile)
    }

    /// Make `key` resident: fetch and verify it on a miss, or materialize
    /// it as fill-in — dirty, so it is stored when it leaves — if `blocks`
    /// holds it clear. Room is made first, so the incoming tile lands
    /// in the victim's allocation whenever the two have the same shape.
    fn ensure(&mut self, key: (usize, usize)) -> Result<(), OocError> {
        self.clock += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = self.clock;
            e.spent = false;
            return Ok(());
        }
        let (rows, cols) = self.store.tile_dims(key.0, key.1);
        let bytes = tile_bytes::<E>(rows, cols);
        // a victim of another shape is freed before the new tile is made
        let victim = self.make_room(bytes)?.filter(|m| (m.rows(), m.cols()) == (rows, cols));
        let mut tile = victim.unwrap_or_else(|| Matrix::filled(rows, cols, self.zero));
        let stored = self.blocks.get(key.0, key.1);
        if stored {
            let _io = span("io-wait");
            self.store.read_into(key.0, key.1, &mut tile.view_mut())?;
            self.stats.tiles_read += 1;
            self.stats.bytes_read += bytes;
        } else {
            tile.view_mut().fill(self.zero);
            self.blocks.set(key.0, key.1);
        }
        self.resident += bytes;
        let entry = Resident { tile, bytes, dirty: !stored, spent: false, stamp: self.clock };
        self.map.insert(key, entry);
        self.note_peak();
        Ok(())
    }

    /// Mark resident tile `key` spent: the sweep is done with it for this
    /// block-iteration, so it goes before every tile still in use.
    fn retire(&mut self, key: (usize, usize)) {
        if let Some(e) = self.map.get_mut(&key) {
            e.spent = true;
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

    /// Spill every dirty tile in slot order and hand back the counters.
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
/// that received an edge. Returns the map of the written tiles: every
/// other tile is all ∞ and is not stored.
///
/// # Panics
/// Panics if `g` does not have `store.n()` vertices.
pub fn ingest(store: &mut dyn TileStore<f32>, g: &Graph) -> Result<BlockPresence, OocError> {
    let (n, t) = (store.n(), store.tile());
    assert_eq!(g.n(), n, "ingest: graph order != store dimension");
    let mut tile_rows = g.tile_rows(t);
    let mut blocks = BlockPresence::empty(tile_rows.tiles_per_side());
    for ti in 0..tile_rows.tiles_per_side() {
        let (strip, present) = tile_rows.row(ti);
        for tj in (0..present.len()).filter(|&tj| present[tj]) {
            let (rows, cols) = store.tile_dims(ti, tj);
            store.write(ti, tj, &strip.subview(0, tj * t, rows, cols))?;
            blocks.set(ti, tj);
        }
    }
    Ok(blocks)
}

/// The matrix held in `store`: a fresh `S::zero()` matrix with every tile
/// `blocks` holds read into place.
///
/// # Panics
/// Panics if `blocks` is not a map of `store`'s tile grid.
pub fn export<S: Semiring>(
    store: &mut dyn TileStore<S::Elem>,
    blocks: &BlockPresence,
) -> Result<Matrix<S::Elem>, OocError> {
    let (n, t, nb) = (store.n(), store.tile(), store.tiles_per_side());
    assert_eq!(blocks.nb(), nb, "presence map of another tile grid than the store's");
    let mut out = Matrix::filled(n, n, S::zero());
    for ti in 0..nb {
        for tj in 0..nb {
            if blocks.get(ti, tj) {
                let (rows, cols) = store.tile_dims(ti, tj);
                store.read_into(ti, tj, &mut out.subview_mut(ti * t, tj * t, rows, cols))?;
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
/// Per block-iteration `k`: DiagUpdate closes tile `(k,k)` as blocked FW
/// closes its diagonal block (one FW triple loop up to 64 wide, the
/// blocked loop at width 64 beyond); PanelUpdate fixes block row and
/// column `k`; then every remaining tile folds
/// `C(i,j) ⊕= A(i,k) ⊗ B(k,j)`, column by column, so each `B(k,j)` is
/// packed once. Every kernel runs in place on the cached dense tiles; the
/// only copy per update is that pack. A run makes the kernel calls of
/// [`crate::fw_blocked::fw_blocked_threads`] at block size `tile`, and its
/// result is bit-identical to that.
///
/// Block row and column `k` are the tiles `blocks`, the map of `store`,
/// holds set; the clear ones are skipped, exact as in blocked FW. A clear
/// `C(i,j)` is materialized as fill-in when it is updated, and its bit set:
/// over iteration `k` these are the bits [`BlockPresence::close`] sets.
///
/// # Panics
/// Panics if `S` is not ⊕-idempotent (same precondition as blocked FW), or
/// if `blocks` is not a map of `store`'s tile grid.
pub fn ooc_fw<S: Semiring>(
    store: &mut dyn TileStore<S::Elem>,
    blocks: &mut BlockPresence,
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
    assert_eq!(blocks.nb(), nb, "presence map of another tile grid than the store's");
    // The one persistent packed operand, sized up front for a full tile so
    // that no later pack grows it: each `B(k, j)` is repacked into it, and
    // so is every panel of a diagonal tile's blocked closure.
    let side = store.tile().min(store.n());
    let mut quadrants = QuadrantUpdate::<S>::new(CLOSURE_WIDTH);
    quadrants.packed.repack::<S>(&Matrix::filled(side, side, S::zero()).view());
    let mut cache = TileCache::<S::Elem>::new(store, blocks, cfg.budget_bytes, S::zero())?;

    for k in 0..nb {
        // ----- DiagUpdate: the tile's own phases book under this span -----
        {
            let _p = span("DiagUpdate");
            cache.run((k, k), Access::Write, |d| {
                diag_update::<S>(d, cfg.threads, &mut quadrants)
            })?;
        }

        // The present tiles of block row and column k: the operands of
        // both later phases. Neither phase materializes one of them.
        let cols: Vec<usize> = (0..nb).filter(|&j| j != k && cache.blocks.get(k, j)).collect();
        let rows: Vec<usize> = (0..nb).filter(|&i| i != k && cache.blocks.get(i, k)).collect();

        // ----- PanelUpdate: block row k, then block column k -----
        let panel_update = span("PanelUpdate");
        let diag = cache.take((k, k))?;
        for &j in &cols {
            cache.run((k, j), Access::Write, |c| panel_update_left::<S>(c, &diag.tile.view()))?;
        }
        for &i in &rows {
            cache.run((i, k), Access::Write, |c| panel_update_right::<S>(c, &diag.tile.view()))?;
        }
        cache.restore((k, k), diag);
        cache.retire((k, k));
        drop(panel_update);

        // ----- MinPlus outer product, column by column -----
        let _p = span("OuterUpdate");
        for &j in &cols {
            cache.run((k, j), Access::Read, |b| {
                let _pack = span("pack");
                quadrants.packed.repack::<S>(&b.as_view())
            })?;
            cache.retire((k, j));
            for &i in &rows {
                let a = cache.take((i, k))?;
                cache.run((i, j), Access::Write, |c| {
                    gemm_packed_threads::<S>(c, &a.tile.view(), &quadrants.packed, cfg.threads)
                })?;
                cache.restore((i, k), a);
                cache.retire((i, j));
                cache.stats.outer_gemms += 1;
            }
        }
    }

    cache.finish()
}

/// [`ingest`] `g` into the empty `f32` store `store`, run min-plus
/// [`ooc_fw`], and [`export`] the closure — the first and last step under
/// `ingest` and `export` spans. Also returns the solve's map of the tiles
/// it materialized. The body of the `ooc` solver.
pub fn solve_in_store(
    g: &Graph,
    store: &mut dyn TileStore<f32>,
    cfg: &OocConfig,
) -> Result<(Matrix<f32>, OocStats, BlockPresence), OocError> {
    let mut blocks = {
        let _s = span("ingest");
        ingest(store, g)?
    };
    let stats = ooc_fw::<MinPlusF32>(store, &mut blocks, cfg)?;
    // The slot buffer has sat since ingest under everything the solve
    // allocated; regrown by export, it reuses the freed cache's memory, and
    // the process peaks about a slot lower.
    store.release_scratch();
    let _s = span("export");
    Ok((export::<MinPlusF32>(store, &blocks)?, stats, blocks))
}
