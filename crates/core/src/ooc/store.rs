//! Tile stores: where out-of-core FW keeps the matrix when it doesn't fit
//! in RAM — and the one module that knows how a tile becomes bytes.
//!
//! A [`TileStore`] holds the `⌈n/t⌉ × ⌈n/t⌉` grid of tiles of the distance
//! matrix. The slot of tile `(ti, tj)` is its `rb × cb` elements, row-major
//! little-endian, followed by a 64-bit checksum of those bytes; `rb` and
//! `cb` follow from `(n, tile, ti, tj)`, so a slot carries no header of its
//! own. The layout is plain on purpose: a tile is the `B` operand of a GEMM
//! in one block-iteration out of `⌈n/t⌉` and an `A`/`C` operand in all
//! others, so the driver wants dense tiles it can update in place, and
//! packs the one `B` it needs per product itself.
//!
//! The trait moves opaque bytes; [`read_tile`] and [`write_tile`] are the
//! typed doors the driver uses. Every read verifies the checksum — a torn
//! write, a stomped payload or a never-written slot is a typed
//! [`StoreError::CorruptTile`], never a decoded tile.
//!
//! A tile may also be *declared absent* ([`TileStore::declare_absent`]):
//! entirely ⊕-identity, so it is never stored and [`super::ooc_fw`] never
//! reads it until a write materializes it. Absence lives in RAM only — a
//! store that is reopened has forgotten it, and a read of such a slot fails
//! as a never-written one does.
//!
//! Two implementations:
//!
//! * [`MemStore`] — encoded tiles in a `Vec`; the test fake and the
//!   in-memory baseline the staged path is compared against.
//! * [`FileStore`] — one file of fixed-capacity slots behind a background
//!   I/O thread, so tile reads (prefetch) and write-backs overlap the
//!   GEMM. Requests are processed FIFO, which makes a read of a slot
//!   observe every write queued before it — the driver's read-after-write
//!   guarantee.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use srgemm::matrix::{Matrix, View};

/// Double-buffer depth of a [`FileStore`]: at most this many prefetch reads
/// and this many queued writes are in flight, so its I/O buffers never hold
/// more than `2 · IO_DEPTH + 1` slots (the `+ 1` is a demand read).
pub const IO_DEPTH: usize = 2;

/// Bytes of the per-slot checksum that follows a tile's payload.
const CHECKSUM_BYTES: usize = 8;

/// An element type a tile store can hold: fixed-width little-endian
/// encoding, independent of host endianness.
pub trait TileElem: Copy {
    /// Encoded size in bytes.
    const BYTES: usize = std::mem::size_of::<Self>();
    /// Dtype name (`"f32"`, `"u16"`, …). Its first letter is the dtype code
    /// the store-file header carries beside the width, so that same-width
    /// dtypes (i32 and f32 are both 4 B) can never be silently
    /// reinterpreted as each other.
    const DTYPE: &'static str;
    /// Write the little-endian encoding of `self` into `out`
    /// (`out.len() == BYTES`).
    fn write_le(self, out: &mut [u8]);
    /// Decode from exactly [`TileElem::BYTES`] bytes.
    fn read_le(b: &[u8]) -> Self;
}

macro_rules! impl_tile_elem {
    ($($t:ty),*) => {
        $(impl TileElem for $t {
            const DTYPE: &'static str = stringify!($t);
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("chunk is BYTES long"))
            }
        })*
    };
}

impl_tile_elem!(f32, f64, u16, i32);

/// Stored size of a `rows × cols` tile of `E`: payload plus checksum. The
/// driver charges a resident tile this much against its budget, and a
/// [`FileStore`] reserves `tile_bytes(t, t)` per slot.
pub fn tile_bytes<E: TileElem>(rows: usize, cols: usize) -> u64 {
    (rows * cols * E::BYTES + CHECKSUM_BYTES) as u64
}

/// Checksum of a slot's payload: four seeded 64-bit lanes of wrapping word
/// sums (a loop the compiler vectorises), mixed once at the end with the
/// length. The seeds make an all-zero slot — one that was never written —
/// fail instead of summing to its own zero checksum field.
fn checksum(payload: &[u8]) -> u64 {
    const LANES: usize = 4;
    let mut lanes: [u64; LANES] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0x27D4_EB2F_1656_67C5,
    ];
    let mut fold = |block: &[u8]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane.wrapping_add(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
    };
    let mut blocks = payload.chunks_exact(8 * LANES);
    for block in &mut blocks {
        fold(block);
    }
    let mut tail = [0u8; 8 * LANES];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    fold(&tail);
    lanes.iter().fold(payload.len() as u64, |h, &lane| {
        (h.rotate_left(23) ^ lane).wrapping_mul(0xFF51_AFD7_ED55_8CCD)
    })
}

/// Serialize `tile` into a fresh slot buffer: rows back to back, then the
/// checksum.
fn encode<E: TileElem>(tile: &View<'_, E>) -> Vec<u8> {
    let row_bytes = tile.cols() * E::BYTES;
    let payload = tile.rows() * row_bytes;
    let mut out = vec![0u8; payload + CHECKSUM_BYTES];
    for (r, dst) in out[..payload].chunks_exact_mut(row_bytes).enumerate() {
        for (chunk, &v) in dst.chunks_exact_mut(E::BYTES).zip(tile.row(r)) {
            v.write_le(chunk);
        }
    }
    let sum = checksum(&out[..payload]);
    out[payload..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Inverse of [`encode`] for a `rows × cols` tile; `None` if the length or
/// the checksum disagrees with the payload.
fn decode<E: TileElem>(bytes: &[u8], rows: usize, cols: usize) -> Option<Matrix<E>> {
    let payload = rows * cols * E::BYTES;
    if bytes.len() != payload + CHECKSUM_BYTES {
        return None;
    }
    let (body, sum) = bytes.split_at(payload);
    if sum != checksum(body).to_le_bytes() {
        return None;
    }
    let data = body.chunks_exact(E::BYTES).map(E::read_le).collect();
    Some(Matrix::from_vec(rows, cols, data))
}

/// Fetch tile `(ti, tj)` of `store` as a dense matrix, verifying its
/// checksum.
///
/// # Panics
/// Panics if `store` was created for a different element type than `E`.
pub fn read_tile<E: TileElem>(
    store: &mut dyn TileStore,
    ti: usize,
    tj: usize,
) -> Result<Matrix<E>, StoreError> {
    assert_eq!(store.dtype(), E::DTYPE, "tile store element type mismatch");
    let (rows, cols) = store.tile_dims(ti, tj);
    let bytes = store.read(ti, tj)?;
    decode(&bytes, rows, cols).ok_or(StoreError::CorruptTile { ti, tj })
}

/// Queue `tile` as the new contents of tile `(ti, tj)` of `store`.
///
/// # Panics
/// Panics if `store` was created for a different element type than `E`, or
/// `tile` does not have the dimensions of tile `(ti, tj)`.
pub fn write_tile<E: TileElem>(
    store: &mut dyn TileStore,
    ti: usize,
    tj: usize,
    tile: &View<'_, E>,
) -> Result<(), StoreError> {
    assert_eq!(store.dtype(), E::DTYPE, "tile store element type mismatch");
    assert_eq!((tile.rows(), tile.cols()), store.tile_dims(ti, tj), "tile shape mismatch");
    store.write(ti, tj, encode(tile))
}

/// Typed failures from a [`TileStore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure (`op` names the operation that failed).
    Io {
        /// Operation that failed ("open", "read", "write", ...).
        op: &'static str,
        /// Stringified `io::Error`.
        detail: String,
    },
    /// The store file's own header is wrong (bad magic, dtype, a geometry
    /// that overflows or contradicts the file length — e.g. a truncated
    /// file).
    BadHeader {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A tile that was never written was read.
    MissingTile {
        /// Block-row index.
        ti: usize,
        /// Block-column index.
        tj: usize,
    },
    /// A slot's bytes do not match their checksum: a torn or stomped write,
    /// or a slot of a file store that was never written.
    CorruptTile {
        /// Block-row index.
        ti: usize,
        /// Block-column index.
        tj: usize,
    },
    /// The store was used after its I/O worker shut down.
    WorkerGone,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "tile store {op} failed: {detail}"),
            StoreError::BadHeader { detail } => write!(f, "bad tile store header: {detail}"),
            StoreError::MissingTile { ti, tj } => {
                write!(f, "tile ({ti}, {tj}) was never written")
            }
            StoreError::CorruptTile { ti, tj } => {
                write!(f, "tile ({ti}, {tj}) is corrupt (checksum mismatch)")
            }
            StoreError::WorkerGone => write!(f, "tile store I/O worker is gone"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str, e: std::io::Error) -> StoreError {
    StoreError::Io { op, detail: e.to_string() }
}

/// Byte-level storage for the tile grid of one square matrix.
///
/// Implementations move opaque slot bytes; [`read_tile`] / [`write_tile`]
/// own the encoding. Tiles are addressed by block coordinates `(ti, tj)`
/// with `ti, tj < ⌈n/t⌉`.
pub trait TileStore: Send {
    /// Matrix dimension.
    fn n(&self) -> usize;
    /// Tile side length `t`.
    fn tile(&self) -> usize;
    /// `"memory"` or `"file"` — surfaced in solver notes and bench labels.
    fn kind(&self) -> &'static str;
    /// [`TileElem::DTYPE`] of the element type the store was created for.
    fn dtype(&self) -> &'static str;
    /// Fetch the bytes of tile `(ti, tj)`, consuming any in-flight
    /// prefetch for it. Blocks until the bytes are available.
    fn read(&mut self, ti: usize, tj: usize) -> Result<Vec<u8>, StoreError>;
    /// Queue `bytes` as the new contents of tile `(ti, tj)`. May return
    /// before the bytes are durable; a later `read` of the same tile still
    /// observes them (FIFO), and [`TileStore::flush`] waits for all of them.
    fn write(&mut self, ti: usize, tj: usize, bytes: Vec<u8>) -> Result<(), StoreError>;
    /// Declare tile `(ti, tj)` entirely ⊕-identity: nothing is stored for
    /// it, and it is absent until the next `write` of it.
    fn declare_absent(&mut self, ti: usize, tj: usize);
    /// False for a tile declared absent and not written since. A slot that
    /// was neither written nor declared is present, and reading it is a
    /// typed error.
    fn present(&self, ti: usize, tj: usize) -> bool;
    /// Tiles of the grid that are [`TileStore::present`].
    fn present_tiles(&self) -> usize {
        let nb = self.tiles_per_side();
        (0..nb * nb).filter(|&s| self.present(s / nb, s % nb)).count()
    }
    /// Hint that `(ti, tj)` will be read soon. Best-effort; default no-op.
    fn prefetch(&mut self, _ti: usize, _tj: usize) {}
    /// Wait until every queued write has completed, surfacing any deferred
    /// write error.
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
    /// Host-RAM bytes this store currently holds (every tile for
    /// [`MemStore`]; in-flight read/write buffers for [`FileStore`]).
    /// Counted against the driver's budget.
    fn resident_bytes(&self) -> u64;
    /// Tiles per side, `⌈n/t⌉`.
    fn tiles_per_side(&self) -> usize {
        self.n().div_ceil(self.tile())
    }
    /// Row-major position of tile `(ti, tj)` in the grid.
    ///
    /// # Panics
    /// Panics if `(ti, tj)` is outside the grid.
    fn tile_index(&self, ti: usize, tj: usize) -> usize {
        let nb = self.tiles_per_side();
        assert!(ti < nb && tj < nb, "tile index ({ti}, {tj}) out of range");
        ti * nb + tj
    }
    /// `(rows, cols)` of tile `(ti, tj)`: `t × t` except on the ragged last
    /// block row and column. Panics like [`TileStore::tile_index`].
    fn tile_dims(&self, ti: usize, tj: usize) -> (usize, usize) {
        let (n, t, nb) = (self.n(), self.tile(), self.tiles_per_side());
        assert!(ti < nb && tj < nb, "tile index ({ti}, {tj}) out of range");
        (t.min(n - ti * t), t.min(n - tj * t))
    }
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// What a [`MemStore`] slot holds.
#[derive(Clone)]
enum Slot {
    Unwritten,
    Absent,
    Stored(Vec<u8>),
}

/// In-memory tile store: the whole grid of encoded tiles lives in host RAM.
/// This is the no-staging baseline — same driver, same slot format, zero
/// disk.
pub struct MemStore {
    n: usize,
    tile: usize,
    dtype: &'static str,
    slots: Vec<Slot>,
    resident: u64,
}

impl MemStore {
    /// Empty store for an `n × n` matrix in `tile × tile` tiles of element
    /// type `E`.
    ///
    /// # Panics
    /// Panics if `n` or `tile` is zero.
    pub fn new<E: TileElem>(n: usize, tile: usize) -> Self {
        assert!(n > 0 && tile > 0, "tile store dimensions must be positive");
        let nb = n.div_ceil(tile);
        MemStore { n, tile, dtype: E::DTYPE, slots: vec![Slot::Unwritten; nb * nb], resident: 0 }
    }

    /// Put `slot` at index `s`, releasing what it held.
    fn replace(&mut self, s: usize, slot: Slot) {
        if let Slot::Stored(old) = &self.slots[s] {
            self.resident -= old.len() as u64;
        }
        if let Slot::Stored(new) = &slot {
            self.resident += new.len() as u64;
        }
        self.slots[s] = slot;
    }
}

impl TileStore for MemStore {
    fn n(&self) -> usize {
        self.n
    }
    fn tile(&self) -> usize {
        self.tile
    }
    fn kind(&self) -> &'static str {
        "memory"
    }
    fn dtype(&self) -> &'static str {
        self.dtype
    }
    fn read(&mut self, ti: usize, tj: usize) -> Result<Vec<u8>, StoreError> {
        match &self.slots[self.tile_index(ti, tj)] {
            Slot::Stored(bytes) => Ok(bytes.clone()),
            Slot::Unwritten | Slot::Absent => Err(StoreError::MissingTile { ti, tj }),
        }
    }
    fn write(&mut self, ti: usize, tj: usize, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.replace(self.tile_index(ti, tj), Slot::Stored(bytes));
        Ok(())
    }
    fn declare_absent(&mut self, ti: usize, tj: usize) {
        self.replace(self.tile_index(ti, tj), Slot::Absent);
    }
    fn present(&self, ti: usize, tj: usize) -> bool {
        !matches!(self.slots[self.tile_index(ti, tj)], Slot::Absent)
    }
    fn resident_bytes(&self) -> u64 {
        self.resident
    }
}

// ---------------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------------

/// Store-file magic ("APsp Tile Store 2": dense checksummed slots).
const FILE_MAGIC: [u8; 8] = *b"APSPTS02";
/// Fixed file header: magic + elem field (u32) + n/tile/slot (u64 each).
/// The elem field packs the byte width in its low 16 bits and the dtype
/// code — `f`, `i` or `u`, the first letter of [`TileElem::DTYPE`] — in the
/// high 16, so a store written as i32 cannot be opened as f32 even though
/// both have 4-byte elements and identical slot capacities.
const FILE_HEADER: usize = 8 + 4 + 3 * 8;

/// The elem field a store of element type `E` carries.
fn elem_field<E: TileElem>() -> u32 {
    (E::BYTES as u32) | ((E::DTYPE.as_bytes()[0] as u32) << 16)
}

/// Slot capacity and total file length of an `n × n` store of `tile × tile`
/// tiles of `E`, or `None` if a dimension is zero or anything overflows —
/// header fields are outside input, so nothing here may wrap or panic.
fn file_geometry<E: TileElem>(n: usize, tile: usize) -> Option<(usize, u64)> {
    if n == 0 || tile == 0 {
        return None;
    }
    let slot = tile.checked_mul(tile)?.checked_mul(E::BYTES)?.checked_add(CHECKSUM_BYTES)?;
    let nb = n.div_ceil(tile);
    let len = nb.checked_mul(nb)?.checked_mul(slot)?.checked_add(FILE_HEADER)?;
    Some((slot, u64::try_from(len).ok()?))
}

/// Reply channel for an asynchronous slot read.
type ReadReply = Receiver<Result<Vec<u8>, StoreError>>;
/// Reply channel for an asynchronous slot write (bytes written).
type WriteReply = Receiver<Result<usize, StoreError>>;

enum IoReq {
    Read { off: u64, len: usize, reply: Sender<Result<Vec<u8>, StoreError>> },
    Write { off: u64, data: Vec<u8>, reply: Sender<Result<usize, StoreError>> },
}

fn io_worker(mut file: File, rx: Receiver<IoReq>) {
    while let Ok(req) = rx.recv() {
        match req {
            IoReq::Read { off, len, reply } => {
                let res = file
                    .seek(SeekFrom::Start(off))
                    .and_then(|_| {
                        let mut buf = vec![0u8; len];
                        file.read_exact(&mut buf)?;
                        Ok(buf)
                    })
                    .map_err(|e| io_err("read", e));
                let _ = reply.send(res);
            }
            IoReq::Write { off, data, reply } => {
                let res = file
                    .seek(SeekFrom::Start(off))
                    .and_then(|_| file.write_all(&data))
                    .map(|_| data.len())
                    .map_err(|e| io_err("write", e));
                let _ = reply.send(res);
            }
        }
    }
}

/// File-backed tile store: a header plus `⌈n/t⌉²` fixed-capacity slots, all
/// I/O performed by one background worker thread. `prefetch` issues an
/// asynchronous slot read; `write` queues the bytes and returns immediately
/// (bounded by [`IO_DEPTH`] outstanding writes, so queued buffers can never
/// exceed `IO_DEPTH · slot` bytes of RAM); the FIFO request queue makes any
/// read issued after a write to the same slot observe the new bytes.
pub struct FileStore {
    path: PathBuf,
    n: usize,
    tile: usize,
    dtype: &'static str,
    elem_bytes: usize,
    slot_cap: usize,
    tx: Option<Sender<IoReq>>,
    worker: Option<JoinHandle<()>>,
    inflight_reads: HashMap<(usize, usize), ReadReply>,
    pending_writes: Vec<(usize, WriteReply)>,
    resident: u64,
    /// Slots declared absent since this handle was made; never persisted.
    absent: Vec<bool>,
}

impl FileStore {
    /// Create a store file for an `n × n` matrix in `tile × tile` tiles of
    /// element type `E`.
    ///
    /// The file is created exclusively: an existing `path` — another
    /// solve's store, or a symlink planted under a predictable name in a
    /// shared temp dir — is a typed `open` error, never truncated or
    /// followed. A file this call created is removed again if sizing it
    /// fails. A zero or overflowing geometry is a typed `BadHeader`.
    pub fn create<E: TileElem>(path: &Path, n: usize, tile: usize) -> Result<Self, StoreError> {
        let (slot_cap, len) = file_geometry::<E>(n, tile).ok_or_else(|| StoreError::BadHeader {
            detail: format!("implausible geometry n={n} tile={tile}"),
        })?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let mut header = Vec::with_capacity(FILE_HEADER);
        header.extend_from_slice(&FILE_MAGIC);
        header.extend_from_slice(&elem_field::<E>().to_le_bytes());
        for v in [n as u64, tile as u64, slot_cap as u64] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        let sized = file.write_all(&header).and_then(|()| file.set_len(len));
        if let Err(e) = sized {
            drop(file);
            let _ = std::fs::remove_file(path);
            return Err(io_err("write", e));
        }
        Ok(Self::start::<E>(path.to_path_buf(), file, n, tile, slot_cap))
    }

    /// Open an existing store file, validating its header against the
    /// element type `E` and its length against the declared geometry. A
    /// truncated, foreign or hostile file fails here with a typed error
    /// rather than a panic mid-solve.
    pub fn open<E: TileElem>(path: &Path) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let mut header = [0u8; FILE_HEADER];
        file.read_exact(&mut header).map_err(|e| io_err("read", e))?;
        let bad = |detail: String| StoreError::BadHeader { detail };
        if header[..8] != FILE_MAGIC {
            return Err(bad("wrong magic".into()));
        }
        let elem = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let width = (elem & 0xFFFF) as usize;
        if width != E::BYTES {
            return Err(bad(format!("element width {width}, expected {}", E::BYTES)));
        }
        if elem != elem_field::<E>() {
            let code = char::from((elem >> 16) as u8).escape_default();
            return Err(bad(format!("element dtype {code}{}, expected {}", 8 * width, E::DTYPE)));
        }
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().expect("8 bytes"));
        let (n, tile, slot) = (u64_at(12), u64_at(20), u64_at(28));
        let implausible = || bad(format!("implausible geometry n={n} tile={tile} slot={slot}"));
        let (Ok(n), Ok(tile)) = (usize::try_from(n), usize::try_from(tile)) else {
            return Err(implausible());
        };
        let (slot_cap, want) = file_geometry::<E>(n, tile).ok_or_else(implausible)?;
        if slot != slot_cap as u64 {
            return Err(implausible());
        }
        let got = file.metadata().map_err(|e| io_err("open", e))?.len();
        if got < want {
            return Err(bad(format!("file is {got} bytes, geometry needs {want} (truncated?)")));
        }
        Ok(Self::start::<E>(path.to_path_buf(), file, n, tile, slot_cap))
    }

    fn start<E: TileElem>(path: PathBuf, file: File, n: usize, tile: usize, slot_cap: usize) -> Self {
        let (tx, rx) = channel();
        let worker = std::thread::Builder::new()
            .name("ooc-tile-io".into())
            .spawn(move || io_worker(file, rx))
            .expect("spawn tile-store I/O worker");
        FileStore {
            path,
            n,
            tile,
            dtype: E::DTYPE,
            elem_bytes: E::BYTES,
            slot_cap,
            tx: Some(tx),
            worker: Some(worker),
            inflight_reads: HashMap::new(),
            pending_writes: Vec::new(),
            resident: 0,
            absent: vec![false; n.div_ceil(tile).pow(2)],
        }
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// File offset and stored length of tile `(ti, tj)`.
    fn slot(&self, ti: usize, tj: usize) -> (u64, usize) {
        let off = FILE_HEADER + self.tile_index(ti, tj) * self.slot_cap;
        let (rows, cols) = self.tile_dims(ti, tj);
        (off as u64, rows * cols * self.elem_bytes + CHECKSUM_BYTES)
    }

    fn sender(&self) -> Result<&Sender<IoReq>, StoreError> {
        self.tx.as_ref().ok_or(StoreError::WorkerGone)
    }

    /// Ask the worker for tile `(ti, tj)`, charging its buffer as resident.
    fn request_read(&mut self, ti: usize, tj: usize) -> Result<ReadReply, StoreError> {
        let (off, len) = self.slot(ti, tj);
        let (reply, rx) = channel();
        self.sender()?
            .send(IoReq::Read { off, len, reply })
            .map_err(|_| StoreError::WorkerGone)?;
        self.resident += len as u64;
        Ok(rx)
    }

    /// Wait for the oldest queued write to land.
    fn retire_one_write(&mut self) -> Result<(), StoreError> {
        if self.pending_writes.is_empty() {
            return Ok(());
        }
        let (len, rx) = self.pending_writes.remove(0);
        self.resident -= len as u64;
        match rx.recv() {
            Ok(res) => res.map(|_| ()),
            Err(_) => Err(StoreError::WorkerGone),
        }
    }
}

impl TileStore for FileStore {
    fn n(&self) -> usize {
        self.n
    }
    fn tile(&self) -> usize {
        self.tile
    }
    fn kind(&self) -> &'static str {
        "file"
    }
    fn dtype(&self) -> &'static str {
        self.dtype
    }

    fn read(&mut self, ti: usize, tj: usize) -> Result<Vec<u8>, StoreError> {
        let rx = match self.inflight_reads.remove(&(ti, tj)) {
            Some(rx) => rx,
            None => self.request_read(ti, tj)?,
        };
        let res = rx.recv().map_err(|_| StoreError::WorkerGone)?;
        self.resident -= self.slot(ti, tj).1 as u64;
        res
    }

    fn write(&mut self, ti: usize, tj: usize, bytes: Vec<u8>) -> Result<(), StoreError> {
        let (off, len) = self.slot(ti, tj);
        assert_eq!(bytes.len(), len, "tile ({ti}, {tj}) has the wrong stored length");
        // Bound queued-write RAM at IO_DEPTH · slot.
        while self.pending_writes.len() >= IO_DEPTH {
            self.retire_one_write()?;
        }
        let (reply, rx) = channel();
        self.sender()?
            .send(IoReq::Write { off, data: bytes, reply })
            .map_err(|_| StoreError::WorkerGone)?;
        self.resident += len as u64;
        self.pending_writes.push((len, rx));
        let s = self.tile_index(ti, tj);
        self.absent[s] = false;
        Ok(())
    }

    fn declare_absent(&mut self, ti: usize, tj: usize) {
        let s = self.tile_index(ti, tj);
        self.absent[s] = true;
    }

    fn present(&self, ti: usize, tj: usize) -> bool {
        !self.absent[self.tile_index(ti, tj)]
    }

    fn prefetch(&mut self, ti: usize, tj: usize) {
        // Keep read-ahead bounded by the same depth as writes.
        if self.inflight_reads.contains_key(&(ti, tj)) || self.inflight_reads.len() >= IO_DEPTH {
            return;
        }
        if let Ok(rx) = self.request_read(ti, tj) {
            self.inflight_reads.insert((ti, tj), rx);
        }
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        let mut first_err = Ok(());
        while !self.pending_writes.is_empty() {
            if let Err(e) = self.retire_one_write() {
                if first_err.is_ok() {
                    first_err = Err(e);
                }
            }
        }
        first_err
    }

    fn resident_bytes(&self) -> u64 {
        self.resident
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        let _ = self.flush();
        drop(self.tx.take()); // close the channel so the worker exits
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_sparse::tests::TempPath;
    use proptest::prelude::*;

    /// Deterministic bit patterns, including ones that are NaNs or
    /// negative zeros when read as floats: the codec must move bits, not
    /// values.
    fn bits(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        }
    }

    /// decode(encode(x)) is bit-equal to x for square and ragged edge
    /// tiles, read through strided subviews as `ingest` does, and the
    /// stored length is what `tile_bytes` promises.
    fn round_trip<E: TileElem + PartialEq + std::fmt::Debug>(from_bits: impl Fn(u64) -> E) {
        for &(rows, cols) in &[(1, 1), (8, 8), (7, 7), (24, 5), (5, 24), (33, 47), (192, 64)] {
            let mut next = bits((rows * 131 + cols) as u64);
            let parent = Matrix::from_fn(rows + 3, cols + 2, |_, _| from_bits(next()));
            let tile = parent.subview(2, 1, rows, cols);
            let bytes = encode(&tile);
            assert_eq!(bytes.len() as u64, tile_bytes::<E>(rows, cols), "{} {rows}×{cols}", E::DTYPE);
            let back = decode::<E>(&bytes, rows, cols).expect("round trip decodes");
            // compare re-encodings: bit equality even where `==` on floats
            // would say NaN != NaN
            assert_eq!(encode(&back.view()), bytes, "{} {rows}×{cols}", E::DTYPE);
            assert_eq!((back.rows(), back.cols()), (rows, cols));
        }
    }

    #[test]
    fn codec_round_trip_is_bit_exact_per_dtype_square_and_ragged() {
        round_trip::<f32>(|b| f32::from_bits(b as u32));
        round_trip::<f64>(f64::from_bits);
        round_trip::<u16>(|b| b as u16);
        round_trip::<i32>(|b| b as u32 as i32);
    }

    #[test]
    fn decode_refuses_any_flipped_bit_wrong_shape_or_blank_slot() {
        let m = Matrix::from_fn(9, 13, |i, j| (i * 13 + j) as f32 / 8.0);
        let bytes = encode(&m.view());
        assert!(decode::<f32>(&bytes, 9, 13).is_some());
        // one flipped bit anywhere — payload or checksum — is refused
        for at in [0, 1, bytes.len() / 2, bytes.len() - 9, bytes.len() - 8, bytes.len() - 1] {
            for bit in [0, 7] {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                assert!(decode::<f32>(&bad, 9, 13).is_none(), "flip at byte {at} bit {bit}");
            }
        }
        // the same bytes under another element count or a truncated length
        assert!(decode::<f32>(&bytes, 9, 12).is_none());
        assert!(decode::<f32>(&bytes[..bytes.len() - 1], 9, 13).is_none());
        // a never-written slot is all zeros, for every length the tail
        // handling distinguishes
        for (rows, cols) in [(9, 13), (8, 8), (1, 1), (3, 5)] {
            let blank = vec![0u8; tile_bytes::<f32>(rows, cols) as usize];
            assert!(decode::<f32>(&blank, rows, cols).is_none(), "blank {rows}×{cols}");
            let blank = vec![0u8; tile_bytes::<u16>(rows, cols) as usize];
            assert!(decode::<u16>(&blank, rows, cols).is_none(), "blank u16 {rows}×{cols}");
        }
    }

    /// The header and length `create` writes for an `n × n` f32 store.
    fn created(n: usize, tile: usize) -> (Vec<u8>, u64) {
        let tmp = TempPath::new();
        drop(FileStore::create::<f32>(&tmp.0, n, tile).unwrap());
        let bytes = std::fs::read(&tmp.0).unwrap();
        (bytes[..FILE_HEADER].to_vec(), bytes.len() as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn open_accepts_only_a_header_and_length_create_could_have_written(
            (n, tile) in (1usize..40, 1usize..12),
            // 0: as written; 1: one byte xor-ed; 2–5: n, tile, slot or the
            // elem field overwritten
            (mutation, at, value) in (0usize..6, 0..FILE_HEADER, any::<u64>()),
            // an overwritten field is `value % 64` (a plausible geometry)
            // rather than any `u64`
            small in any::<bool>(),
            // the file's length: short of, at, or past the geometry's
            len_delta in -600i64..600,
        ) {
            let (mut header, want) = created(n, tile);
            let field = if small { value % 64 } else { value };
            match mutation {
                1 => header[at] ^= (value as u8).max(1),
                2..=4 => {
                    let o = 12 + 8 * (mutation - 2);
                    header[o..o + 8].copy_from_slice(&field.to_le_bytes());
                }
                5 => header[8..12].copy_from_slice(&(field as u32).to_le_bytes()),
                _ => {}
            }
            let len = (want as i64 + len_delta).max(0) as u64;
            let tmp = TempPath::new();
            let mut file = File::create(&tmp.0).unwrap();
            file.write_all(&header[..FILE_HEADER.min(len as usize)]).unwrap();
            file.set_len(len).unwrap();
            drop(file);
            match FileStore::open::<f32>(&tmp.0) {
                Ok(store) => {
                    // what `create` writes for the geometry that opened, over
                    // no more bytes than the file holds
                    let (again, created_len) = created(store.n(), store.tile());
                    prop_assert_eq!(&again, &header);
                    prop_assert!(created_len <= len, "{created_len} > {len}");
                }
                Err(_) => prop_assert!(
                    mutation != 0 || len < want,
                    "a header create wrote, over {len} ≥ {want} bytes, was refused"
                ),
            }
        }
    }
}
