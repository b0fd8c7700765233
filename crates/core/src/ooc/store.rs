//! Tile stores: where out-of-core FW keeps the matrix when it doesn't fit
//! in RAM.
//!
//! A [`TileStore`] holds the `⌈n/t⌉ × ⌈n/t⌉` grid of `t × t` tiles of the
//! distance matrix as *serialized [`PackedB`] blobs* — the exact bytes of
//! `srgemm`'s kernel-ready packed layout (`APTB` format,
//! [`PackedB::to_bytes`]). Packing therefore happens **once at ingest**;
//! every later read hands the GEMM a `B` operand it can stream directly,
//! and the store never needs to know the element type or the semiring —
//! blobs are self-describing.
//!
//! Two implementations:
//!
//! * [`MemStore`] — blobs in a `Vec`; the in-memory baseline the staged
//!   path is benchmarked against.
//! * [`FileStore`] — one file of fixed-capacity slots behind a background
//!   I/O thread, so tile reads (prefetch) and write-backs overlap the
//!   packed GEMM. Requests are processed FIFO, which makes a read of a
//!   slot observe every write queued before it — the driver's
//!   read-after-write guarantee.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use srgemm::gemm::pack::{PackElem, PackedB};
use srgemm::gemm::{KC, NC};

/// Serialized size of a full `tile × tile` blob with the default pack
/// tiling — what a store reserves per slot (ragged edge tiles are smaller
/// and leave slack; blobs are self-describing so the slack is ignored).
pub fn tile_blob_capacity<E: PackElem>(tile: usize) -> usize {
    PackedB::<E>::serialized_len(tile, tile, KC, NC)
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
    /// The store file's own header is wrong (bad magic, version, or a
    /// shape that contradicts the file length — e.g. a truncated file).
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
            StoreError::WorkerGone => write!(f, "tile store I/O worker is gone"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str, e: std::io::Error) -> StoreError {
    StoreError::Io { op, detail: e.to_string() }
}

/// Blob-level storage for the tile grid of one square matrix.
///
/// Implementations deal in opaque serialized-`PackedB` bytes; the driver
/// ([`super::ooc_fw`]) owns encode/decode. `read`/`write` address tiles by
/// block coordinates `(ti, tj)` with `ti, tj < ⌈n/t⌉`.
pub trait TileStore: Send {
    /// Matrix dimension.
    fn n(&self) -> usize;
    /// Tile side length `t`.
    fn tile(&self) -> usize;
    /// `"memory"` or `"file"` — surfaced in solver notes and bench labels.
    fn kind(&self) -> &'static str;
    /// Fetch the blob for tile `(ti, tj)`, consuming any in-flight
    /// prefetch for it. Blocks until the bytes are available.
    fn read(&mut self, ti: usize, tj: usize) -> Result<Vec<u8>, StoreError>;
    /// Queue `blob` as the new contents of tile `(ti, tj)`. May return
    /// before the bytes are durable; a later `read` of the same tile still
    /// observes them (FIFO), and [`TileStore::flush`] waits for all of them.
    fn write(&mut self, ti: usize, tj: usize, blob: Vec<u8>) -> Result<(), StoreError>;
    /// Hint that `(ti, tj)` will be read soon. Best-effort; default no-op.
    fn prefetch(&mut self, _ti: usize, _tj: usize) {}
    /// Wait until every queued write has completed, surfacing any deferred
    /// write error.
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
    /// Host-RAM bytes this store currently holds (all blobs for
    /// [`MemStore`]; in-flight read/write buffers for [`FileStore`]).
    /// Counted against the driver's budget.
    fn resident_bytes(&self) -> u64;
    /// Per-slot capacity: the largest blob any tile of this store needs.
    fn max_blob_bytes(&self) -> usize;
    /// Tiles per side, `⌈n/t⌉`.
    fn tiles_per_side(&self) -> usize {
        self.n().div_ceil(self.tile())
    }
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// In-memory tile store: the whole grid of blobs lives in host RAM. This is
/// the no-staging baseline — same driver, same packed format, zero disk.
pub struct MemStore {
    n: usize,
    tile: usize,
    slot_cap: usize,
    slots: Vec<Option<Vec<u8>>>,
    resident: u64,
}

impl MemStore {
    /// Empty store for an `n × n` matrix in `tile × tile` blobs of element
    /// type `E`.
    ///
    /// # Panics
    /// Panics if `n` or `tile` is zero.
    pub fn new<E: PackElem>(n: usize, tile: usize) -> Self {
        assert!(n > 0 && tile > 0, "tile store dimensions must be positive");
        let nb = n.div_ceil(tile);
        MemStore {
            n,
            tile,
            slot_cap: tile_blob_capacity::<E>(tile),
            slots: (0..nb * nb).map(|_| None).collect(),
            resident: 0,
        }
    }

    fn slot(&self, ti: usize, tj: usize) -> usize {
        let nb = self.tiles_per_side();
        assert!(ti < nb && tj < nb, "tile index ({ti}, {tj}) out of range");
        ti * nb + tj
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
    fn read(&mut self, ti: usize, tj: usize) -> Result<Vec<u8>, StoreError> {
        let s = self.slot(ti, tj);
        self.slots[s].clone().ok_or(StoreError::MissingTile { ti, tj })
    }
    fn write(&mut self, ti: usize, tj: usize, blob: Vec<u8>) -> Result<(), StoreError> {
        let s = self.slot(ti, tj);
        if let Some(old) = self.slots[s].take() {
            self.resident -= old.len() as u64;
        }
        self.resident += blob.len() as u64;
        self.slots[s] = Some(blob);
        Ok(())
    }
    fn resident_bytes(&self) -> u64 {
        self.resident
    }
    fn max_blob_bytes(&self) -> usize {
        self.slot_cap
    }
}

// ---------------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------------

/// Store-file magic ("APsp Tile Store 1").
const FILE_MAGIC: [u8; 8] = *b"APSPTS01";
/// Fixed file header: magic + elem field (u32) + n/tile/slot (u64 each).
/// The elem field packs the byte width in its low 16 bits and the
/// [`PackElem`] dtype code in the high 16, mirroring the per-blob `APTB`
/// header — so a store written as i32 cannot be opened as f32 even though
/// both have 4-byte elements and identical slot capacities.
const FILE_HEADER: usize = 8 + 4 + 3 * 8;

/// The elem field a store of element type `E` carries.
fn elem_field<E: PackElem>() -> u32 {
    (E::BYTES as u32) | ((E::CODE as u32) << 16)
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
/// asynchronous slot read; `write` queues the blob and returns immediately
/// (bounded by `depth` outstanding writes, so queued buffers can never
/// exceed `depth · slot` bytes of RAM); the FIFO request queue makes any
/// read issued after a write to the same slot observe the new bytes.
pub struct FileStore {
    path: PathBuf,
    n: usize,
    tile: usize,
    slot_cap: usize,
    depth: usize,
    tx: Option<Sender<IoReq>>,
    worker: Option<JoinHandle<()>>,
    inflight_reads: HashMap<(usize, usize), ReadReply>,
    pending_writes: Vec<(usize, WriteReply)>,
    resident: u64,
}

impl FileStore {
    /// Create a store file for an `n × n` matrix in `tile × tile` blobs of
    /// element type `E`, allowing up to `depth` outstanding writes.
    ///
    /// The file is created exclusively: an existing `path` — another
    /// solve's store, or a symlink planted under a predictable name in a
    /// shared temp dir — is a typed `open` error, never truncated or
    /// followed. A file this call created is removed again if sizing it
    /// fails.
    ///
    /// # Panics
    /// Panics if `n`, `tile`, or `depth` is zero.
    pub fn create<E: PackElem>(
        path: &Path,
        n: usize,
        tile: usize,
        depth: usize,
    ) -> Result<Self, StoreError> {
        assert!(n > 0 && tile > 0, "tile store dimensions must be positive");
        assert!(depth > 0, "write queue depth must be positive");
        let slot_cap = tile_blob_capacity::<E>(tile);
        let nb = n.div_ceil(tile);
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
        let sized = file
            .write_all(&header)
            .and_then(|()| file.set_len((FILE_HEADER + nb * nb * slot_cap) as u64));
        if let Err(e) = sized {
            drop(file);
            let _ = std::fs::remove_file(path);
            return Err(io_err("write", e));
        }
        Ok(Self::start(path.to_path_buf(), file, n, tile, slot_cap, depth))
    }

    /// Open an existing store file, validating its header against the
    /// element type `E` and its length against the declared geometry. A
    /// truncated or foreign file fails here with a typed error rather than
    /// a panic mid-solve.
    pub fn open<E: PackElem>(path: &Path, depth: usize) -> Result<Self, StoreError> {
        assert!(depth > 0, "write queue depth must be positive");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let mut header = [0u8; FILE_HEADER];
        file.read_exact(&mut header).map_err(|e| io_err("read", e))?;
        if header[..8] != FILE_MAGIC {
            return Err(StoreError::BadHeader { detail: "wrong magic".into() });
        }
        let elem = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let width = (elem & 0xFFFF) as usize;
        let code = (elem >> 16) as u8;
        if width != E::BYTES {
            return Err(StoreError::BadHeader {
                detail: format!("element width {width}, expected {}", E::BYTES),
            });
        }
        if code != E::CODE {
            return Err(StoreError::BadHeader {
                detail: format!(
                    "element dtype {}, expected {}",
                    srgemm::gemm::dtype_name(code),
                    E::DTYPE
                ),
            });
        }
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
        let (n, tile, slot_cap) =
            (u64_at(12) as usize, u64_at(20) as usize, u64_at(28) as usize);
        if n == 0 || tile == 0 || slot_cap != tile_blob_capacity::<E>(tile) {
            return Err(StoreError::BadHeader {
                detail: format!("implausible geometry n={n} tile={tile} slot={slot_cap}"),
            });
        }
        let nb = n.div_ceil(tile);
        let want = (FILE_HEADER + nb * nb * slot_cap) as u64;
        let got = file.metadata().map_err(|e| io_err("open", e))?.len();
        if got < want {
            return Err(StoreError::BadHeader {
                detail: format!("file is {got} bytes, geometry needs {want} (truncated?)"),
            });
        }
        Ok(Self::start(path.to_path_buf(), file, n, tile, slot_cap, depth))
    }

    fn start(
        path: PathBuf,
        file: File,
        n: usize,
        tile: usize,
        slot_cap: usize,
        depth: usize,
    ) -> Self {
        let (tx, rx) = channel();
        let worker = std::thread::Builder::new()
            .name("ooc-tile-io".into())
            .spawn(move || io_worker(file, rx))
            .expect("spawn tile-store I/O worker");
        FileStore {
            path,
            n,
            tile,
            slot_cap,
            depth,
            tx: Some(tx),
            worker: Some(worker),
            inflight_reads: HashMap::new(),
            pending_writes: Vec::new(),
            resident: 0,
        }
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn offset(&self, ti: usize, tj: usize) -> u64 {
        let nb = self.tiles_per_side();
        assert!(ti < nb && tj < nb, "tile index ({ti}, {tj}) out of range");
        (FILE_HEADER + (ti * nb + tj) * self.slot_cap) as u64
    }

    fn sender(&self) -> Result<&Sender<IoReq>, StoreError> {
        self.tx.as_ref().ok_or(StoreError::WorkerGone)
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

    fn read(&mut self, ti: usize, tj: usize) -> Result<Vec<u8>, StoreError> {
        let rx = match self.inflight_reads.remove(&(ti, tj)) {
            Some(rx) => rx,
            None => {
                let (reply, rx) = channel();
                let off = self.offset(ti, tj);
                self.sender()?
                    .send(IoReq::Read { off, len: self.slot_cap, reply })
                    .map_err(|_| StoreError::WorkerGone)?;
                self.resident += self.slot_cap as u64;
                rx
            }
        };
        let res = rx.recv().map_err(|_| StoreError::WorkerGone)?;
        self.resident -= self.slot_cap as u64;
        res
    }

    fn write(&mut self, ti: usize, tj: usize, blob: Vec<u8>) -> Result<(), StoreError> {
        assert!(blob.len() <= self.slot_cap, "blob exceeds slot capacity");
        // Bound queued-write RAM at depth · slot.
        while self.pending_writes.len() >= self.depth {
            self.retire_one_write()?;
        }
        let off = self.offset(ti, tj);
        let len = blob.len();
        let (reply, rx) = channel();
        self.sender()?
            .send(IoReq::Write { off, data: blob, reply })
            .map_err(|_| StoreError::WorkerGone)?;
        self.resident += len as u64;
        self.pending_writes.push((len, rx));
        Ok(())
    }

    fn prefetch(&mut self, ti: usize, tj: usize) {
        if self.inflight_reads.contains_key(&(ti, tj)) || self.tx.is_none() {
            return;
        }
        // Keep read-ahead bounded by the same depth as writes.
        if self.inflight_reads.len() >= self.depth {
            return;
        }
        let (reply, rx) = channel();
        let off = self.offset(ti, tj);
        if self
            .tx
            .as_ref()
            .unwrap()
            .send(IoReq::Read { off, len: self.slot_cap, reply })
            .is_ok()
        {
            self.resident += self.slot_cap as u64;
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
    fn max_blob_bytes(&self) -> usize {
        self.slot_cap
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
