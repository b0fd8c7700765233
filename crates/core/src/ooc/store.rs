//! The tile store: the solve's private scratch space for the tiles of the
//! distance matrix, in one unlinked temp file.
//!
//! A [`TileStore`] holds the `⌈n/t⌉ × ⌈n/t⌉` grid of tiles of one solve:
//! [`super::solve_in_store`] fills it, runs the FW loop over it and reads
//! the answer back, and nothing outlives it. Tiles go in and come out as
//! dense matrices of the store's element type. The layout is plain on
//! purpose: a tile is the `B` operand of a GEMM in one block-iteration out
//! of `⌈n/t⌉` and an `A`/`C` operand in all others, so the driver wants
//! dense tiles it can update in place, and packs the one `B` it needs per
//! product itself.
//!
//! The store is slot I/O only: which slots were written is the solve's
//! [`crate::presence::BlockPresence`] map, and [`super::ooc_fw`] reads a
//! slot only where the map holds a tile. Reading a slot that was never
//! written is a typed error, never a made-up tile.
//!
//! [`FileStore`] is the one implementation, and so the one place that
//! knows how a tile becomes bytes; the [`TileStore`] trait stays so that a
//! test can wrap it and watch which slots a solve touches. Its file is
//! `⌈n/t⌉²` fixed-capacity slots and no header: the slot of tile `(ti, tj)`
//! holds its `rb × cb` elements, row-major little-endian, then a 64-bit
//! checksum of those bytes. Every read verifies the checksum, so a torn
//! write, a stomped payload or a never-written slot is a typed
//! [`StoreError::CorruptTile`], never a decoded tile. The file is unlinked
//! as soon as it is created, so the kernel reclaims it however the process
//! ends. Every read and write runs to completion on the calling thread, so
//! a read observes every write before it. Each one encodes or decodes
//! through the one slot buffer the store keeps, so no transfer allocates.
//! The file lives in the page cache, so a slot transfer costs about as much
//! as its codec, and running it on another thread beside the GEMM saves
//! nothing measurable.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::marker::PhantomData;
use std::path::Path;

use srgemm::matrix::{View, ViewMut};

/// Bytes of the per-slot checksum that follows a tile's payload.
const CHECKSUM_BYTES: usize = 8;

/// An element type a tile store can hold: fixed-width little-endian
/// encoding, independent of host endianness.
pub trait TileElem: Copy + Send {
    /// Encoded size in bytes.
    const BYTES: usize = std::mem::size_of::<Self>();
    /// Write the little-endian encoding of `self` into `out`
    /// (`out.len() == BYTES`).
    fn write_le(self, out: &mut [u8]);
    /// Decode from exactly [`TileElem::BYTES`] bytes.
    fn read_le(b: &[u8]) -> Self;
}

macro_rules! impl_tile_elem {
    ($($t:ty),*) => {
        $(impl TileElem for $t {
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

impl_tile_elem!(f32, u16);

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

/// Serialize `tile` into `out`, which becomes exactly its slot: rows back
/// to back, then the checksum. Reuses `out`'s allocation.
fn encode_into<E: TileElem>(tile: &View<'_, E>, out: &mut Vec<u8>) {
    let row_bytes = tile.cols() * E::BYTES;
    let payload = tile.rows() * row_bytes;
    out.resize(payload + CHECKSUM_BYTES, 0);
    for (r, dst) in out[..payload].chunks_exact_mut(row_bytes).enumerate() {
        for (chunk, &v) in dst.chunks_exact_mut(E::BYTES).zip(tile.row(r)) {
            v.write_le(chunk);
        }
    }
    let sum = checksum(&out[..payload]);
    out[payload..].copy_from_slice(&sum.to_le_bytes());
}

/// Inverse of [`encode_into`] into the tile `dst`; false, with `dst`
/// untouched, if the length or the checksum disagrees with the payload.
fn decode_into<E: TileElem>(bytes: &[u8], dst: &mut ViewMut<'_, E>) -> bool {
    let row_bytes = dst.cols() * E::BYTES;
    let payload = dst.rows() * row_bytes;
    if bytes.len() != payload + CHECKSUM_BYTES {
        return false;
    }
    let (body, sum) = bytes.split_at(payload);
    if sum != checksum(body).to_le_bytes() {
        return false;
    }
    for (r, src) in body.chunks_exact(row_bytes).enumerate() {
        for (v, chunk) in dst.row_mut(r).iter_mut().zip(src.chunks_exact(E::BYTES)) {
            *v = E::read_le(chunk);
        }
    }
    true
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
    /// A file store of `n × n` elements in `tile × tile` tiles was asked
    /// for, but a dimension is zero or the file size overflows.
    Geometry {
        /// Matrix dimension.
        n: usize,
        /// Tile side length.
        tile: usize,
    },
    /// A slot's bytes do not match their checksum: a torn or stomped write,
    /// or a slot of a file store that was never written.
    CorruptTile {
        /// Block-row index.
        ti: usize,
        /// Block-column index.
        tj: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "tile store {op} failed: {detail}"),
            StoreError::Geometry { n, tile } => {
                write!(f, "no tile store for n={n} tile={tile}: zero or overflowing size")
            }
            StoreError::CorruptTile { ti, tj } => {
                write!(f, "tile ({ti}, {tj}) is corrupt (checksum mismatch)")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str, e: std::io::Error) -> StoreError {
    StoreError::Io { op, detail: e.to_string() }
}

/// The tile grid of one square matrix of `E`, addressed by block
/// coordinates `(ti, tj)` with `ti, tj < ⌈n/t⌉`.
pub trait TileStore<E>: Send {
    /// Matrix dimension.
    fn n(&self) -> usize;
    /// Tile side length `t`.
    fn tile(&self) -> usize;
    /// Copy tile `(ti, tj)` into `dst`, the caller's tile: the read
    /// allocates no tile of its own. On an error `dst` is left as it was.
    ///
    /// # Panics
    /// Panics if `dst` does not have the dimensions of tile `(ti, tj)`.
    fn read_into(
        &mut self,
        ti: usize,
        tj: usize,
        dst: &mut ViewMut<'_, E>,
    ) -> Result<(), StoreError>;
    /// Store `tile` as the new contents of tile `(ti, tj)`; a later read
    /// of the same tile observes it.
    ///
    /// # Panics
    /// Panics if `tile` does not have the dimensions of tile `(ti, tj)`.
    fn write(&mut self, ti: usize, tj: usize, tile: &View<'_, E>) -> Result<(), StoreError>;
    /// Free what the store keeps only to move tiles (the [`FileStore`]'s
    /// slot buffer); the next transfer grows it again.
    fn release_scratch(&mut self) {}
    /// Tiles per side, `⌈n/t⌉`.
    fn tiles_per_side(&self) -> usize {
        self.n().div_ceil(self.tile())
    }
    /// `(rows, cols)` of tile `(ti, tj)`: `t × t` except on the ragged last
    /// block row and column.
    ///
    /// # Panics
    /// Panics if `(ti, tj)` is outside the grid.
    fn tile_dims(&self, ti: usize, tj: usize) -> (usize, usize) {
        let (n, t, nb) = (self.n(), self.tile(), self.tiles_per_side());
        assert!(ti < nb && tj < nb, "tile index ({ti}, {tj}) out of range");
        (t.min(n - ti * t), t.min(n - tj * t))
    }
}

// ---------------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------------

/// Slot capacity and total file length of an `n × n` store of `tile × tile`
/// tiles of `E`, or `None` if a dimension is zero or anything overflows —
/// `n` comes from the input graph, so nothing here may wrap or panic.
fn file_geometry<E: TileElem>(n: usize, tile: usize) -> Option<(usize, u64)> {
    if n == 0 || tile == 0 {
        return None;
    }
    let slot = tile.checked_mul(tile)?.checked_mul(E::BYTES)?.checked_add(CHECKSUM_BYTES)?;
    let nb = n.div_ceil(tile);
    let len = nb.checked_mul(nb)?.checked_mul(slot)?;
    Some((slot, u64::try_from(len).ok()?))
}

/// File-backed tile store: `⌈n/t⌉²` fixed-capacity slots in an unlinked
/// file. `read_into` and `write` seek to the slot and move its bytes on
/// the calling thread, through the one slot buffer the store keeps.
pub struct FileStore<E> {
    n: usize,
    tile: usize,
    slot_cap: usize,
    file: File,
    /// The slot every transfer encodes into or decodes from, at most
    /// `slot_cap` bytes: grown by the first transfers, then reused until
    /// [`TileStore::release_scratch`].
    buf: Vec<u8>,
    elem: PhantomData<E>,
}

impl<E: TileElem> FileStore<E> {
    /// Create the scratch file of a store for an `n × n` matrix in
    /// `tile × tile` tiles, and unlink it at once.
    ///
    /// The file is created exclusively: an existing `path` — another
    /// solve's store, or a symlink planted under a predictable name in a
    /// shared temp dir — is a typed `open` error, never truncated or
    /// followed. It is then removed from the directory: the open descriptor
    /// keeps it alive until the store drops, the kernel reclaims it however
    /// the process ends, and no other process can reach it by name. A zero
    /// or overflowing geometry is a typed [`StoreError::Geometry`].
    pub fn create(path: &Path, n: usize, tile: usize) -> Result<Self, StoreError> {
        let (slot_cap, len) = file_geometry::<E>(n, tile).ok_or(StoreError::Geometry { n, tile })?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        std::fs::remove_file(path).map_err(|e| io_err("unlink", e))?;
        file.set_len(len).map_err(|e| io_err("write", e))?;
        Ok(FileStore { n, tile, slot_cap, file, buf: Vec::new(), elem: PhantomData })
    }

    /// File offset and stored length of tile `(ti, tj)`, the grid's
    /// row-major slot.
    fn slot(&self, ti: usize, tj: usize) -> (u64, usize) {
        let (rows, cols) = self.tile_dims(ti, tj);
        let off = (ti * self.tiles_per_side() + tj) * self.slot_cap;
        (off as u64, tile_bytes::<E>(rows, cols) as usize)
    }
}

impl<E: TileElem> TileStore<E> for FileStore<E> {
    fn n(&self) -> usize {
        self.n
    }
    fn tile(&self) -> usize {
        self.tile
    }
    fn read_into(
        &mut self,
        ti: usize,
        tj: usize,
        dst: &mut ViewMut<'_, E>,
    ) -> Result<(), StoreError> {
        assert_eq!((dst.rows(), dst.cols()), self.tile_dims(ti, tj), "tile shape mismatch");
        let (off, len) = self.slot(ti, tj);
        self.buf.resize(len, 0);
        self.file
            .seek(SeekFrom::Start(off))
            .and_then(|_| self.file.read_exact(&mut self.buf))
            .map_err(|e| io_err("read", e))?;
        if decode_into(&self.buf, dst) {
            Ok(())
        } else {
            Err(StoreError::CorruptTile { ti, tj })
        }
    }

    fn write(&mut self, ti: usize, tj: usize, tile: &View<'_, E>) -> Result<(), StoreError> {
        assert_eq!((tile.rows(), tile.cols()), self.tile_dims(ti, tj), "tile shape mismatch");
        let (off, _) = self.slot(ti, tj);
        encode_into(tile, &mut self.buf);
        self.file
            .seek(SeekFrom::Start(off))
            .and_then(|_| self.file.write_all(&self.buf))
            .map_err(|e| io_err("write", e))
    }

    fn release_scratch(&mut self) {
        self.buf = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_sparse::tests::TempPath;
    use crate::ooc::{ingest, ooc_fw, staged_budget_floor, OocConfig, OocError};
    use apsp_graph::generators::{self, WeightKind};
    use srgemm::matrix::Matrix;
    use srgemm::MinPlusF32;

    /// A tile's slot bytes.
    fn encode<E: TileElem>(tile: &View<'_, E>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(tile, &mut out);
        out
    }

    /// The `rows × cols` tile a slot holds, if it decodes.
    fn decode<E: TileElem + Default>(bytes: &[u8], rows: usize, cols: usize) -> Option<Matrix<E>> {
        let mut tile = Matrix::filled(rows, cols, E::default());
        decode_into(bytes, &mut tile.view_mut()).then_some(tile)
    }

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
    fn round_trip<E: TileElem + Default + PartialEq + std::fmt::Debug>(from_bits: impl Fn(u64) -> E) {
        let dtype = std::any::type_name::<E>();
        for &(rows, cols) in &[(1, 1), (8, 8), (7, 7), (24, 5), (5, 24), (33, 47), (192, 64)] {
            let mut next = bits((rows * 131 + cols) as u64);
            let parent = Matrix::from_fn(rows + 3, cols + 2, |_, _| from_bits(next()));
            let tile = parent.subview(2, 1, rows, cols);
            let bytes = encode(&tile);
            assert_eq!(bytes.len() as u64, tile_bytes::<E>(rows, cols), "{dtype} {rows}×{cols}");
            let back = decode::<E>(&bytes, rows, cols).expect("round trip decodes");
            // compare re-encodings: bit equality even where `==` on floats
            // would say NaN != NaN
            assert_eq!(encode(&back.view()), bytes, "{dtype} {rows}×{cols}");
            assert_eq!((back.rows(), back.cols()), (rows, cols));
        }
    }

    #[test]
    fn codec_round_trip_is_bit_exact_per_dtype_square_and_ragged() {
        round_trip::<f32>(|b| f32::from_bits(b as u32));
        round_trip::<u16>(|b| b as u16);
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

    #[test]
    fn stomped_slot_fails_its_checksum_as_a_typed_error() {
        let (n, t) = (32usize, 8usize);
        let tight = staged_budget_floor::<f32>(t) + 3 * tile_bytes::<f32>(t, t);
        let cfg = OocConfig::with_budget(tight);

        // Stomp four bytes in the middle of tile (1, 1)'s payload, through
        // the store's own file: only distances change, not the length.
        let tmp = TempPath::new();
        let mut store = FileStore::<f32>::create(&tmp.0, n, t).unwrap();
        let mut blocks =
            ingest(&mut store, &generators::uniform_dense(n, WeightKind::small_ints(), 6)).unwrap();
        let (off, len) = store.slot(1, 1);
        store.file.seek(SeekFrom::Start(off + len as u64 / 2)).unwrap();
        store.file.write_all(&[0xA5; 4]).unwrap();
        assert_eq!(
            ooc_fw::<MinPlusF32>(&mut store, &mut blocks, &cfg),
            Err(OocError::Store(StoreError::CorruptTile { ti: 1, tj: 1 }))
        );
    }
}
