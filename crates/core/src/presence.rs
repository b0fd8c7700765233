//! The block-presence map of one solve, [`BlockPresence`].

use std::ops::Range;

use apsp_trace::span;
use srgemm::matrix::View;
use srgemm::semiring::Semiring;

/// Which blocks of a solve's matrix may hold an entry other than
/// `S::zero()`: `nb × nb` bits, each row `⌈nb/64⌉` words. A block gains an
/// entry only from `(i, k)` ⊗ `(k, j)` in block-iteration `k`, so
/// [`BlockPresence::close`] after each iteration keeps the map a superset
/// of the blocks holding entries: skipping a clear block is exact when ⊕
/// is idempotent. The superset is loose where two present blocks have an
/// all-zero product, so the in-RAM loops [`BlockPresence::refine`] row and
/// column `k` before iteration `k` reads them; `ooc` does not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPresence {
    nb: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BlockPresence {
    /// An `nb × nb` map with every bit clear.
    pub fn empty(nb: usize) -> Self {
        let words = nb.div_ceil(64);
        BlockPresence { nb, words, bits: vec![0; nb * words] }
    }

    /// The map of the square view `d` in `b`-wide blocks, under a
    /// `presence` span: set on the diagonal, which DiagUpdate gives
    /// `S::one()`, and where a block holds an entry. One pass down the
    /// rows, a block read only until its first row holding an entry.
    ///
    /// # Panics
    /// Panics if `d` is not square or `b == 0`.
    pub fn of<S: Semiring>(d: &View<'_, S::Elem>, b: usize) -> Self {
        let _p = span("presence");
        let n = d.rows();
        assert_eq!(n, d.cols(), "distance matrix must be square");
        let mut map = Self::empty(n.div_ceil(b));
        for r in 0..n {
            map.set(r / b, r / b);
            for (j, seg) in d.row(r).chunks(b).enumerate() {
                if !map.get(r / b, j) && holds::<S>(seg) {
                    map.set(r / b, j);
                }
            }
        }
        map
    }

    /// The side of the map, in blocks.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Whether block `(i, j)` may hold an entry.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(j < self.nb, "block column {j} outside a {0} × {0} map", self.nb);
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// Mark block `(i, j)` as one that may hold an entry.
    pub fn set(&mut self, i: usize, j: usize) {
        assert!(j < self.nb, "block column {j} outside a {0} × {0} map", self.nb);
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    /// The number of set blocks.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Into `out`, the bits `at(l)` of the `b`-wide blocks `l` of `0..len`
    /// (a panel's row or column blocks), each set one first cleared if
    /// `cut(block)` holds only `S::zero()`, read up to its first row that
    /// holds an entry.
    pub fn refine<'v, S: Semiring>(
        &mut self,
        out: &mut Vec<bool>,
        (len, b): (usize, usize),
        at: impl Fn(usize) -> (usize, usize),
        cut: impl Fn(Range<usize>) -> View<'v, S::Elem>,
    ) {
        out.clear();
        for l in 0..len.div_ceil(b) {
            let (i, j) = at(l);
            if self.get(i, j) {
                let v = cut(l * b..len.min(l * b + b));
                if !(0..v.rows()).any(|r| holds::<S>(v.row(r))) {
                    self.bits[i * self.words + j / 64] &= !(1 << (j % 64));
                }
            }
            out.push(self.get(i, j));
        }
    }

    /// OR row `k` into every row `i` whose bit `(i, k)` is set, as
    /// block-iteration `k` may fill in `(i, j)` from `(i, k)` and `(k, j)`.
    /// Row and column `k` do not change, so a loop may call this anywhere
    /// in iteration `k` after its last `refine` of them.
    pub fn close(&mut self, k: usize) {
        let w = self.words;
        for i in 0..self.nb {
            if i != k && self.get(i, k) {
                for x in 0..w {
                    self.bits[i * w + x] |= self.bits[k * w + x];
                }
            }
        }
    }
}

/// Whether `row` holds an entry other than `S::zero()`: one branch-free
/// fold (`|`, not `any`, so it vectorizes).
fn holds<S: Semiring>(row: &[S::Elem]) -> bool {
    row.iter().fold(false, |s, &x| s | (x != S::zero()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use srgemm::matrix::Matrix;
    use srgemm::MinPlusF32;

    /// `close(0)`, …, `close(nb − 1)` against the boolean closure run one
    /// `bool` at a time, on random maps at sides that fit one word, end on
    /// one and span several, at several densities.
    #[test]
    fn close_is_the_boolean_closure() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for nb in [1usize, 5, 63, 64, 65, 130, 200] {
            for per_mille in [5u64, 30, 200] {
                let mut want = vec![vec![false; nb]; nb];
                let mut map = BlockPresence::empty(nb);
                for (i, row) in want.iter_mut().enumerate() {
                    for (j, bit) in row.iter_mut().enumerate() {
                        if next() % 1000 < per_mille {
                            *bit = true;
                            map.set(i, j);
                        }
                    }
                }
                for k in 0..nb {
                    for i in 0..nb {
                        for j in 0..nb {
                            want[i][j] |= want[i][k] && want[k][j];
                        }
                    }
                    map.close(k);
                }
                for (i, row) in want.iter().enumerate() {
                    for (j, &bit) in row.iter().enumerate() {
                        assert_eq!(map.get(i, j), bit, "nb={nb} ‰={per_mille} ({i}, {j})");
                    }
                }
                let count = want.iter().flatten().filter(|&&b| b).count();
                assert_eq!(map.count(), count, "nb={nb} ‰={per_mille}");
            }
        }
    }

    /// `of` sets the blocks holding a finite entry and every diagonal
    /// block, at a ragged width: the entries sit in the last row and the
    /// last column of their blocks, where the pass reaches them last.
    #[test]
    fn of_sets_the_blocks_with_entries_and_the_diagonal() {
        let mut d = Matrix::filled(10, 10, f32::INFINITY);
        d[(3, 9)] = 1.0;
        d[(9, 2)] = 2.0;
        let map = BlockPresence::of::<MinPlusF32>(&d.view(), 4);
        let blocks = (0..3).flat_map(|i| (0..3).map(move |j| (i, j)));
        let set: Vec<_> = blocks.filter(|&(i, j)| map.get(i, j)).collect();
        assert_eq!(set, [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]);
    }

    /// `refine` clears the set bits whose block holds only `S::zero()`,
    /// keeps the one holding an entry, and leaves a clear bit clear
    /// without reading its block, at a stride into the map.
    #[test]
    fn refine_clears_exactly_the_set_bits_of_all_zero_blocks() {
        // a 10-row panel in blocks of 4: blocks 0 and 2 hold an entry, in
        // the last row of each; its block l is map block (1 + 2l, 5)
        let mut p = Matrix::filled(10, 3, f32::INFINITY);
        p[(3, 2)] = 1.0;
        p[(9, 0)] = 2.0;
        let mut map = BlockPresence::empty(7);
        map.set(1, 5);
        map.set(3, 5);
        let (v, mut out) = (p.view(), Vec::new());
        let cut = |r: Range<usize>| v.subview(r.start, 0, r.len(), 3);
        map.refine::<MinPlusF32>(&mut out, (10, 4), |l| (1 + 2 * l, 5), cut);
        assert_eq!(out, [true, false, false]);
        assert_eq!((map.get(1, 5), map.get(3, 5), map.get(5, 5)), (true, false, false));
        assert_eq!(map.count(), 1);
    }
}
