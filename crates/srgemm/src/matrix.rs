//! Dense row-major matrices and borrowed strided block views.
//!
//! The blocked Floyd-Warshall algorithms operate on sub-blocks of a large
//! distance matrix. [`View`]/[`ViewMut`] are strided windows into a parent
//! allocation, so every kernel (GEMM, closure, panel update) can run on a
//! block in place with no copies — mirroring how the paper's GPU kernels
//! address tiles of device memory.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Owned dense row-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy> Matrix<T> {
    /// A `rows × cols` matrix with every entry set to `fill`.
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }

    /// Build from a function of the (row, col) index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from row slices; all rows must have equal length.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Take ownership of a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Immutable view of the whole matrix.
    pub fn view(&self) -> View<'_, T> {
        View {
            ptr: self.data.as_ptr(),
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            _marker: std::marker::PhantomData,
        }
    }

    /// Mutable view of the whole matrix.
    pub fn view_mut(&mut self) -> ViewMut<'_, T> {
        ViewMut {
            ptr: self.data.as_mut_ptr(),
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            _marker: std::marker::PhantomData,
        }
    }

    /// Immutable view of the block starting at `(r0, c0)` of shape `rows × cols`.
    pub fn subview(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> View<'_, T> {
        self.view().subview(r0, c0, rows, cols)
    }

    /// Mutable view of the block starting at `(r0, c0)` of shape `rows × cols`.
    pub fn subview_mut(&mut self, r0: usize, c0: usize, rows: usize, cols: usize) -> ViewMut<'_, T> {
        self.view_mut().into_subview(r0, c0, rows, cols)
    }

    /// Copy out a block as an owned matrix.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix<T> {
        self.subview(r0, c0, rows, cols).to_matrix()
    }

    /// Overwrite the block at `(r0, c0)` with `src`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &View<'_, T>) {
        self.subview_mut(r0, c0, src.rows(), src.cols()).copy_from(src);
    }

    /// Elementwise equality (exact, no tolerance).
    pub fn eq_exact(&self, other: &Matrix<T>) -> bool
    where
        T: PartialEq,
    {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl<T: Copy> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Copy> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(i)[..self.cols.min(8)])?;
        }
        if self.rows > 8 || self.cols > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Immutable strided window into a matrix.
#[derive(Clone, Copy)]
pub struct View<'a, T> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    stride: usize,
    _marker: std::marker::PhantomData<&'a T>,
}

// SAFETY: a View is a shared borrow of plain data; sharing it across threads
// is as safe as sharing `&[T]`.
unsafe impl<T: Sync> Send for View<'_, T> {}
unsafe impl<T: Sync> Sync for View<'_, T> {}

impl<'a, T: Copy> View<'a, T> {
    /// View the first `rows * cols` elements of a row-major slice as a
    /// matrix, with no copy (a device buffer, a staging slice).
    ///
    /// # Panics
    /// Panics if `data` holds fewer than `rows * cols` elements.
    pub fn from_slice(data: &'a [T], rows: usize, cols: usize) -> Self {
        // the bound every later `row(i)` relies on; checked so it cannot wrap
        assert!(
            rows.checked_mul(cols).is_some_and(|len| len <= data.len()),
            "slice shorter than rows * cols"
        );
        View {
            ptr: data.as_ptr(),
            rows,
            cols,
            stride: cols,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in elements between consecutive rows of the parent buffer.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        debug_assert!(i < self.rows);
        // SAFETY: the view was constructed over a live allocation covering
        // rows*stride elements; row i spans [i*stride, i*stride+cols).
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.row(i)[j]
    }

    /// Sub-window at offset `(r0, c0)` with shape `rows × cols`.
    ///
    /// # Panics
    /// Panics if the window exceeds the view bounds.
    pub fn subview(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> View<'a, T> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "subview out of bounds");
        View {
            // An empty window keeps this view's pointer: its offset may lie
            // past the end of the allocation.
            ptr: if rows == 0 || cols == 0 {
                self.ptr
            } else {
                // SAFETY: a non-empty window starts at element (r0, c0) of
                // this view (r0 < self.rows, c0 < self.cols per the
                // assertion), which lies inside the allocation.
                unsafe { self.ptr.add(r0 * self.stride + c0) }
            },
            rows,
            cols,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        }
    }

    /// Copy into an owned `Matrix`.
    pub fn to_matrix(&self) -> Matrix<T> {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Flatten to a contiguous row-major `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.to_matrix().data
    }
}

/// Mutable strided window into a matrix.
pub struct ViewMut<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    stride: usize,
    _marker: std::marker::PhantomData<&'a mut T>,
}

// SAFETY: ViewMut is an exclusive borrow; moving it to another thread is as
// safe as moving `&mut [T]`.
unsafe impl<T: Send> Send for ViewMut<'_, T> {}
unsafe impl<T: Sync> Sync for ViewMut<'_, T> {}

impl<'a, T: Copy> ViewMut<'a, T> {
    /// Mutable form of [`View::from_slice`].
    ///
    /// # Panics
    /// Panics if `data` holds fewer than `rows * cols` elements.
    pub fn from_slice(data: &'a mut [T], rows: usize, cols: usize) -> Self {
        // the bound every later `row(i)` relies on; checked so it cannot wrap
        assert!(
            rows.checked_mul(cols).is_some_and(|len| len <= data.len()),
            "slice shorter than rows * cols"
        );
        ViewMut {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            stride: cols,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in elements between consecutive rows of the parent buffer.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        // SAFETY: same bounds argument as `View::row`.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        // SAFETY: exclusive borrow of the view guarantees no aliasing.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.row(i)[j]
    }

    /// Write element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        self.row_mut(i)[j] = v;
    }

    /// Reborrow as an immutable view.
    pub fn as_view(&self) -> View<'_, T> {
        View {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        }
    }

    /// Reborrow a mutable sub-window (shorter lifetime, keeps `self` borrowed).
    pub fn subview_mut(&mut self, r0: usize, c0: usize, rows: usize, cols: usize) -> ViewMut<'_, T> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "subview out of bounds");
        ViewMut {
            // an empty window keeps this view's pointer (see `View::subview`)
            ptr: if rows == 0 || cols == 0 {
                self.ptr
            } else {
                // SAFETY: element (r0, c0) of this view, inside the
                // allocation per the assertion; exclusive via &mut self.
                unsafe { self.ptr.add(r0 * self.stride + c0) }
            },
            rows,
            cols,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        }
    }

    /// Consume the view, producing a sub-window with the original lifetime.
    pub fn into_subview(self, r0: usize, c0: usize, rows: usize, cols: usize) -> ViewMut<'a, T> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "subview out of bounds");
        ViewMut {
            // an empty window keeps this view's pointer (see `View::subview`)
            ptr: if rows == 0 || cols == 0 {
                self.ptr
            } else {
                // SAFETY: element (r0, c0) of this view, inside the
                // allocation per the assertion; `self` is consumed so the
                // new view is the only live borrow.
                unsafe { self.ptr.add(r0 * self.stride + c0) }
            },
            rows,
            cols,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        }
    }

    /// Split into left (`..mid`) and right (`mid..`) disjoint mutable views.
    pub fn split_cols_mut(self, mid: usize) -> (ViewMut<'a, T>, ViewMut<'a, T>) {
        assert!(mid <= self.cols, "split point out of bounds");
        let left = ViewMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: mid,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        };
        let right = ViewMut {
            // an empty right side keeps the parent's pointer: `mid` may
            // reach past the end of the allocation
            ptr: if self.rows == 0 || mid == self.cols {
                self.ptr
            } else {
                // SAFETY: element (0, mid) of the parent, inside the
                // allocation as mid < cols and rows > 0; columns mid..
                // never alias columns ..mid within a row, and both views
                // share the parent's stride
                unsafe { self.ptr.add(mid) }
            },
            rows: self.rows,
            cols: self.cols - mid,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        };
        (left, right)
    }

    /// Split into top (`..mid`) and bottom (`mid..`) disjoint mutable views.
    pub fn split_rows_mut(self, mid: usize) -> (ViewMut<'a, T>, ViewMut<'a, T>) {
        assert!(mid <= self.rows, "split point out of bounds");
        let top = ViewMut {
            ptr: self.ptr,
            rows: mid,
            cols: self.cols,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        };
        let bottom = ViewMut {
            // an empty bottom keeps the parent's pointer: row `mid` may lie
            // past the end of the allocation
            ptr: if mid == self.rows || self.cols == 0 {
                self.ptr
            } else {
                // SAFETY: element (mid, 0) of the parent, inside the
                // allocation as mid < rows and cols > 0; rows mid.. are
                // disjoint from rows ..mid.
                unsafe { self.ptr.add(mid * self.stride) }
            },
            rows: self.rows - mid,
            cols: self.cols,
            stride: self.stride,
            _marker: std::marker::PhantomData,
        };
        (top, bottom)
    }

    /// Copy every element from `src` (shapes must match).
    pub fn copy_from(&mut self, src: &View<'_, T>) {
        assert_eq!((self.rows, self.cols), (src.rows(), src.cols()), "shape mismatch");
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: T) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Copy into an owned matrix.
    pub fn to_matrix(&self) -> Matrix<T> {
        self.as_view().to_matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(rows: usize, cols: usize) -> Matrix<i64> {
        Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as i64)
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6);
        assert_eq!(m.row(0), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1, 2][..], &[3][..]]);
    }

    #[test]
    fn slice_views_address_the_slice_in_place() {
        let mut data: Vec<i64> = (0..7).collect();
        let v = View::from_slice(&data, 2, 3);
        assert_eq!((v.rows(), v.cols(), v.stride()), (2, 3, 3));
        assert_eq!(v.row(1), &[3, 4, 5]);
        let mut w = ViewMut::from_slice(&mut data, 3, 2);
        w.set(2, 1, -1);
        assert_eq!(data, [0, 1, 2, 3, 4, -1, 6]);
    }

    #[test]
    #[should_panic(expected = "slice shorter")]
    fn slice_view_rejects_a_short_slice() {
        let _ = View::from_slice(&[1, 2, 3], 2, 2);
    }

    #[test]
    #[should_panic(expected = "slice shorter")]
    fn slice_view_rejects_an_overflowing_shape() {
        let _ = ViewMut::from_slice(&mut [1, 2, 3], usize::MAX, 2);
    }

    #[test]
    fn subview_addresses_parent_block() {
        let m = iota(6, 5);
        let v = m.subview(2, 1, 3, 2);
        assert_eq!(v.at(0, 0), m[(2, 1)]);
        assert_eq!(v.at(2, 1), m[(4, 2)]);
        assert_eq!(v.stride(), 5);
    }

    #[test]
    fn nested_subview_composes_offsets() {
        let m = iota(8, 8);
        let outer = m.subview(2, 2, 5, 5);
        let inner = outer.subview(1, 3, 2, 2);
        assert_eq!(inner.at(0, 0), m[(3, 5)]);
        assert_eq!(inner.at(1, 1), m[(4, 6)]);
    }

    #[test]
    fn subview_mut_writes_through() {
        let mut m = iota(4, 4);
        {
            let mut v = m.subview_mut(1, 1, 2, 2);
            v.set(0, 0, -1);
            v.set(1, 1, -2);
        }
        assert_eq!(m[(1, 1)], -1);
        assert_eq!(m[(2, 2)], -2);
        assert_eq!(m[(0, 0)], 0); // untouched
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn subview_rejects_overflow() {
        let m = iota(4, 4);
        let _ = m.subview(2, 2, 3, 1);
    }

    #[test]
    fn split_rows_gives_disjoint_halves() {
        let mut m = iota(6, 3);
        let (mut top, mut bot) = m.view_mut().split_rows_mut(2);
        assert_eq!(top.rows(), 2);
        assert_eq!(bot.rows(), 4);
        top.set(0, 0, 100);
        bot.set(0, 0, 200);
        assert_eq!(m[(0, 0)], 100);
        assert_eq!(m[(2, 0)], 200);
    }

    /// Every window and split keeps its pointer inside the allocation, the
    /// empty ones too. Blocked FW's last iteration makes the band below its
    /// last block row (no rows, starting past the end of the matrix) and
    /// then splits that band's columns at the block column.
    #[test]
    fn empty_sides_keep_their_pointer_inside_the_allocation() {
        let (rows, cols, c0, b) = (6, 7, 2, 2);
        let mut m = iota(rows, cols);
        let alloc = m.data.as_ptr_range();
        let inside = |p: *const i64| alloc.contains(&p);
        for mid in 0..=cols - c0 {
            let view = m.view_mut().into_subview(0, c0, rows, cols - c0);
            let (_, last) = view.split_rows_mut(rows - b);
            let (last, below) = last.split_rows_mut(b);
            assert!(inside(last.ptr) && inside(below.ptr), "row split");
            for band in [last, below] {
                let (left, right) = band.split_cols_mut(mid);
                assert!(inside(left.ptr) && inside(right.ptr), "column split at {mid}");
            }
        }
        for mid in 0..=b {
            let last = m.view_mut().into_subview(rows - b, c0, b, cols - c0);
            let (top, bottom) = last.split_rows_mut(mid);
            assert!(inside(top.ptr) && inside(bottom.ptr), "row split at {mid}");
        }
        for r0 in 0..=rows {
            for c in 0..=cols {
                let (r, w) = (rows - r0, cols - c);
                assert!(inside(m.view().subview(r0, c, 0, w).ptr), "({r0}, {c})");
                assert!(inside(m.view().subview(r0, c, r, 0).ptr), "({r0}, {c})");
                assert!(inside(m.view_mut().subview_mut(r0, c, 0, w).ptr), "({r0}, {c})");
                assert!(inside(m.view_mut().into_subview(r0, c, r, 0).ptr), "({r0}, {c})");
            }
        }
    }

    /// The halves of `split_rows_mut` and `split_cols_mut` are disjoint:
    /// at every split point of a view with a row and a column offset, two
    /// threads each add their tag to every element of their half, and each
    /// element of the view ends up with exactly one tag, the right one.
    #[test]
    fn split_halves_written_from_two_threads_are_disjoint() {
        let (rows, cols, r0, c0) = (5, 6, 1, 2);
        for by_rows in [false, true] {
            let extent = if by_rows { rows - r0 } else { cols - c0 };
            for mid in 0..=extent {
                let mut m = Matrix::filled(rows, cols, 0i64);
                let view = m.view_mut().into_subview(r0, c0, rows - r0, cols - c0);
                let halves =
                    if by_rows { view.split_rows_mut(mid) } else { view.split_cols_mut(mid) };
                std::thread::scope(|s| {
                    for (mut half, tag) in [(halves.0, 1), (halves.1, 2)] {
                        s.spawn(move || {
                            for i in 0..half.rows() {
                                for j in 0..half.cols() {
                                    let v = half.at(i, j);
                                    half.set(i, j, v + tag);
                                }
                            }
                        });
                    }
                });
                for i in 0..rows {
                    for j in 0..cols {
                        let want = match (i.checked_sub(r0), j.checked_sub(c0)) {
                            (Some(vi), Some(vj)) => {
                                if (if by_rows { vi } else { vj }) < mid {
                                    1
                                } else {
                                    2
                                }
                            }
                            _ => 0,
                        };
                        assert_eq!(m[(i, j)], want, "by_rows {by_rows}, mid {mid}, ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn copy_from_and_set_block_round_trip() {
        let src = iota(3, 3);
        let mut dst = Matrix::filled(5, 5, 0i64);
        dst.set_block(1, 2, &src.view());
        assert_eq!(dst[(1, 2)], 0);
        assert_eq!(dst[(3, 4)], 8);
        let back = dst.block(1, 2, 3, 3);
        assert!(back.eq_exact(&src));
    }

    #[test]
    fn to_matrix_from_strided_view() {
        let m = iota(5, 5);
        let v = m.subview(1, 1, 3, 3).to_matrix();
        assert_eq!(v[(0, 0)], 6);
        assert_eq!(v[(2, 2)], 18);
        assert_eq!(v.rows(), 3);
    }

    #[test]
    fn empty_matrix_is_empty() {
        let m = Matrix::<f32>::filled(0, 3, 0.0);
        assert!(m.is_empty());
        assert_eq!(m.view().rows(), 0);
    }
}
