//! 2-D process grids and block-cyclic ownership (paper §2.5.1).

use crate::comm::Comm;
use crate::error::CommError;

/// A `P_r × P_c` process grid layered over a communicator, with row and
/// column sub-communicators. Grid coordinates are row-major:
/// `rank = r · P_c + c`.
pub struct ProcessGrid {
    /// The full grid communicator.
    pub grid: Comm,
    /// This rank's row communicator (all ranks sharing `my_row`), ordered by
    /// column.
    pub row: Comm,
    /// This rank's column communicator, ordered by row.
    pub col: Comm,
    pr: usize,
    pc: usize,
}

impl ProcessGrid {
    /// Build the grid collectively. Every member of `comm` must call this
    /// with the same `(pr, pc)`. Fails if either underlying `split` fails
    /// (peer failure or split timeout).
    ///
    /// # Panics
    /// Panics if `pr · pc != comm.size()`.
    pub fn new(comm: Comm, pr: usize, pc: usize) -> Result<Self, CommError> {
        assert_eq!(pr * pc, comm.size(), "grid dims must cover the communicator");
        let my_r = comm.rank() / pc;
        let my_c = comm.rank() % pc;
        let row = comm.split(my_r as u64, my_c as u64)?;
        let col = comm.split((pr as u64) + my_c as u64, my_r as u64)?;
        Ok(ProcessGrid { grid: comm, row, col, pr, pc })
    }

    /// `(P_r, P_c)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    /// This rank's `(row, col)` coordinates.
    pub fn coords(&self) -> (usize, usize) {
        (self.grid.rank() / self.pc, self.grid.rank() % self.pc)
    }

    /// Grid rank of coordinates `(r, c)`.
    pub fn rank_of(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.pr && c < self.pc);
        r * self.pc + c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn coordinates_and_subcomms_line_up() {
        let out = Runtime::new(6).run(|comm| {
            let g = ProcessGrid::new(comm, 2, 3).unwrap();
            let (r, c) = g.coords();
            (r, c, g.row.rank(), g.row.size(), g.col.rank(), g.col.size())
        });
        // rank 4 → (1, 1): row rank = col coord, col rank = row coord
        assert_eq!(out[4], (1, 1, 1, 3, 1, 2));
        assert_eq!(out[0], (0, 0, 0, 3, 0, 2));
        assert_eq!(out[5], (1, 2, 2, 3, 1, 2));
    }

    #[test]
    fn row_comm_exchanges_stay_in_row() {
        let out = Runtime::new(4).run(|comm| {
            let g = ProcessGrid::new(comm, 2, 2).unwrap();
            // row broadcast: column 0 member broadcasts its grid rank
            let data = (g.row.rank() == 0).then(|| g.grid.rank() as u64);
            g.row.bcast(0, data).unwrap()
        });
        assert_eq!(out, vec![0, 0, 2, 2]);
    }
}
