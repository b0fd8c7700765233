//! 2-D process grids and block-cyclic ownership (paper §2.5.1).

use crate::comm::Comm;

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
}

impl ProcessGrid {
    /// Lay the grid over `comm`. Every member of `comm` calls this with the
    /// same `(pr, pc)`, at the same point among its collectives. The row and
    /// column communicators follow from the grid arithmetic alone — row `r`
    /// is grid ranks `r·pc … r·pc + pc − 1`, column `c` is `c, c + pc, …` —
    /// so building a grid sends nothing and waits for nobody.
    ///
    /// # Panics
    /// Panics if `pr · pc != comm.size()`.
    pub fn new(comm: Comm, pr: usize, pc: usize) -> Self {
        assert_eq!(pr * pc, comm.size(), "grid dims must cover the communicator");
        let (my_r, my_c) = (comm.rank() / pc, comm.rank() % pc);
        let row = comm.sub(my_r as u64, (0..pc).map(|c| my_r * pc + c));
        let col = comm.sub(my_c as u64, (0..pr).map(|r| r * pc + my_c));
        ProcessGrid { grid: comm, row, col }
    }

    /// This rank's `(row, col)` coordinates: its rank in the column
    /// communicator and its rank in the row communicator.
    pub fn coords(&self) -> (usize, usize) {
        (self.col.rank(), self.row.rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn coordinates_and_subcomms_line_up() {
        let out = Runtime::new(6).run(|comm| {
            let g = ProcessGrid::new(comm, 2, 3);
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
            let g = ProcessGrid::new(comm, 2, 2);
            // row broadcast: column 0 member broadcasts its grid rank
            let data = (g.row.rank() == 0).then(|| g.grid.rank() as u64);
            g.row.bcast(0, data).unwrap()
        });
        assert_eq!(out, vec![0, 0, 2, 2]);
    }

    #[test]
    fn subcomm_context_ids_do_not_depend_on_the_schedule() {
        // a 3 x 4 grid of 12 ranks: its row splits take ids 1..=12, its
        // column splits 13..=24, whichever rank splits first
        for workers in [1, 2, 12] {
            let out = Runtime::new(12).with_workers(workers).run(|comm| {
                let g = ProcessGrid::new(comm, 3, 4);
                (g.row.ctx, g.col.ctx)
            });
            let want: Vec<(u64, u64)> = (0..12).map(|rank| (1 + rank / 4, 13 + rank % 4)).collect();
            assert_eq!(out, want, "{workers} workers");
        }
    }

    #[test]
    fn building_a_grid_moves_no_messages() {
        let (out, report) = Runtime::new(12).run_traced(|comm| {
            let g = ProcessGrid::new(comm, 3, 4);
            (g.row.size(), g.col.size())
        });
        assert!(out.iter().all(|&dims| dims == (4, 3)));
        assert_eq!(report.total_msgs, 0);
        assert_eq!(report.total_nic_bytes() + report.total_intra_bytes(), 0);
    }
}
