//! Property tests for the collectives ParallelFw uses: any root, any
//! payload size, any chunking — every rank ends with the same data, a
//! gather arrives in rank order — and for the process grid's row and
//! column communicators.

use proptest::prelude::*;

use mpi_sim::{ProcessGrid, Runtime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_and_ring_bcast_deliver_identically(
        p in 1usize..9,
        root_seed in any::<usize>(),
        len in 0usize..500,
        chunks in 1usize..20,
        seed in any::<u64>(),
    ) {
        let root = root_seed % p;
        let payload: Vec<u64> = (0..len).map(|i| seed.wrapping_add(i as u64)).collect();
        let expect = payload.clone();
        let out = Runtime::new(p).run(move |comm| {
            let t = comm.bcast(root, (comm.rank() == root).then(|| payload.clone())).unwrap();
            let r = comm.ring_bcast(root, (comm.rank() == root).then(|| payload.clone()), chunks).unwrap();
            (t, r)
        });
        for (t, r) in out {
            prop_assert_eq!(&t, &expect);
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn gather_is_rank_ordered_at_any_root(
        p in 1usize..9,
        root_seed in any::<usize>(),
        base in any::<u32>(),
        shift in 0usize..3,
    ) {
        // rank r contributes (r + shift) % 3 copies of base + r, so some
        // ranks send empty payloads
        let root = root_seed % p;
        let mine = move |r: usize| vec![base.wrapping_add(r as u32); (r + shift) % 3];
        let out = Runtime::new(p).run(move |comm| comm.gather(root, mine(comm.rank())).unwrap());
        for (rank, got) in out.into_iter().enumerate() {
            if rank == root {
                prop_assert_eq!(got, Some((0..p).map(mine).collect::<Vec<_>>()));
            } else {
                prop_assert_eq!(got, None);
            }
        }
    }
}

/// For every grid of at most 12 ranks: the row communicator is the grid row
/// ordered by column, the column communicator is the grid column ordered by
/// row, and a row broadcast and a column broadcast in flight together each
/// reach only their own members.
#[test]
fn process_grid_rows_and_columns_are_the_grid_lines() {
    for pr in 1..=12 {
        for pc in 1..=12 / pr {
            let out = Runtime::new(pr * pc).run(move |comm| {
                let g = ProcessGrid::new(comm, pr, pc);
                let (r, c) = g.coords();
                let me = g.grid.rank();
                let (row_root, col_root) = (r % pc, c % pr);
                let from_row = g.row.bcast(row_root, (c == row_root).then_some(me)).unwrap();
                let from_col =
                    g.col.ring_bcast(col_root, (r == col_root).then(|| vec![me]), 2).unwrap();
                let row = g.row.gather(0, me).unwrap();
                let col = g.col.gather(0, me).unwrap();
                (
                    (g.row.rank(), g.row.size(), g.col.rank(), g.col.size()),
                    (from_row, from_col),
                    (row, col),
                )
            });
            for (me, (ranks, bcasts, gathered)) in out.into_iter().enumerate() {
                let (r, c) = (me / pc, me % pc);
                let grid = format!("{pr}x{pc} rank {me}");
                assert_eq!(ranks, (c, pc, r, pr), "{grid}");
                assert_eq!(bcasts, (r * pc + r % pc, vec![(c % pr) * pc + c]), "{grid}");
                let row: Vec<usize> = (0..pc).map(|j| r * pc + j).collect();
                let col: Vec<usize> = (0..pr).map(|i| i * pc + c).collect();
                assert_eq!(gathered.0, (c == 0).then_some(row), "{grid}");
                assert_eq!(gathered.1, (r == 0).then_some(col), "{grid}");
            }
        }
    }
}
