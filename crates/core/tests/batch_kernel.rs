//! Property tests for the batched ingestion kernel: the validated-once
//! `HistAccumulator::accumulate` batch path must produce **bit-identical**
//! accumulator state — counts, n, touched list, tuples — to per-tuple
//! `accumulate_one` over arbitrary batch streams, including
//! clear-and-reuse cycles (which exercise the branch-free first-touch
//! bookkeeping against the per-tuple branches). The sparse touched-cell
//! list behind `merge_from`/`merge_ref`/`clear` must index exactly the
//! non-zero cells, and the three ways of feeding `HistSim`
//! (`ingest_block`, per-tuple `ingest`, `accumulate` + `merge_ref`) must
//! leave byte-identical state in every stage.

use proptest::prelude::*;

use fastmatch_core::histsim::{HistAccumulator, HistSim, HistSimConfig, PhaseKind};

/// Expands raw picks into domain-valid tuples.
fn stream_for(nc: usize, ng: usize, picks: &[(u32, u32)]) -> Vec<(u32, u32)> {
    picks
        .iter()
        .map(|&(a, b)| ((a as usize % nc) as u32, (b as usize % ng) as u32))
        .collect()
}

/// Asserts full logical-state equality between two accumulators.
fn assert_identical(batch: &HistAccumulator, per_tuple: &HistAccumulator) {
    assert_eq!(batch.tuples(), per_tuple.tuples());
    assert_eq!(batch.touched(), per_tuple.touched(), "touched order");
    for c in 0..batch.num_candidates() {
        assert_eq!(batch.n(c), per_tuple.n(c), "n[{c}]");
        assert_eq!(
            batch.candidate_counts(c),
            per_tuple.candidate_counts(c),
            "counts[{c}]"
        );
    }
    // The Debug repr dumps the logical state wholesale: a final
    // byte-identity check against representational drift.
    assert_eq!(format!("{batch:?}"), format!("{per_tuple:?}"));
}

/// Asserts the sparse-index invariants of one accumulator: the touched
/// cells are exactly its non-zero cells, each listed once, and never
/// outnumber its tuples.
fn assert_cells_index_nonzero(acc: &HistAccumulator) {
    let ng = acc.groups();
    let mut listed: Vec<u32> = acc.touched_cells().to_vec();
    listed.sort_unstable();
    let mut nonzero = Vec::new();
    for c in 0..acc.num_candidates() {
        for (g, &v) in acc.candidate_counts(c).iter().enumerate() {
            if v > 0 {
                nonzero.push((c * ng + g) as u32);
            }
        }
    }
    assert_eq!(listed, nonzero, "touched cells must be the non-zero cells");
    assert!(acc.touched_cells().len() as u64 <= acc.tuples());
}

/// A deterministic tuple source for whole HistSim runs: candidate
/// `nc - 1` is rare (1 tuple in 200, so stage 1 prunes it), every other
/// candidate `c` draws its group from the first `c + 1` groups, giving
/// distinct distances to the uniform target.
struct Source {
    state: u64,
    i: u64,
    nc: u32,
    ng: u32,
}

impl Source {
    fn new(seed: u64, nc: u32, ng: u32) -> Self {
        Source {
            state: seed,
            i: 0,
            nc,
            ng,
        }
    }

    fn next_tuple(&mut self) -> (u32, u32) {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = (self.state >> 33) as u32;
        self.i += 1;
        if self.i.is_multiple_of(200) {
            return (self.nc - 1, r % self.ng);
        }
        let c = r % (self.nc - 1);
        let g = (r / self.nc) % (c + 1).min(self.ng);
        (c, g)
    }

    fn block(&mut self, len: usize) -> (Vec<u32>, Vec<u32>) {
        (0..len).map(|_| self.next_tuple()).unzip()
    }
}

fn run_config() -> HistSimConfig {
    HistSimConfig {
        k: 1,
        epsilon: 0.3,
        delta: 0.05,
        sigma: 0.05,
        stage1_samples: 400,
        ..HistSimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One batch, arbitrary domain: batch kernel ≡ per-tuple loop.
    #[test]
    fn batch_equals_per_tuple_single_batch(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 0..200),
        nc in 1usize..40,
        ng in 1usize..9,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let zs: Vec<u32> = tuples.iter().map(|t| t.0).collect();
        let xs: Vec<u32> = tuples.iter().map(|t| t.1).collect();
        let mut batch = HistAccumulator::new(nc, ng);
        batch.accumulate(&zs, &xs);
        let mut per_tuple = HistAccumulator::new(nc, ng);
        for &(c, g) in &tuples {
            per_tuple.accumulate_one(c, g);
        }
        assert_identical(&batch, &per_tuple);
    }

    /// Many batches with interleaved clear-and-reuse cycles: after every
    /// batch — and after every clear — the two paths stay bit-identical,
    /// so a cleared touched entry is never resurrected and a fresh one
    /// never dropped.
    #[test]
    fn batch_equals_per_tuple_across_clear_cycles(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 8..160),
        nc in 1usize..24,
        ng in 1usize..6,
        batch_len in 1usize..16,
        clear_every in 1usize..5,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let mut batch = HistAccumulator::new(nc, ng);
        let mut per_tuple = HistAccumulator::new(nc, ng);
        for (i, chunk) in tuples.chunks(batch_len).enumerate() {
            let zs: Vec<u32> = chunk.iter().map(|t| t.0).collect();
            let xs: Vec<u32> = chunk.iter().map(|t| t.1).collect();
            batch.accumulate(&zs, &xs);
            for &(c, g) in chunk {
                per_tuple.accumulate_one(c, g);
            }
            assert_identical(&batch, &per_tuple);
            if (i + 1) % clear_every == 0 {
                batch.clear();
                per_tuple.clear();
                assert_identical(&batch, &per_tuple);
                prop_assert!(batch.is_empty());
            }
        }
    }

    /// Mixed-path merges: accumulators filled by the batch kernel and by
    /// the per-tuple loop merge into identical joint state in either
    /// direction.
    #[test]
    fn merge_is_path_agnostic(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 4..120),
        nc in 1usize..16,
        ng in 1usize..5,
        split in 0usize..120,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let split = split.min(tuples.len());
        let (left, right) = tuples.split_at(split);

        // Left via the batch kernel, right per tuple.
        let mut a = HistAccumulator::new(nc, ng);
        a.accumulate(
            &left.iter().map(|t| t.0).collect::<Vec<_>>(),
            &left.iter().map(|t| t.1).collect::<Vec<_>>(),
        );
        let mut b = HistAccumulator::new(nc, ng);
        for &(c, g) in right {
            b.accumulate_one(c, g);
        }
        a.merge_from(&b);

        // Reference: everything through one per-tuple accumulator, in
        // the same left-then-right order (touched order must agree).
        let mut joint = HistAccumulator::new(nc, ng);
        for &(c, g) in left.iter().chain(right) {
            joint.accumulate_one(c, g);
        }
        // Merge dedups against candidates already touched on the left,
        // so only compare the commutative fields plus the touched *set*.
        assert_eq!(a.tuples(), joint.tuples());
        let mut at: Vec<u32> = a.touched().to_vec();
        let mut jt: Vec<u32> = joint.touched().to_vec();
        at.sort_unstable();
        jt.sort_unstable();
        assert_eq!(at, jt);
        for c in 0..nc {
            assert_eq!(a.n(c), joint.n(c), "n[{c}]");
            assert_eq!(a.candidate_counts(c), joint.candidate_counts(c), "counts[{c}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of `accumulate`, `merge_from` and `clear` over two
    /// accumulators keeps each one's touched-cell list an exact index of
    /// its non-zero cells, no longer than its tuple count; once both are
    /// cleared, every cell of every candidate reads 0.
    #[test]
    fn touched_cells_index_nonzero_cells_through_any_op_sequence(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 1..200),
        ops in prop::collection::vec((0u32..5, 0usize..12), 1..40),
        nc in 1usize..20,
        ng in 1usize..8,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let mut next = 0usize;
        let mut accs = [HistAccumulator::new(nc, ng), HistAccumulator::new(nc, ng)];
        for &(op, len) in &ops {
            match op {
                0 | 1 => {
                    let chunk: Vec<(u32, u32)> =
                        (0..len).map(|j| tuples[(next + j) % tuples.len()]).collect();
                    next += len;
                    let zs: Vec<u32> = chunk.iter().map(|t| t.0).collect();
                    let xs: Vec<u32> = chunk.iter().map(|t| t.1).collect();
                    accs[op as usize].accumulate(&zs, &xs);
                }
                2 => {
                    let [a, b] = &mut accs;
                    a.merge_from(b);
                }
                3 => {
                    let [a, b] = &mut accs;
                    b.merge_from(a);
                }
                _ => accs[len % 2].clear(),
            }
            for acc in &accs {
                assert_cells_index_nonzero(acc);
            }
        }
        for acc in accs.iter_mut() {
            acc.clear();
            prop_assert!(acc.touched_cells().is_empty());
            prop_assert!(acc.touched().is_empty());
            for c in 0..nc {
                prop_assert_eq!(acc.n(c), 0);
                prop_assert!(acc.candidate_counts(c).iter().all(|&v| v == 0), "counts[{c}] not zeroed");
            }
        }
    }

    /// One run fed three ways in lockstep — `ingest_block`, per-tuple
    /// `ingest`, and `accumulate` + `merge_ref` + `clear` through one
    /// reused accumulator — stays byte-identical after every block and
    /// every phase transition: stage 1, stage-2 rounds (with the pruned
    /// rare candidate still arriving in the stream) and stage 3.
    #[test]
    fn ingest_paths_are_byte_identical_across_all_stages(
        seed in 0u64..1_000_000,
        nc in 4u32..9,
        ng in 2u32..6,
        block in 20usize..160,
    ) {
        let target = vec![1.0 / ng as f64; ng as usize];
        let make = || HistSim::new(run_config(), nc as usize, ng as usize, 10_000_000, &target).unwrap();
        let (mut blockwise, mut per_tuple, mut merged) = (make(), make(), make());
        let mut acc = HistAccumulator::new(nc as usize, ng as usize);
        let mut src = Source::new(seed, nc, ng);
        let mut seen_stage2 = false;
        let mut seen_stage3 = false;
        let mut blocks = 0u32;
        while !blockwise.is_done() {
            let (zs, xs) = src.block(block);
            blockwise.ingest_block(&zs, &xs);
            for (&c, &g) in zs.iter().zip(&xs) {
                per_tuple.ingest(c, g);
            }
            acc.accumulate(&zs, &xs);
            merged.merge_ref(&acc);
            acc.clear();
            let reference = format!("{blockwise:?}");
            prop_assert_eq!(&reference, &format!("{per_tuple:?}"), "per-tuple ingest diverged");
            prop_assert_eq!(&reference, &format!("{merged:?}"), "accumulate + merge_ref diverged");
            if blockwise.io_satisfied() {
                for hs in [&mut blockwise, &mut per_tuple, &mut merged] {
                    hs.complete_io_phase(false).unwrap();
                }
                let reference = format!("{blockwise:?}");
                prop_assert_eq!(&reference, &format!("{per_tuple:?}"));
                prop_assert_eq!(&reference, &format!("{merged:?}"));
            }
            seen_stage2 |= blockwise.phase() == PhaseKind::Stage2;
            seen_stage3 |= blockwise.phase() == PhaseKind::Stage3;
            blocks += 1;
            prop_assert!(blocks < 20_000, "run failed to terminate");
        }
        prop_assert!(blockwise.is_pruned(nc - 1), "the rare candidate must be pruned");
        prop_assert!(seen_stage2 && seen_stage3, "run skipped a stage");
        prop_assert!(blockwise.diagnostics().stage2_rounds >= 1);
        let out = format!("{:?}", blockwise.output().unwrap());
        prop_assert_eq!(&out, &format!("{:?}", per_tuple.output().unwrap()));
        prop_assert_eq!(&out, &format!("{:?}", merged.output().unwrap()));
    }
}

/// `HistSim::ingest_block` rejects a bad batch — out-of-domain candidate
/// or group codes, or misaligned column slices — before touching any
/// state, even when a valid prefix precedes the bad code; the run stays
/// usable afterwards.
#[test]
fn rejected_blocks_leave_histsim_untouched() {
    let mut hs = HistSim::new(run_config(), 4, 3, 1_000_000, &[1.0, 1.0, 1.0]).unwrap();
    let mut src = Source::new(7, 4, 3);
    while hs.phase() == PhaseKind::Stage1 {
        let (zs, xs) = src.block(100);
        hs.ingest_block(&zs, &xs);
        if hs.io_satisfied() {
            hs.complete_io_phase(false).unwrap();
        }
    }
    assert_eq!(hs.phase(), PhaseKind::Stage2);
    let bad: [(&[u32], &[u32], &str); 3] = [
        (&[0, 1, 4], &[0, 1, 2], "out of domain"),
        (&[0, 1, 2], &[0, 3, 1], "out of domain"),
        (&[0, 1, 2], &[0, 1], "must align"),
    ];
    for (zs, xs, expect) in bad {
        let before = format!("{hs:?}");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hs.ingest_block(zs, xs);
        }))
        .expect_err("bad block must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains(expect), "panic {msg:?} lacks {expect:?}");
        assert_eq!(before, format!("{hs:?}"), "rejected block mutated state");
    }
    let (zs, xs) = src.block(50);
    hs.ingest_block(&zs, &xs);
}
