//! Phase-free histogram delta accumulation.
//!
//! [`HistAccumulator`] turns raw `(z, x)` sample batches into
//! per-candidate/per-group *count deltas* without touching any HistSim
//! phase state. That split is what makes multi-core ingestion possible:
//! any number of accumulators can be filled concurrently from disjoint
//! block ranges (no shared mutable state, no locks) and later folded into
//! the authoritative state machine with [`super::HistSim::merge`], or into
//! each other with [`HistAccumulator::merge_from`] for tree reductions.
//!
//! Counts are kept dense (candidate-major, like
//! [`super::state::CountState`]) so accumulation itself is two array
//! increments per tuple. Beside them the accumulator lists its touched
//! *candidates* and its touched *cells* (non-zero `(candidate, group)`
//! slots), so merging and clearing walk only non-zero entries: both cost
//! `O(touched cells + touched candidates)`, at most `O(tuples)`, however
//! large `|V_Z| × |V_X|` is — essential when a 150-tuple block meets a
//! multi-thousand-candidate or multi-hundred-group domain. Accumulators
//! are meant to be reused: [`HistAccumulator::clear`] resets in that same
//! bound without freeing the backing storage.

/// A mergeable batch of per-candidate/per-group count deltas.
///
/// Order-insensitive by construction: accumulating the same multiset of
/// tuples in any order, across any number of accumulators that are then
/// merged, produces the same deltas — the algebraic property the parallel
/// executor's shard workers rely on.
#[derive(Clone)]
pub struct HistAccumulator {
    groups: usize,
    /// Dense per-(candidate, group) deltas, `candidate * groups + g`.
    counts: Vec<u64>,
    /// Cells with a non-zero delta, in first-touch order.
    cells: Vec<u32>,
    /// Per-candidate delta totals.
    n: Vec<u64>,
    /// Candidates with `n > 0`, in first-touch order.
    touched: Vec<u32>,
    /// Total tuples accumulated.
    tuples: u64,
}

/// Manual `Debug` over the *logical* state only. The `cells` list is an
/// index over `counts` whose order depends on how the deltas were folded
/// together — including it would break the byte-identical `Debug`-repr
/// equivalence the shard-merge property tests assert between
/// differently-driven but logically equal states.
impl std::fmt::Debug for HistAccumulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistAccumulator")
            .field("groups", &self.groups)
            .field("counts", &self.counts)
            .field("n", &self.n)
            .field("touched", &self.touched)
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl HistAccumulator {
    /// Creates a zeroed accumulator for a `num_candidates × groups`
    /// domain.
    pub fn new(num_candidates: usize, groups: usize) -> Self {
        assert!(groups > 0, "histograms must have at least one group");
        assert!(
            (num_candidates * groups) as u64 <= 1 << 32,
            "{num_candidates} x {groups} cells exceed u32 cell indices"
        );
        HistAccumulator {
            groups,
            counts: vec![0; num_candidates * groups],
            cells: Vec::new(),
            n: vec![0; num_candidates],
            touched: Vec::new(),
            tuples: 0,
        }
    }

    /// Number of candidates in the domain.
    pub fn num_candidates(&self) -> usize {
        self.n.len()
    }

    /// Number of groups per histogram.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Total tuples accumulated since the last [`Self::clear`].
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Whether no tuples have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Candidates with at least one accumulated tuple, in first-touch
    /// order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Cells (`candidate * groups + group`) with a non-zero delta, in
    /// first-touch order. Never longer than [`Self::tuples`].
    pub fn touched_cells(&self) -> &[u32] {
        &self.cells
    }

    /// The delta of one cell (`candidate * groups + group`).
    pub(crate) fn cell(&self, cell: u32) -> u64 {
        self.counts[cell as usize]
    }

    /// The delta row of one candidate (all `groups` cells).
    pub fn candidate_counts(&self, candidate: usize) -> &[u64] {
        &self.counts[candidate * self.groups..(candidate + 1) * self.groups]
    }

    /// Delta total for one candidate.
    pub fn n(&self, candidate: usize) -> u64 {
        self.n[candidate]
    }

    /// Accumulates one tuple: candidate `c` observed with group `g` —
    /// the per-tuple reference for [`Self::accumulate`].
    ///
    /// # Panics
    /// Panics if `c`/`g` are outside the declared domain.
    #[inline]
    pub fn accumulate_one(&mut self, c: u32, g: u32) {
        let ci = c as usize;
        let gi = g as usize;
        assert!(ci < self.n.len(), "candidate {c} out of domain");
        assert!(gi < self.groups, "group {g} out of domain");
        let cell = ci * self.groups + gi;
        if self.counts[cell] == 0 {
            self.cells.push(cell as u32);
        }
        self.counts[cell] += 1;
        if self.n[ci] == 0 {
            self.touched.push(c);
        }
        self.n[ci] += 1;
        self.tuples += 1;
    }

    /// Accumulates one block's worth of samples: `zs[i]`/`xs[i]` are the
    /// candidate and group codes of the i-th tuple. Equivalent to calling
    /// [`Self::accumulate_one`] per tuple, but implemented as the batched
    /// ingestion kernel: the whole batch is bounds-checked against the
    /// domain **once** (`check_batch`), after which the fused inner
    /// loop runs without per-tuple asserts and without first-touch
    /// branches (see `add_listed`).
    ///
    /// # Panics
    /// Panics on length mismatch or out-of-domain codes.
    pub fn accumulate(&mut self, zs: &[u32], xs: &[u32]) {
        check_batch(zs, xs, self.n.len(), self.groups);
        let groups = self.groups;
        let mut cells = open_list(&mut self.cells, zs.len());
        let mut touched = open_list(&mut self.touched, zs.len());
        for (&c, &g) in zs.iter().zip(xs) {
            let cell = (c as usize * groups + g as usize) as u32;
            add_listed(&mut self.counts, &mut self.cells, &mut cells, cell, 1);
            add_listed(&mut self.n, &mut self.touched, &mut touched, c, 1);
        }
        self.cells.truncate(cells);
        self.touched.truncate(touched);
        self.tuples += zs.len() as u64;
    }

    /// Folds another accumulator's deltas into this one (shard merge /
    /// tree reduction), walking only its touched cells and candidates.
    /// The other accumulator is left untouched.
    ///
    /// # Panics
    /// Panics if the domains differ.
    pub fn merge_from(&mut self, other: &HistAccumulator) {
        assert_eq!(self.groups, other.groups, "group domains must match");
        assert_eq!(self.n.len(), other.n.len(), "candidate domains must match");
        let mut cells = open_list(&mut self.cells, other.cells.len());
        for &cell in &other.cells {
            let d = other.counts[cell as usize];
            add_listed(&mut self.counts, &mut self.cells, &mut cells, cell, d);
        }
        self.cells.truncate(cells);
        let mut touched = open_list(&mut self.touched, other.touched.len());
        for &c in &other.touched {
            let d = other.n[c as usize];
            add_listed(&mut self.n, &mut self.touched, &mut touched, c, d);
        }
        self.touched.truncate(touched);
        self.tuples += other.tuples;
    }

    /// Resets to the zeroed state in `O(touched cells + touched
    /// candidates)`, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        for &cell in &self.cells {
            self.counts[cell as usize] = 0;
        }
        for &c in &self.touched {
            self.n[c as usize] = 0;
        }
        self.cells.clear();
        self.touched.clear();
        self.tuples = 0;
    }
}

/// Grows `list` by `extra` scratch slots for [`add_listed`] and returns
/// its logical length; the caller truncates back to the final length.
#[inline]
fn open_list(list: &mut Vec<u32>, extra: usize) -> usize {
    let len = list.len();
    list.resize(len + extra, 0);
    len
}

/// Adds `d > 0` to `dense[slot]` and lists `slot` if it was zero —
/// without a branch: `slot` is always written at `list[*len]` (a scratch
/// slot from [`open_list`]) and `*len` advances only on a first touch.
/// Whether a tuple repeats an earlier cell or candidate is
/// data-dependent, so as a branch this test would mispredict often and
/// cost more than the counting itself.
#[inline]
fn add_listed(dense: &mut [u64], list: &mut [u32], len: &mut usize, slot: u32, d: u64) {
    let v = dense[slot as usize];
    dense[slot as usize] = v + d;
    list[*len] = slot;
    *len += usize::from(v == 0);
}

/// Checks one `(zs, xs)` batch against a `num_candidates × groups`
/// domain: the columns must align and every code must be in range.
/// Validating once per batch — a branch-free max-fold over each column —
/// lets the ingestion loops that follow run without per-tuple domain
/// checks, and guarantees a rejected batch has mutated nothing. The
/// panic message names the offending code, matching the per-tuple
/// contract.
///
/// # Panics
/// Panics on length mismatch or out-of-domain codes.
pub(crate) fn check_batch(zs: &[u32], xs: &[u32], num_candidates: usize, groups: usize) {
    assert_eq!(zs.len(), xs.len(), "column slices must align");
    if let Some(max_c) = zs.iter().copied().max() {
        assert!(
            (max_c as usize) < num_candidates,
            "candidate {max_c} out of domain"
        );
    }
    if let Some(max_g) = xs.iter().copied().max() {
        assert!((max_g as usize) < groups, "group {max_g} out of domain");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_counts_tuples_and_cells() {
        let mut a = HistAccumulator::new(3, 2);
        a.accumulate(&[0, 2, 0], &[1, 0, 1]);
        assert_eq!(a.tuples(), 3);
        assert_eq!(a.n(0), 2);
        assert_eq!(a.n(1), 0);
        assert_eq!(a.n(2), 1);
        assert_eq!(a.candidate_counts(0), &[0, 2]);
        assert_eq!(a.candidate_counts(2), &[1, 0]);
        assert_eq!(a.touched(), &[0, 2]);
        // cells 0*2+1 and 2*2+0, each listed once
        assert_eq!(a.touched_cells(), &[1, 4]);
        assert_eq!(a.cell(1), 2);
    }

    #[test]
    fn merge_from_equals_joint_accumulation() {
        let zs = [0u32, 1, 2, 1, 0, 2, 2];
        let xs = [0u32, 1, 2, 0, 1, 2, 0];
        let mut joint = HistAccumulator::new(3, 3);
        joint.accumulate(&zs, &xs);
        let mut left = HistAccumulator::new(3, 3);
        let mut right = HistAccumulator::new(3, 3);
        left.accumulate(&zs[..3], &xs[..3]);
        right.accumulate(&zs[3..], &xs[3..]);
        left.merge_from(&right);
        assert_eq!(left.tuples(), joint.tuples());
        for c in 0..3 {
            assert_eq!(
                left.candidate_counts(c),
                joint.candidate_counts(c),
                "candidate {c}"
            );
            assert_eq!(left.n(c), joint.n(c));
        }
        let mut cells = left.touched_cells().to_vec();
        cells.sort_unstable();
        let mut joint_cells = joint.touched_cells().to_vec();
        joint_cells.sort_unstable();
        assert_eq!(cells, joint_cells);
    }

    #[test]
    fn clear_resets_without_shrinking_domain() {
        let mut a = HistAccumulator::new(4, 2);
        a.accumulate(&[3, 3, 1], &[0, 1, 1]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.tuples(), 0);
        assert!(a.touched().is_empty());
        assert!(a.touched_cells().is_empty());
        for c in 0..4 {
            assert_eq!(a.n(c), 0);
            assert_eq!(a.candidate_counts(c), &[0, 0]);
        }
        // reusable after clear
        a.accumulate_one(2, 1);
        assert_eq!(a.n(2), 1);
        assert_eq!(a.touched(), &[2]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_group_panics() {
        HistAccumulator::new(2, 2).accumulate_one(0, 5);
    }

    /// The documented contract: an out-of-domain *candidate* fails the
    /// same explicit "out of domain" assert as an out-of-domain group —
    /// not a raw slice-index panic leaking internal layout.
    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_candidate_panics() {
        HistAccumulator::new(2, 2).accumulate_one(7, 0);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn batch_out_of_domain_candidate_panics() {
        HistAccumulator::new(2, 2).accumulate(&[0, 7], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn batch_out_of_domain_group_panics() {
        HistAccumulator::new(2, 2).accumulate(&[0, 1], &[0, 5]);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_slices_panic() {
        HistAccumulator::new(2, 2).accumulate(&[0, 1], &[0]);
    }

    /// A failed batch must not have mutated anything (validation happens
    /// before the first increment), so the accumulator stays usable.
    #[test]
    fn failed_batch_leaves_state_untouched() {
        let mut a = HistAccumulator::new(2, 2);
        a.accumulate_one(1, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.accumulate(&[0, 9], &[0, 0]);
        }));
        assert!(r.is_err());
        assert_eq!(a.tuples(), 1);
        assert_eq!(a.n(0), 0);
        assert_eq!(a.n(1), 1);
        assert_eq!(a.touched(), &[1]);
    }
}
