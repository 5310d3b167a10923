//! Seeded inputs: everything a run varies with `--seed` is drawn here,
//! and the program under test only ever receives the generated values.
//!
//! * the order in which a closed-loop client issues queries, and the
//!   executor seed (random scan start) of each query;
//! * the due times of a constant-rate writer and the seed of the rows it
//!   appends.

use std::time::Duration;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`, independent of the
    /// seed's other streams.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Stream ids, so one `--seed` feeds independent draws.
const ORDER_STREAM: u64 = 1;
const APPEND_STREAM: u64 = 2;

/// One issued query: which query of the mix, and its executor seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    /// Index into the workload's query mix.
    pub query: usize,
    /// Seed handed to the executor (random scan start).
    pub seed: u64,
}

/// The query stream of a client: whole cycles over a weighted mix,
/// each cycle a fresh seeded permutation of the mix's multiset, so every
/// prefix of whole cycles holds each query exactly `weight` times per
/// cycle.
#[derive(Debug, Clone)]
pub struct QueryOrder {
    rng: Rng,
    cycle: Vec<usize>,
    pos: usize,
}

impl QueryOrder {
    /// A stream over a mix where query `i` appears `weights[i]` times
    /// per cycle.
    pub fn new(seed: u64, weights: &[usize]) -> QueryOrder {
        let cycle: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(q, &w)| std::iter::repeat_n(q, w))
            .collect();
        assert!(!cycle.is_empty(), "empty query mix");
        let len = cycle.len();
        QueryOrder {
            rng: Rng::stream(seed, ORDER_STREAM),
            cycle,
            pos: len,
        }
    }

    /// True when the next query starts a new cycle.
    pub fn at_cycle_start(&self) -> bool {
        self.pos == self.cycle.len()
    }
}

impl Iterator for QueryOrder {
    type Item = Issue;

    fn next(&mut self) -> Option<Issue> {
        if self.pos == self.cycle.len() {
            let mut cycle = std::mem::take(&mut self.cycle);
            self.rng.shuffle(&mut cycle);
            self.cycle = cycle;
            self.pos = 0;
        }
        let query = self.cycle[self.pos];
        self.pos += 1;
        Some(Issue {
            query,
            seed: self.rng.next_u64(),
        })
    }
}

/// A constant-rate writer's schedule: `batches` batches, one every
/// `interval`, starting at a seeded phase offset within the first
/// interval; plus the seed of the rows it appends.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendSchedule {
    /// Due time of each batch from the start.
    pub due: Vec<Duration>,
    /// Seed of the generated rows the batches carry.
    pub data_seed: u64,
}

impl AppendSchedule {
    /// The schedule for `seed`.
    pub fn new(seed: u64, batches: usize, interval: Duration) -> AppendSchedule {
        let mut rng = Rng::stream(seed, APPEND_STREAM);
        let phase = interval.mul_f64(rng.next_f64());
        AppendSchedule {
            due: (0..batches as u32).map(|i| phase + interval * i).collect(),
            data_seed: rng.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_hold_the_mix_exactly() {
        let weights = [2, 1, 3];
        let order: Vec<Issue> = QueryOrder::new(9, &weights).take(6 * 5).collect();
        for cycle in order.chunks(6) {
            let mut counts = [0usize; 3];
            for i in cycle {
                counts[i.query] += 1;
            }
            assert_eq!(counts, weights);
        }
    }

    #[test]
    fn cycle_start_tracks_position() {
        let mut o = QueryOrder::new(1, &[1, 1]);
        assert!(o.at_cycle_start());
        o.next();
        assert!(!o.at_cycle_start());
        o.next();
        assert!(o.at_cycle_start());
    }

    #[test]
    fn append_schedule_is_evenly_spaced() {
        let s = AppendSchedule::new(4, 10, Duration::from_millis(10));
        assert_eq!(s.due.len(), 10);
        assert!(s.due[0] < Duration::from_millis(10));
        assert_eq!(s.due[9] - s.due[0], Duration::from_millis(90));
    }
}
