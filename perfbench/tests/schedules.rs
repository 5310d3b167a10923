//! The workload seed fixes every schedule: the same seed gives identical
//! schedules, another seed different ones.

use std::time::Duration;

use perfbench::schedule::{AppendSchedule, Issue, QueryOrder};

fn order(seed: u64, weights: &[usize], n: usize) -> Vec<Issue> {
    QueryOrder::new(seed, weights).take(n).collect()
}

#[test]
fn query_order_is_fixed_by_the_seed() {
    let mem_mix = [1, 1, 1, 3, 1, 1, 1, 1, 1];
    assert_eq!(order(5, &mem_mix, 220), order(5, &mem_mix, 220));
    assert_ne!(order(5, &mem_mix, 220), order(6, &mem_mix, 220));
    // The executor seeds differ too, not only the permutation.
    let a: Vec<u64> = order(5, &[1], 50).iter().map(|i| i.seed).collect();
    let b: Vec<u64> = order(6, &[1], 50).iter().map(|i| i.seed).collect();
    assert_ne!(a, b);
}

#[test]
fn append_schedule_is_fixed_by_the_seed() {
    let interval = Duration::from_millis(10);
    let a = AppendSchedule::new(5, 1000, interval);
    assert_eq!(a, AppendSchedule::new(5, 1000, interval));
    let b = AppendSchedule::new(6, 1000, interval);
    assert_ne!(a.due, b.due);
    assert_ne!(a.data_seed, b.data_seed);
}
