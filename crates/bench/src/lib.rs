//! Shared helpers for the criterion benchmarks.
//!
//! The benchmark suite covers the paper's performance claims:
//!
//! * `recording` — Figure 10: insert cost per element for every structure;
//! * `estimation` — latency of the cardinality and joint estimators;
//! * `lsh_queries` — §3.3 use case: LSH index insert/query throughput;
//! * `ablations` — design-choice benchmarks (lower-bound tracking,
//!   binary search vs logarithm, SetSketch1 vs 2), each choice
//!   described in that bench's own module doc.

use sketch_rand::mix64;

/// Deterministic pseudo-distinct elements for benchmark streams.
pub fn bench_elements(stream: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| mix64((stream << 40) | i))
}

/// Standard register counts used across the suite.
pub const BENCH_M: usize = 4096;

/// Cardinalities probed by the recording benchmarks.
pub const BENCH_CARDINALITIES: [u64; 4] = [100, 10_000, 100_000, 1_000_000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_elements_are_distinct() {
        let set: std::collections::HashSet<u64> = bench_elements(1, 1000).collect();
        assert_eq!(set.len(), 1000);
    }
}
