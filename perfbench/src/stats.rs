//! Order statistics and digests shared by every workload.

/// Nearest-rank percentile `q` (0 < q <= 100) of `samples`; `None` when
/// there are no samples.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1])
}

/// The 1-based nearest rank of percentile `q` among `n` samples; the
/// small slack keeps `q * n / 100` from rounding up past an exact rank.
fn rank(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    {
        (q * n as f64 / 100.0 - 1e-9).ceil() as usize
    }
}

/// The monotonic clock every timing of the benchmark reads.
#[must_use]
pub fn now() -> std::time::Instant {
    // lint:allow(L003): timing the workspace's public calls is what this package is for
    std::time::Instant::now()
}

/// The median (nearest-rank p50).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether at least ten of `n` samples lie beyond nearest-rank
/// percentile `q` — the condition under which a tail percentile is
/// reported as measured rather than as the slowest few samples.
#[must_use]
pub fn has_ten_beyond(n: usize, q: f64) -> bool {
    n >= 1 && n.saturating_sub(rank(n, q).max(1)) >= 10
}

/// The highest of the usual reporting percentiles that has at least
/// ten samples beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&q| has_ten_beyond(n, q))
}

/// Host CPU time stolen from this machine so far (all CPUs), in ms,
/// from the `steal` column of `/proc/stat`; 0 where that is
/// unavailable. The counter ticks every 10 ms of stolen time.
#[must_use]
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`).
pub const TICKS_PER_S: f64 = 100.0;

/// CPU clock ticks (user + system) from the `utime` and `stime` fields
/// of a `/proc/.../stat` file; 0 where that is unavailable.
fn stat_cpu_ticks(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name start at `state`
    // (field 3), so `utime` (14) and `stime` (15) are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => user + system,
        _ => 0,
    }
}

/// CPU ticks used so far by this process, all threads, ended ones
/// included.
#[must_use]
pub fn process_cpu_ticks() -> u64 {
    stat_cpu_ticks("/proc/self/stat")
}

/// CPU ticks used so far by the calling thread.
#[must_use]
pub fn thread_cpu_ticks() -> u64 {
    stat_cpu_ticks("/proc/thread-self/stat")
}

/// The lower quartile (nearest rank) of per-unit statistics: a
/// best-of-N estimate over measurement units (passes or windows) that
/// other tenants' load on a shared host can only slow down.
#[must_use]
pub fn lower_quartile(per_unit: &[f64]) -> Option<f64> {
    percentile(per_unit, 25.0)
}

/// 64-bit FNV-1a over a byte stream, used to pin candidate sets and
/// rendered tables against the recorded reference.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn usize(&mut self, value: usize) {
        self.bytes(&(value as u64).to_le_bytes());
    }

    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of per-fault candidate sets: the set sizes and members in
/// fault order.
#[must_use]
pub fn digest_sets(sets: &[Vec<usize>]) -> String {
    let mut h = Fnv::default();
    for set in sets {
        h.usize(set.len());
        for &cell in set {
            h.usize(cell);
        }
    }
    h.hex()
}

/// Exact rendering of a float for reference comparison.
#[must_use]
pub fn bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 beyond it; of 999, 9.
        assert!(has_ten_beyond(1000, 99.0));
        assert!(!has_ten_beyond(999, 99.0));
        assert!(has_ten_beyond(100, 90.0));
        assert!(!has_ten_beyond(99, 90.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(250), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn lower_quartile_is_the_best_of_two_and_robust_to_a_slow_tail() {
        assert_eq!(lower_quartile(&[9.2, 7.7]), Some(7.7));
        let units = [1.0, 1.1, 0.9, 1.05, 5.0, 6.0, 0.95, 1.0];
        assert_eq!(lower_quartile(&units), Some(0.95));
        assert_eq!(lower_quartile(&[]), None);
    }

    #[test]
    fn cpu_counters_grow_with_work() {
        let (process, thread) = (process_cpu_ticks(), thread_cpu_ticks());
        let start = now();
        let mut x = 0u64;
        while start.elapsed().as_secs_f64() < 0.1 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(thread_cpu_ticks() > thread, "thread CPU did not grow");
        assert!(process_cpu_ticks() > process, "process CPU did not grow");
    }

    #[test]
    fn digests_see_every_member_and_boundary() {
        let a = digest_sets(&[vec![1, 2], vec![3]]);
        let b = digest_sets(&[vec![1], vec![2, 3]]);
        let c = digest_sets(&[vec![1, 2], vec![4]]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, digest_sets(&[vec![1, 2], vec![3]]));
    }
}
