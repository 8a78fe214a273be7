//! Span self-time profiles: the aggregation layer that turns a raw
//! [`Snapshot`] into *where did the time go* answers.
//!
//! Two renderings are produced from the same per-path statistics:
//!
//! * a **hot-spot table** — every span path sorted by self time
//!   (wall time excluding children) with its share of the total, for a
//!   quick stderr skim after an instrumented run, and
//! * a **collapsed-stack export** — the `folded` format consumed by
//!   flamegraph tooling (`a;b;c <self_µs>` per line), written by
//!   [`crate::finish`] when [`crate::ObsConfig::profile_path`] is set
//!   and validated by `obs-check`.
//!
//! Self time is attributed per *path*, so a function that appears under
//! several parents shows up once per call chain — exactly the shape a
//! flamegraph needs.

use std::fmt::Write as _;

use crate::registry::Snapshot;

/// One row of the aggregated profile.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct ProfileEntry {
    /// Slash-separated span path (`campaign/fault_sim`).
    pub path: String,
    /// Completed spans under this path.
    pub count: u64,
    /// Total wall time including children, nanoseconds.
    pub total_ns: u64,
    /// Wall time excluding children, nanoseconds.
    pub self_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// The aggregated profile of one snapshot: entries sorted by self time
/// (descending), ties broken by path for a reproducible order.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
pub struct Profile {
    /// Rows, hottest self time first.
    pub entries: Vec<ProfileEntry>,
    /// Sum of self times — the profile's 100% mark.
    pub total_self_ns: u64,
}

impl Profile {
    /// Aggregates `snapshot` into a sorted self-time profile.
    #[must_use]
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let mut entries: Vec<ProfileEntry> = snapshot
            .span_stats
            .iter()
            .map(|(path, stat)| ProfileEntry {
                path: path.clone(),
                count: stat.count,
                total_ns: stat.total_ns,
                self_ns: stat.self_ns,
                max_ns: stat.max_ns,
            })
            .collect();
        entries.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        let total_self_ns = entries.iter().map(|e| e.self_ns).sum();
        Profile {
            entries,
            total_self_ns,
        }
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the collapsed-stack (`folded`) export: one line per span
    /// path, frames separated by `;`, followed by the path's **self**
    /// time in microseconds (flamegraph tools treat the trailing number
    /// as an opaque sample count; microseconds keep small spans
    /// nonzero-ish without overflowing typical viewers).
    ///
    /// Lines follow the sorted entry order (hottest first); paths with
    /// zero self time are kept so the stack structure stays complete.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            let _ = writeln!(
                out,
                "{} {}",
                entry.path.replace('/', ";"),
                entry.self_ns / 1_000
            );
        }
        out
    }

    /// Renders the hot-spot table: one row per path, hottest self time
    /// first, with the share of total self time.
    #[must_use]
    pub fn hotspot_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("obs profile: no spans recorded\n");
            return out;
        }
        out.push_str("obs profile (sorted by self time; self = excluding children)\n");
        for entry in &self.entries {
            let share = if self.total_self_ns == 0 {
                0.0
            } else {
                100.0 * entry.self_ns as f64 / self.total_self_ns as f64
            };
            let _ = writeln!(
                out,
                "{:>6.1}%  self {:>10}   total {:>10}   count {:>7}   max {:>10}   {}",
                share,
                fmt_ns(entry.self_ns),
                fmt_ns(entry.total_ns),
                entry.count,
                fmt_ns(entry.max_ns),
                entry.path,
            );
        }
        let _ = writeln!(out, "total self time {}", fmt_ns(self.total_self_ns));
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Validates collapsed-stack text: every non-empty line must be
/// `frame[;frame…] <count>` with non-empty frames and an unsigned
/// integer count.
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based).
pub fn check_folded(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (index, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: missing sample count", index + 1));
        };
        if count.is_empty() || !count.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!(
                "line {}: sample count `{count}` is not an unsigned integer",
                index + 1
            ));
        }
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty stack frame", index + 1));
        }
    }
    if lines == 0 {
        return Err("empty folded profile".to_owned());
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SpanStat;
    use std::collections::BTreeMap;

    fn snapshot_with(stats: &[(&str, u64, u64, u64, u64)]) -> Snapshot {
        let mut span_stats = BTreeMap::new();
        for &(path, count, total_ns, self_ns, max_ns) in stats {
            span_stats.insert(
                path.to_owned(),
                SpanStat {
                    count,
                    total_ns,
                    self_ns,
                    max_ns,
                },
            );
        }
        Snapshot {
            span_stats,
            ..Snapshot::default()
        }
    }

    #[test]
    fn profile_sorts_by_self_time() {
        let snapshot = snapshot_with(&[
            ("campaign", 1, 10_000, 1_000, 10_000),
            ("campaign/fault_sim", 1, 6_000, 6_000, 6_000),
            ("campaign/diagnose", 1, 3_000, 3_000, 3_000),
        ]);
        let profile = Profile::from_snapshot(&snapshot);
        let paths: Vec<&str> = profile.entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            paths,
            ["campaign/fault_sim", "campaign/diagnose", "campaign"]
        );
        assert_eq!(profile.total_self_ns, 10_000);
    }

    #[test]
    fn folded_golden_output() {
        let snapshot = snapshot_with(&[
            ("campaign", 1, 10_000_000, 1_000_000, 10_000_000),
            ("campaign/fault_sim", 2, 6_000_000, 6_000_000, 4_000_000),
            ("campaign/diagnose", 1, 3_000_000, 3_000_000, 3_000_000),
        ]);
        let folded = Profile::from_snapshot(&snapshot).folded();
        assert_eq!(
            folded,
            "campaign;fault_sim 6000\ncampaign;diagnose 3000\ncampaign 1000\n"
        );
        assert_eq!(check_folded(&folded), Ok(3));
    }

    #[test]
    fn hotspot_table_shows_shares() {
        let snapshot =
            snapshot_with(&[("a", 1, 3_000, 3_000, 3_000), ("b", 1, 1_000, 1_000, 1_000)]);
        let table = Profile::from_snapshot(&snapshot).hotspot_table();
        assert!(table.contains("75.0%"));
        assert!(table.contains("25.0%"));
        assert!(table.starts_with("obs profile"));
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let profile = Profile::from_snapshot(&Snapshot::default());
        assert!(profile.is_empty());
        assert!(profile.hotspot_table().contains("no spans recorded"));
        assert!(profile.folded().is_empty());
    }

    #[test]
    fn check_folded_rejects_malformed_lines() {
        assert!(check_folded("").is_err());
        assert!(check_folded("no_count").is_err());
        assert!(check_folded("a;b 12x").is_err());
        assert!(check_folded("a;; 12").is_err());
        assert!(check_folded(" 12").is_err());
        assert_eq!(check_folded("a;b 12\n\nc 0\n"), Ok(2));
    }
}
