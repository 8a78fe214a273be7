//! A minimal, shrink-free property-test harness.
//!
//! This replaces the workspace's previous external `proptest`
//! dependency with a few hundred lines of in-tree code driven by
//! [`ScanRng`]. The trade-offs are deliberate:
//!
//! * **Fixed seeds, fixed case counts.** Every property runs the same
//!   deterministic case sequence on every machine; there is no
//!   persistence file and no flakiness.
//! * **No shrinking.** On failure the harness reports the *exact*
//!   labelled inputs of the failing case plus a one-line reproduction
//!   recipe (property seed + case index), which for the generator
//!   sizes used in this workspace is as actionable as a shrunk case.
//! * **Plain `assert!`.** Property bodies use ordinary assertions;
//!   panics are caught per-case and re-raised with the input trace
//!   attached.
//!
//! # Examples
//!
//! ```
//! use scan_rng::testkit::Runner;
//!
//! Runner::new(64).run("addition commutes", |g| {
//!     let a = g.u64("a", 0, 1000);
//!     let b = g.u64("b", 0, 1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::{derive, ScanRng};

/// Labelled random-input generator handed to each property case.
///
/// Every draw records `label = value` into a trace that is printed if
/// the case fails, so failures are reproducible by reading the report
/// alone.
pub struct Gen {
    rng: ScanRng,
    trace: Vec<String>,
}

impl Gen {
    fn new(rng: ScanRng) -> Self {
        Gen {
            rng,
            trace: Vec::new(),
        }
    }

    fn record(&mut self, label: &str, value: &dyn std::fmt::Debug) {
        self.trace.push(format!("{label} = {value:?}"));
    }

    /// Direct access to the underlying stream for unlabelled draws.
    pub fn rng(&mut self) -> &mut ScanRng {
        &mut self.rng
    }

    /// A uniform `usize` in `[low, high]`, recorded under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn usize(&mut self, label: &str, low: usize, high: usize) -> usize {
        let v = self.rng.gen_range_inclusive(low, high);
        self.record(label, &v);
        v
    }

    /// A uniform `u64` in `[low, high]`, recorded under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn u64(&mut self, label: &str, low: u64, high: u64) -> u64 {
        assert!(low <= high, "u64 range {low}..={high} is empty");
        let v = if low == 0 && high == u64::MAX {
            self.rng.next_u64()
        } else {
            low + self.rng.gen_u64_below(high - low + 1)
        };
        self.record(label, &v);
        v
    }

    /// A uniform `u32` in `[low, high]`, recorded under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn u32(&mut self, label: &str, low: u32, high: u32) -> u32 {
        #[allow(clippy::cast_possible_truncation)] // bounded by `high`
        let v = self.u64_unrecorded(u64::from(low), u64::from(high)) as u32;
        self.record(label, &v);
        v
    }

    /// A uniform `u16` in `[low, high]`, recorded under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn u16(&mut self, label: &str, low: u16, high: u16) -> u16 {
        #[allow(clippy::cast_possible_truncation)] // bounded by `high`
        let v = self.u64_unrecorded(u64::from(low), u64::from(high)) as u16;
        self.record(label, &v);
        v
    }

    fn u64_unrecorded(&mut self, low: u64, high: u64) -> u64 {
        assert!(low <= high, "range {low}..={high} is empty");
        low + self.rng.gen_u64_below(high - low + 1)
    }

    /// A fair boolean, recorded under `label`.
    pub fn bool(&mut self, label: &str) -> bool {
        let v = self.rng.next_bool();
        self.record(label, &v);
        v
    }

    /// A uniform `f64` in `[low, high)`, recorded under `label`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or either bound is not finite.
    pub fn f64(&mut self, label: &str, low: f64, high: f64) -> f64 {
        assert!(low.is_finite() && high.is_finite() && low < high);
        let v = low + self.rng.next_f64() * (high - low);
        self.record(label, &v);
        v
    }

    /// A uniformly chosen element of `options`, recorded under
    /// `label`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn pick<T: Clone + std::fmt::Debug>(&mut self, label: &str, options: &[T]) -> T {
        let v = self
            .rng
            .choose(options)
            .expect("pick requires at least one option")
            .clone();
        self.record(label, &v);
        v
    }

    /// A vector of `min..=max` items drawn by `item` (which receives
    /// the raw stream), recorded as a whole under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn vec<T: std::fmt::Debug>(
        &mut self,
        label: &str,
        min: usize,
        max: usize,
        mut item: impl FnMut(&mut ScanRng) -> T,
    ) -> Vec<T> {
        let len = self.rng.gen_range_inclusive(min, max);
        let v: Vec<T> = (0..len).map(|_| item(&mut self.rng)).collect();
        self.record(label, &v);
        v
    }

    /// A sorted, deduplicated set of `min..=max` items drawn by
    /// `item`, recorded as a whole under `label`. Fewer than `min`
    /// items may result if draws collide.
    pub fn set<T: Ord + std::fmt::Debug>(
        &mut self,
        label: &str,
        min: usize,
        max: usize,
        mut item: impl FnMut(&mut ScanRng) -> T,
    ) -> std::collections::BTreeSet<T> {
        let len = self.rng.gen_range_inclusive(min, max);
        let v: std::collections::BTreeSet<T> = (0..len).map(|_| item(&mut self.rng)).collect();
        self.record(label, &v);
        v
    }

    /// A string of `min..=max` chars drawn uniformly from `alphabet`,
    /// recorded under `label`.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` is empty or `min > max`.
    pub fn string_of(&mut self, label: &str, alphabet: &[char], min: usize, max: usize) -> String {
        let len = self.rng.gen_range_inclusive(min, max);
        let s: String = (0..len)
            .map(|_| *self.rng.choose(alphabet).expect("non-empty alphabet"))
            .collect();
        self.record(label, &s);
        s
    }

    /// A string of `min..=max` printable chars mixing ASCII and a few
    /// non-ASCII ranges (Latin-1 letters, Greek, CJK, emoji), recorded
    /// under `label`.
    ///
    /// # Panics
    ///
    /// Never in practice: every drawn code point lies in a range of
    /// valid Unicode scalar values.
    pub fn unicode_string(&mut self, label: &str, min: usize, max: usize) -> String {
        const RANGES: [(u32, u32); 5] = [
            (0x20, 0x7E),       // printable ASCII
            (0xA1, 0xFF),       // Latin-1 supplement
            (0x391, 0x3C9),     // Greek
            (0x4E00, 0x4E80),   // CJK sample
            (0x1F600, 0x1F640), // emoji
        ];
        let len = self.rng.gen_range_inclusive(min, max);
        let s: String = (0..len)
            .map(|_| {
                let (lo, hi) = RANGES[self.rng.gen_index(RANGES.len())];
                char::from_u32(self.rng.gen_range_u64(u64::from(lo), u64::from(hi) + 1) as u32)
                    .expect("ranges contain only valid scalar values")
            })
            .collect();
        self.record(label, &s);
        s
    }
}

/// Runs one property over a deterministic sequence of generated cases.
///
/// Defaults: 256 cases, a fixed workspace-wide base seed. Each case
/// `i` of a property seeds its [`Gen`] with
/// [`derive`](fn@crate::derive)`(base ^ fnv(name), i)`, so properties are decorrelated
/// from each other and every case is individually reproducible.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    cases: u32,
    seed: u64,
}

/// The workspace-wide default base seed for property streams.
pub const DEFAULT_SEED: u64 = 0x5CA9_B157_2003_0DA7;

impl Default for Runner {
    fn default() -> Self {
        Runner::new(256)
    }
}

impl Runner {
    /// A runner executing `cases` cases per property with the default
    /// base seed.
    #[must_use]
    pub fn new(cases: u32) -> Self {
        Runner {
            cases,
            seed: DEFAULT_SEED,
        }
    }

    /// Overrides the base seed (for reproducing a reported failure).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs `body` over the case sequence, panicking with a labelled
    /// input trace on the first failing case.
    ///
    /// # Panics
    ///
    /// Panics (after printing the failing case's inputs) if any case
    /// panics.
    pub fn run(&self, name: &str, body: impl Fn(&mut Gen)) {
        let property_seed = self.seed ^ fnv1a(name);
        for case in 0..self.cases {
            let rng = ScanRng::seed_from_u64(derive(property_seed, u64::from(case)));
            let mut gen = Gen::new(rng);
            let result = catch_unwind(AssertUnwindSafe(|| body(&mut gen)));
            if let Err(payload) = result {
                let mut report = format!(
                    "property `{name}` failed on case {case}/{} (base seed {:#018X})\n",
                    self.cases, self.seed
                );
                if gen.trace.is_empty() {
                    report.push_str("  (no recorded inputs)\n");
                } else {
                    for line in &gen.trace {
                        let _ = writeln!(report, "  {line}");
                    }
                }
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                let _ = write!(report, "  failure: {msg}");
                panic!("{report}");
            }
        }
    }
}

fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        Runner::new(10).run("counts cases", |_| {
            counter.set(counter.get() + 1);
        });
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn failing_property_reports_inputs() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Runner::new(50).run("always fails", |g| {
                let x = g.usize("x", 10, 20);
                assert!(x > 100, "x was small");
            });
        }));
        let payload = outcome.expect_err("property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("report is a String");
        assert!(msg.contains("always fails"), "missing name: {msg}");
        assert!(msg.contains("x = "), "missing trace: {msg}");
        assert!(msg.contains("x was small"), "missing cause: {msg}");
        assert!(msg.contains("case 0/"), "missing case index: {msg}");
    }

    #[test]
    fn case_streams_are_deterministic() {
        let collect = || {
            let values = std::cell::RefCell::new(Vec::new());
            Runner::new(5).run("stable", |g| {
                values.borrow_mut().push(g.u64("v", 0, u64::MAX));
            });
            values.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn generators_respect_bounds() {
        Runner::new(200).run("bounds", |g| {
            assert!((2..=16).contains(&g.u32("degree", 2, 16)));
            assert!((8..=600).contains(&g.usize("len", 8, 600)));
            let v = g.vec("bits", 0, 10, |r| r.gen_index(100));
            assert!(v.len() <= 10 && v.iter().all(|&b| b < 100));
            let s = g.set("set", 1, 5, |r| r.gen_index(4));
            assert!(!s.is_empty() && s.len() <= 4);
            let uni = g.unicode_string("uni", 1, 8);
            assert!(uni.chars().all(|c| c as u32 >= 0x20));
            let f = g.f64("f", -1e6, 1e6);
            assert!((-1e6..1e6).contains(&f));
        });
    }

    #[test]
    fn pick_chooses_from_options() {
        Runner::new(64).run("pick", |g| {
            let v = g.pick("opt", &[1, 2, 3]);
            assert!((1..=3).contains(&v));
        });
    }
}
