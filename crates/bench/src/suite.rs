//! The `scanbist bench` performance suite: calibrated kernels over the
//! workspace's hot paths, robust summary statistics, and versioned
//! baseline files with regression comparison.
//!
//! Nine kernels cover the pipeline end to end — circuit generation
//! (`netlist_generate`), campaign fault simulation (bit-parallel by
//! default), the raw PPSFP error-map sweep
//! (`fault_sim_bitpar`), MISR compaction of that sweep's error maps
//! into session signatures (`misr_compaction`, the production
//! `analyze_packed`), interval and random-selection partition generation,
//! serial and parallel diagnosis campaigns, and an SOC per-core sweep.
//! Each kernel runs `warmup` untimed repetitions and
//! `repeats` timed ones; samples above `Q3 + 1.5·IQR` are rejected as
//! outliers before the median and p95 are taken, so a single scheduler
//! hiccup does not poison a baseline.
//!
//! Results serialize to `BENCH_<suite>.json` (see `docs/BENCHMARKS.md`
//! for the schema and regression policy), parse back via the vendored
//! [`scan_obs::json`] reader, and compare against a stored baseline
//! with a configurable slowdown threshold.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use scan_bist::partition::{generate_partitions, PartitionConfig};
use scan_bist::Scheme;
use scan_diagnosis::{
    lfsr_patterns, BistConfig, CampaignSpec, ChainLayout, DiagnosisPlan, PreparedCampaign,
};
use scan_netlist::{generate, ScanView};
use scan_obs::json::{parse, Value};
use scan_sim::PpsfpSimulator;
use scan_soc::{CoreModule, Soc};

/// Version stamp written into every baseline file; bump when the JSON
/// schema or kernel definitions change incompatibly.
pub const FORMAT_VERSION: u64 = 1;

/// How a suite run is sized.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Suite name recorded in the output (`diagnosis` by default).
    pub suite: String,
    /// Quick mode: small circuit, few faults — for smoke tests.
    pub quick: bool,
    /// Timed repetitions per kernel.
    pub repeats: usize,
    /// Untimed warmup repetitions per kernel.
    pub warmup: usize,
}

impl SuiteConfig {
    /// The default sizing for a suite: 9 timed repeats (3 in quick
    /// mode) after one warmup. Nine repeats give the `Q3 + 1.5·IQR`
    /// outlier gate enough samples that one scheduler hiccup neither
    /// poisons the median nor (as five repeats regularly did) lands
    /// inside the quartiles and widens the cut itself.
    #[must_use]
    pub fn new(suite: &str, quick: bool) -> Self {
        SuiteConfig {
            suite: suite.to_owned(),
            quick,
            repeats: if quick { 3 } else { 9 },
            warmup: 1,
        }
    }
}

/// Robust summary of one kernel's timed samples.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct KernelStats {
    /// Median of the retained samples, nanoseconds.
    pub median_ns: u64,
    /// 95th percentile of the retained samples, nanoseconds.
    pub p95_ns: u64,
    /// Interquartile range of *all* samples, nanoseconds — the noise
    /// width the outlier cut was derived from.
    pub iqr_ns: u64,
    /// Samples retained after outlier rejection.
    pub samples: u64,
    /// Samples rejected as outliers (above `Q3 + 1.5·IQR`).
    pub dropped: u64,
    /// The rejection cutoff the gate used, `Q3 + 1.5·IQR` nanoseconds —
    /// recorded so a baseline documents *why* samples were dropped.
    pub cutoff_ns: u64,
    /// The rejected samples themselves, ascending nanoseconds. Empty
    /// when nothing was dropped.
    pub dropped_ns: Vec<u64>,
}

/// Summarizes raw per-repeat wall times: computes the IQR over all
/// samples, drops outliers above `Q3 + 1.5·IQR`, and reports the
/// median / p95 of what remains.
///
/// # Panics
///
/// Panics if `samples_ns` is empty.
#[must_use]
pub fn stats_from_samples(samples_ns: &[u64]) -> KernelStats {
    assert!(!samples_ns.is_empty(), "need at least one sample");
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let q1 = percentile(&sorted, 25);
    let q3 = percentile(&sorted, 75);
    let iqr = q3 - q1;
    let cutoff = q3.saturating_add(iqr.saturating_mul(3) / 2);
    let (retained, dropped_ns): (Vec<u64>, Vec<u64>) =
        sorted.iter().copied().partition(|&s| s <= cutoff);
    // Q3 itself always survives the cut, so `retained` is non-empty.
    KernelStats {
        median_ns: percentile(&retained, 50),
        p95_ns: percentile(&retained, 95),
        iqr_ns: iqr,
        samples: retained.len() as u64,
        dropped: dropped_ns.len() as u64,
        cutoff_ns: cutoff,
        dropped_ns,
    }
}

/// The `pct`-th percentile of an ascending-sorted slice, by the
/// nearest-rank method (deterministic, no interpolation).
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let n = sorted.len();
    let rank = (n * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// One full suite run: metadata plus per-kernel statistics.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct SuiteResult {
    /// Schema version ([`FORMAT_VERSION`]).
    pub version: u64,
    /// Suite name.
    pub suite: String,
    /// Whether quick-mode sizing was used.
    pub quick: bool,
    /// Timed repetitions per kernel.
    pub repeats: u64,
    /// Warmup repetitions per kernel.
    pub warmup: u64,
    /// Per-kernel statistics, keyed by kernel name.
    pub kernels: BTreeMap<String, KernelStats>,
}

impl SuiteResult {
    /// Renders the versioned baseline JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            r#"{{"version":{},"suite":"{}","quick":{},"repeats":{},"warmup":{},"kernels":{{"#,
            self.version, self.suite, self.quick, self.repeats, self.warmup
        );
        for (i, (name, k)) in self.kernels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let dropped_ns = k
                .dropped_ns
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                r#""{name}":{{"median_ns":{},"p95_ns":{},"iqr_ns":{},"samples":{},"dropped":{},"cutoff_ns":{},"dropped_ns":[{dropped_ns}]}}"#,
                k.median_ns, k.p95_ns, k.iqr_ns, k.samples, k.dropped, k.cutoff_ns
            );
        }
        out.push_str("}}\n");
        out
    }

    /// Parses a baseline document written by [`SuiteResult::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message if the text is not valid JSON, carries a
    /// different [`FORMAT_VERSION`], or is missing members.
    // Nanosecond counts fit f64's 53-bit mantissa for any realistic
    // benchmark duration, and negatives are clamped before the cast.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = parse(text).map_err(|e| format!("bench baseline: {e}"))?;
        let num = |v: &Value, member: &str| -> Result<u64, String> {
            v.get(member)
                .and_then(Value::as_f64)
                .map(|x| x.max(0.0) as u64)
                .ok_or_else(|| format!("bench baseline missing numeric \"{member}\""))
        };
        let version = num(&value, "version")?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "bench baseline version {version} unsupported (expected {FORMAT_VERSION})"
            ));
        }
        let suite = value
            .get("suite")
            .and_then(Value::as_str)
            .ok_or("bench baseline missing \"suite\"")?
            .to_owned();
        let quick = matches!(value.get("quick"), Some(Value::Bool(true)));
        let repeats = num(&value, "repeats")?;
        let warmup = num(&value, "warmup")?;
        let kernel_values = value
            .get("kernels")
            .and_then(Value::as_object)
            .ok_or("bench baseline missing \"kernels\" object")?;
        let mut kernels = BTreeMap::new();
        for (name, k) in kernel_values {
            // `cutoff_ns` / `dropped_ns` arrived with the drop-reason
            // reporting; older baselines lack them, so they default.
            let cutoff_ns = num(k, "cutoff_ns").unwrap_or(0);
            let dropped_ns = k
                .get("dropped_ns")
                .and_then(Value::as_array)
                .map(|values| {
                    values
                        .iter()
                        .filter_map(Value::as_f64)
                        .map(|x| x.max(0.0) as u64)
                        .collect()
                })
                .unwrap_or_default();
            kernels.insert(
                name.clone(),
                KernelStats {
                    median_ns: num(k, "median_ns")?,
                    p95_ns: num(k, "p95_ns")?,
                    iqr_ns: num(k, "iqr_ns")?,
                    samples: num(k, "samples")?,
                    dropped: num(k, "dropped")?,
                    cutoff_ns,
                    dropped_ns,
                },
            );
        }
        if kernels.is_empty() {
            return Err("bench baseline has no kernels".into());
        }
        Ok(SuiteResult {
            version,
            suite,
            quick,
            repeats,
            warmup,
            kernels,
        })
    }

    /// Renders the human-readable result table (one row per kernel).
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "bench suite `{}`{} — {} repeat(s), {} warmup\n",
            self.suite,
            if self.quick { " (quick)" } else { "" },
            self.repeats,
            self.warmup
        );
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>12} {:>8}",
            "kernel", "median", "p95", "iqr", "dropped"
        );
        for (name, k) in &self.kernels {
            let _ = writeln!(
                out,
                "{name:<22} {:>12} {:>12} {:>12} {:>8}",
                fmt_ns(k.median_ns),
                fmt_ns(k.p95_ns),
                fmt_ns(k.iqr_ns),
                k.dropped
            );
        }
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

/// One kernel that got slower than the baseline allows.
#[derive(Clone, PartialEq, Debug)]
pub struct Regression {
    /// Kernel name.
    pub kernel: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// Current median, nanoseconds.
    pub current_ns: u64,
    /// `current / baseline` slowdown ratio.
    pub ratio: f64,
}

/// The outcome of comparing a run against a baseline.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Comparison {
    /// Kernels slower than `baseline · (1 + threshold)`.
    pub regressions: Vec<Regression>,
    /// Baseline kernels absent from the current run.
    pub missing: Vec<String>,
    /// Kernels present in both runs.
    pub compared: usize,
}

impl Comparison {
    /// True when no kernel regressed and none disappeared.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Renders the comparison verdict for stderr.
    #[must_use]
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION {}: median {} -> {} ({:.2}x, threshold {:.2}x)",
                r.kernel,
                fmt_ns(r.baseline_ns),
                fmt_ns(r.current_ns),
                r.ratio,
                1.0 + threshold
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "MISSING kernel `{name}` (present in baseline)");
        }
        let _ = writeln!(
            out,
            "baseline comparison: {} kernel(s) compared, {} regression(s), {} missing -> {}",
            self.compared,
            self.regressions.len(),
            self.missing.len(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Compares `current` against `baseline`: a kernel regresses when its
/// current median exceeds the baseline median by more than `threshold`
/// (a fraction — `0.5` allows up to 1.5× the baseline). Kernels only
/// present on one side are never regressions, but baseline kernels
/// missing from `current` fail the comparison.
#[must_use]
pub fn compare(current: &SuiteResult, baseline: &SuiteResult, threshold: f64) -> Comparison {
    let mut comparison = Comparison::default();
    for (name, base) in &baseline.kernels {
        let Some(cur) = current.kernels.get(name) else {
            comparison.missing.push(name.clone());
            continue;
        };
        comparison.compared += 1;
        let limit = base.median_ns as f64 * (1.0 + threshold);
        if cur.median_ns as f64 > limit {
            comparison.regressions.push(Regression {
                kernel: name.clone(),
                baseline_ns: base.median_ns,
                current_ns: cur.median_ns,
                ratio: cur.median_ns as f64 / (base.median_ns as f64).max(1.0),
            });
        }
    }
    comparison
}

/// Times `body` for `warmup` untimed plus `repeats` timed repetitions.
fn time_kernel<T>(warmup: usize, repeats: usize, mut body: impl FnMut() -> T) -> Vec<u64> {
    for _ in 0..warmup {
        black_box(body());
    }
    (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(body());
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect()
}

/// Runs every kernel of the suite. `on_kernel` is called after each
/// kernel finishes (for progress reporting on stderr).
///
/// # Panics
///
/// Panics only if the embedded benchmark circuits fail to prepare,
/// which would mean the workspace itself is broken.
#[allow(clippy::too_many_lines)]
pub fn run_suite(
    config: &SuiteConfig,
    mut on_kernel: impl FnMut(&str, &KernelStats),
) -> SuiteResult {
    let _span = scan_obs::span!("bench_suite");
    let (circuit, patterns, faults) = if config.quick {
        ("s298", 32, 30)
    } else {
        ("s953", 128, 150)
    };
    let (groups, partitions) = if config.quick { (4u16, 4usize) } else { (8, 8) };
    let netlist = generate::benchmark(circuit);
    let mut spec = CampaignSpec::new(patterns, groups, partitions);
    spec.num_faults = faults;
    let campaign =
        PreparedCampaign::from_circuit(&netlist, &spec).expect("embedded benchmark prepares");
    let chain_len = campaign.layout().num_cells();

    let mut kernels = BTreeMap::new();
    let record = |name: &str,
                  kernels: &mut BTreeMap<String, KernelStats>,
                  samples: Vec<u64>,
                  on_kernel: &mut dyn FnMut(&str, &KernelStats)| {
        let stats = stats_from_samples(&samples);
        on_kernel(name, &stats);
        kernels.insert(name.to_owned(), stats);
    };

    let generated = if config.quick { "s298" } else { "s5378" };
    let samples = time_kernel(config.warmup, config.repeats, || {
        generate::benchmark(generated)
    });
    record("netlist_generate", &mut kernels, samples, &mut on_kernel);

    let samples = time_kernel(config.warmup, config.repeats, || {
        PreparedCampaign::from_circuit(&netlist, &spec).expect("embedded benchmark prepares")
    });
    record("fault_sim", &mut kernels, samples, &mut on_kernel);

    // The raw bit-parallel error-map sweep, isolated from campaign
    // setup: the engine and the detected-fault sample are prepared
    // once, the timed body re-simulates every sampled fault.
    let view = ScanView::natural(&netlist, spec.include_outputs);
    let pattern_set = lfsr_patterns(&netlist, patterns, spec.prpg_seed);
    let mut psim =
        PpsfpSimulator::new(&netlist, &view, &pattern_set).expect("embedded benchmark prepares");
    let sample: Vec<(scan_sim::Fault, scan_sim::ErrorMap)> =
        psim.sample_detected_with_maps(faults, spec.fault_seed);
    let samples = time_kernel(config.warmup, config.repeats, || {
        let mut failing = 0usize;
        for (fault, _) in &sample {
            failing += psim.error_map(fault).failing_positions().len();
        }
        failing
    });
    record("fault_sim_bitpar", &mut kernels, samples, &mut on_kernel);

    // MISR compaction as production runs it: every session signature of
    // the sampled faults' error maps, straight from their packed words.
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        patterns,
        &BistConfig::new(groups, partitions, Scheme::TWO_STEP_DEFAULT),
    )
    .expect("embedded benchmark plan builds");
    let samples = time_kernel(config.warmup, config.repeats, || {
        let mut failing = 0usize;
        for (_, map) in &sample {
            let outcome = plan.analyze_packed(map.iter_words());
            failing += (0..partitions)
                .map(|p| outcome.failing_groups(p).count())
                .sum::<usize>();
        }
        failing
    });
    record("misr_compaction", &mut kernels, samples, &mut on_kernel);

    let partition_config = PartitionConfig::new(chain_len, groups);
    let samples = time_kernel(config.warmup, config.repeats, || {
        generate_partitions(&partition_config, Scheme::IntervalBased, partitions)
    });
    record("partition_interval", &mut kernels, samples, &mut on_kernel);

    let samples = time_kernel(config.warmup, config.repeats, || {
        generate_partitions(&partition_config, Scheme::RandomSelection, partitions)
    });
    record("partition_random", &mut kernels, samples, &mut on_kernel);

    let samples = time_kernel(config.warmup, config.repeats, || {
        campaign
            .run(Scheme::TWO_STEP_DEFAULT)
            .expect("prepared campaign runs")
    });
    record("diagnosis_serial", &mut kernels, samples, &mut on_kernel);

    let samples = time_kernel(config.warmup, config.repeats, || {
        campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
            .expect("prepared campaign runs")
    });
    record("diagnosis_parallel", &mut kernels, samples, &mut on_kernel);

    let core_names: &[&str] = if config.quick {
        &["s298", "s344"]
    } else {
        &["s298", "s344", "s386"]
    };
    let cores: Vec<CoreModule> = core_names
        .iter()
        .map(|name| CoreModule::new(generate::benchmark(name)))
        .collect();
    let soc = Soc::single_chain("bench", cores).expect("bench SOC builds");
    let mut soc_spec = CampaignSpec::new(patterns, groups, partitions.min(4));
    soc_spec.num_faults = if config.quick { 10 } else { 50 };
    let samples = time_kernel(config.warmup, config.repeats, || {
        let mut accuracy = 0.0;
        for core in 0..soc.cores().len() {
            let prepared =
                PreparedCampaign::from_soc(&soc, core, &soc_spec).expect("bench SOC prepares");
            let localization = prepared
                .run_localization(Scheme::TWO_STEP_DEFAULT)
                .expect("bench SOC localizes");
            accuracy += localization.top1_accuracy;
        }
        accuracy
    });
    record("soc_sweep", &mut kernels, samples, &mut on_kernel);

    SuiteResult {
        version: FORMAT_VERSION,
        suite: config.suite.clone(),
        quick: config.quick,
        repeats: config.repeats as u64,
        warmup: config.warmup as u64,
        kernels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(median: u64) -> KernelStats {
        KernelStats {
            median_ns: median,
            p95_ns: median + 10,
            iqr_ns: 5,
            samples: 5,
            dropped: 0,
            cutoff_ns: median + 20,
            dropped_ns: Vec::new(),
        }
    }

    fn result(kernels: &[(&str, u64)]) -> SuiteResult {
        SuiteResult {
            version: FORMAT_VERSION,
            suite: "diagnosis".into(),
            quick: false,
            repeats: 5,
            warmup: 1,
            kernels: kernels
                .iter()
                .map(|&(name, m)| (name.to_owned(), stats(m)))
                .collect(),
        }
    }

    #[test]
    fn stats_reject_outliers() {
        // Nine tight samples and one scheduler hiccup 100× larger.
        let mut samples = vec![100, 101, 99, 102, 100, 98, 103, 100, 101];
        samples.push(10_000);
        let s = stats_from_samples(&samples);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.samples, 9);
        assert!(s.median_ns <= 103, "median {} polluted", s.median_ns);
        assert!(s.p95_ns <= 103, "p95 {} polluted", s.p95_ns);
        // The gate documents its decision: the cutoff it applied and
        // the samples it rejected.
        assert!(
            s.cutoff_ns < 10_000,
            "cutoff {} let the hiccup in",
            s.cutoff_ns
        );
        assert_eq!(s.dropped_ns, vec![10_000]);
    }

    #[test]
    fn stats_of_single_sample() {
        let s = stats_from_samples(&[42]);
        assert_eq!(s.median_ns, 42);
        assert_eq!(s.p95_ns, 42);
        assert_eq!(s.iqr_ns, 0);
        assert_eq!((s.samples, s.dropped), (1, 0));
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile(&sorted, 50), 20);
        assert_eq!(percentile(&sorted, 95), 40);
        assert_eq!(percentile(&sorted, 25), 10);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let original = result(&[("fault_sim", 1_000), ("misr_compaction", 2_000)]);
        let text = original.to_json();
        let parsed = SuiteResult::from_json(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(SuiteResult::from_json("not json").is_err());
        assert!(SuiteResult::from_json(r#"{"version":99,"suite":"x","kernels":{}}"#).is_err());
        assert!(SuiteResult::from_json(
            r#"{"version":1,"suite":"x","repeats":1,"warmup":0,"kernels":{}}"#
        )
        .is_err());
    }

    #[test]
    fn identical_runs_pass_comparison() {
        let run = result(&[("a", 100), ("b", 2_000)]);
        let comparison = compare(&run, &run.clone(), 0.5);
        assert!(comparison.passed());
        assert_eq!(comparison.compared, 2);
    }

    #[test]
    fn doubled_median_fails_comparison() {
        let baseline = result(&[("a", 1_000), ("b", 2_000)]);
        let mut slow = baseline.clone();
        slow.kernels.get_mut("a").unwrap().median_ns = 2_000;
        let comparison = compare(&slow, &baseline, 0.5);
        assert!(!comparison.passed());
        assert_eq!(comparison.regressions.len(), 1);
        assert_eq!(comparison.regressions[0].kernel, "a");
        assert!((comparison.regressions[0].ratio - 2.0).abs() < 1e-9);
        assert!(comparison.render(0.5).contains("REGRESSION a"));
    }

    #[test]
    fn missing_kernel_fails_comparison() {
        let baseline = result(&[("a", 100), ("b", 200)]);
        let current = result(&[("a", 100)]);
        let comparison = compare(&current, &baseline, 0.5);
        assert!(!comparison.passed());
        assert_eq!(comparison.missing, vec!["b".to_owned()]);
        // Extra kernels in the current run are fine.
        let comparison = compare(&baseline, &current, 0.5);
        assert!(comparison.passed());
    }

    #[test]
    fn quick_suite_runs_and_serializes() {
        let config = SuiteConfig {
            suite: "smoke".into(),
            quick: true,
            repeats: 1,
            warmup: 0,
        };
        let mut seen = Vec::new();
        let result = run_suite(&config, |name, _| seen.push(name.to_owned()));
        assert_eq!(result.kernels.len(), 9);
        assert!(seen.contains(&"netlist_generate".to_owned()));
        assert!(seen.contains(&"diagnosis_serial".to_owned()));
        assert!(seen.contains(&"fault_sim_bitpar".to_owned()));
        assert!(seen.contains(&"misr_compaction".to_owned()));
        for (name, k) in &result.kernels {
            assert!(k.samples >= 1, "kernel {name} lost all samples");
        }
        let parsed = SuiteResult::from_json(&result.to_json()).unwrap();
        assert_eq!(parsed, result);
        assert!(result.table().contains("fault_sim"));
    }
}
