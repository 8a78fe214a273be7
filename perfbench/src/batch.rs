//! The two batch workloads: `paper-large` (Table 2 regenerated
//! in-process) and `campaign-mix` (a fixed list of mid-size campaigns
//! over circuits and an SOC built in set-up).
//!
//! Both run a fixed list of blocks per pass, in an order drawn from the
//! seed; their inputs are otherwise fixed so every output can be
//! checked bit for bit against `reference.txt`, recorded from the
//! commit that introduced the benchmark. Each public call is timed and
//! a pass's wall time is the sum of its calls, so the checks between
//! calls are not timed. Every pass makes the same calls in the same
//! order, so each call has one time per pass.

use std::collections::BTreeMap;

use scan_bench::{fmt_dr, render_table, table2_spec};
use scan_bist::Scheme;
use scan_diagnosis::{
    CampaignSpec, NoiseConfig, NoiseModel, PreparedCampaign, RobustPolicy, RobustReport,
    SchemeReport,
};
use scan_netlist::generate::{self, SIX_LARGEST};
use scan_netlist::Netlist;
use scan_soc::{CoreModule, Soc};

use crate::chain;
use crate::stats::now;
use crate::stats::{bits, digest_sets, lower_quartile};
use crate::trace::Local;

/// Output facts of a pass, `key -> exact value`.
pub type Facts = BTreeMap<String, String>;

/// What the measured phase of a batch workload produced.
#[derive(Default)]
pub struct Measured {
    /// Host seconds of every pass (the sum of its timed calls).
    pub passes_s: Vec<f64>,
    /// Host seconds of each timed call of every pass, in call order.
    pub calls_s: Vec<Vec<f64>>,
    /// Facts of the first pass, digests included.
    pub facts: Facts,
    /// Facts of the later passes, which must equal the first pass's.
    pub later: Vec<Facts>,
    /// Invariant violations, one line each.
    pub violations: Vec<String>,
    /// The regenerated Table 2, for `paper-large`.
    pub table: Option<String>,
}

/// Records the timed calls of one pass.
#[derive(Default)]
struct Stopwatch {
    calls_s: Vec<f64>,
}

impl Stopwatch {
    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = now();
        let out = std::hint::black_box(f());
        self.calls_s.push(start.elapsed().as_secs_f64());
        out
    }
}

/// Runs passes of `pass` until their measured time reaches `seconds`;
/// at least one runs.
fn run_passes<F>(seconds: f64, mut pass: F) -> Measured
where
    F: FnMut(&mut Stopwatch, bool) -> Facts,
{
    let mut measured = Measured::default();
    loop {
        let first = measured.passes_s.is_empty();
        let mut sw = Stopwatch::default();
        let facts = pass(&mut sw, first);
        measured.passes_s.push(sw.calls_s.iter().sum());
        measured.calls_s.push(sw.calls_s);
        if first {
            measured.facts = facts;
        } else {
            measured.later.push(facts);
        }
        if measured.passes_s.iter().sum::<f64>() >= seconds {
            return measured;
        }
    }
}

fn report_facts(facts: &mut Facts, prefix: &str, r: &SchemeReport) {
    facts.insert(format!("{prefix}/faults"), r.faults.to_string());
    facts.insert(format!("{prefix}/dr"), bits(r.dr));
    facts.insert(format!("{prefix}/dr_pruned"), bits(r.dr_pruned));
    facts.insert(format!("{prefix}/mean_candidates"), bits(r.mean_candidates));
    facts.insert(format!("{prefix}/mean_actual"), bits(r.mean_actual));
    facts.insert(format!("{prefix}/lost_cells"), r.lost_cells.to_string());
    let prefix_drs: Vec<String> = r.dr_by_prefix.iter().map(|&d| bits(d)).collect();
    facts.insert(format!("{prefix}/dr_by_prefix"), prefix_drs.join(","));
}

fn robust_facts(facts: &mut Facts, prefix: &str, r: &RobustReport) {
    for (key, value) in [
        ("faults", r.faults),
        ("exact", r.exact),
        ("degraded", r.degraded),
        ("inconclusive", r.inconclusive),
        ("fallbacks", r.fallbacks),
        ("strict_failures", r.strict_failures),
        ("recovered", r.recovered),
        ("hits", r.hits),
    ] {
        facts.insert(format!("{prefix}/{key}"), value.to_string());
    }
    facts.insert(format!("{prefix}/retry_rounds"), r.retry_rounds.to_string());
    facts.insert(
        format!("{prefix}/retried_sessions"),
        r.retried_sessions.to_string(),
    );
    facts.insert(format!("{prefix}/dr"), bits(r.dr));
    facts.insert(format!("{prefix}/mean_candidates"), bits(r.mean_candidates));
}

fn scheme_label(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::RandomSelection => "random",
        Scheme::IntervalBased => "interval",
        Scheme::FixedInterval => "fixed",
        _ => "two-step",
    }
}

/// The first-pass invariants of a strict campaign: serial equals
/// parallel, zero-noise robust equals strict, and the candidate sets'
/// digest (a fact checked against the reference).
fn check_strict(
    facts: &mut Facts,
    violations: &mut Vec<String>,
    prefix: &str,
    campaign: &PreparedCampaign,
    scheme: Scheme,
    parallel: &SchemeReport,
) {
    let serial = campaign.run(scheme).expect("serial run");
    let (mut a, mut b) = (Facts::new(), Facts::new());
    report_facts(&mut a, prefix, &serial);
    report_facts(&mut b, prefix, parallel);
    if a != b {
        violations.push(format!("{prefix}: serial and parallel reports differ"));
    }
    let noiseless = NoiseModel::new(NoiseConfig::noiseless(7)).expect("noiseless model");
    let robust = campaign
        .run_robust(scheme, &noiseless, &RobustPolicy::default())
        .expect("noiseless robust run");
    if robust.exact != robust.faults
        || robust.dr.to_bits() != serial.dr.to_bits()
        || robust.mean_candidates.to_bits() != serial.mean_candidates.to_bits()
    {
        violations.push(format!("{prefix}: zero-noise robust differs from strict"));
    }
    let sets = campaign.candidate_sets(scheme).expect("candidate sets");
    facts.insert(format!("{prefix}/candidates"), digest_sets(&sets));
}

/// The order in which a pass visits `n` blocks, drawn from the seed.
fn block_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    scan_rng::ScanRng::seed_from_u64(scan_rng::derive(seed, 0xB10C)).shuffle(&mut order);
    order
}

// ---------------------------------------------------------------- paper-large

const PAPER_SCHEMES: [Scheme; 2] = [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT];

/// `paper-large` set-up: a warm-up campaign on a circuit outside the
/// table (allocator, thread start-up, code pages).
pub fn paper_setup(threads: usize) {
    let netlist = generate::benchmark("s9234");
    let campaign =
        PreparedCampaign::from_circuit(&netlist, &table2_spec()).expect("warm-up campaign");
    std::hint::black_box(
        campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, threads)
            .expect("warm-up run"),
    );
}

/// Table 2 in the layout of the `table2` binary, rows in paper order.
fn render_table2(rows: &BTreeMap<usize, Vec<String>>) -> String {
    let spec = table2_spec();
    let rows: Vec<Vec<String>> = rows.values().cloned().collect();
    format!(
        "Table 2 — six largest ISCAS-89, {} patterns, {} groups, {} partitions, {} faults\n\n{}\n",
        spec.num_patterns,
        spec.groups,
        spec.partitions,
        spec.num_faults,
        render_table(
            &[
                "circuit",
                "faults",
                "DR random",
                "DR two-step",
                "DR random (pruned)",
                "DR two-step (pruned)",
            ],
            &rows
        )
    )
}

/// The measured phase of `paper-large`.
pub fn paper_measure(seed: u64, seconds: f64, threads: usize) -> Measured {
    let spec = table2_spec();
    let order = block_order(seed, SIX_LARGEST.len());
    let mut table = None;
    let mut violations = Vec::new();
    let mut measured = run_passes(seconds, |sw, first| {
        let mut facts = Facts::new();
        let mut rows = BTreeMap::new();
        for &block in &order {
            let name = SIX_LARGEST[block];
            let netlist = sw.timed(|| generate::benchmark(name));
            let campaign = sw
                .timed(|| PreparedCampaign::from_circuit(&netlist, &spec))
                .expect("table 2 campaign");
            let mut drs = Vec::new();
            for scheme in PAPER_SCHEMES {
                let report = sw
                    .timed(|| campaign.run_parallel(scheme, threads))
                    .expect("table 2 run");
                let prefix = format!("paper-large/{name}/{}", scheme_label(scheme));
                report_facts(&mut facts, &prefix, &report);
                if first {
                    check_strict(
                        &mut facts,
                        &mut violations,
                        &prefix,
                        &campaign,
                        scheme,
                        &report,
                    );
                }
                drs.push((report.dr, report.dr_pruned));
            }
            rows.insert(
                block,
                vec![
                    name.to_owned(),
                    campaign.num_faults().to_string(),
                    fmt_dr(drs[0].0),
                    fmt_dr(drs[1].0),
                    fmt_dr(drs[0].1),
                    fmt_dr(drs[1].1),
                ],
            );
        }
        if first {
            let text = render_table2(&rows);
            let mut h = crate::stats::Fnv::default();
            h.bytes(text.as_bytes());
            facts.insert("paper-large/table".to_owned(), h.hex());
            table = Some(text);
        }
        facts
    });
    measured.violations = violations;
    measured.table = table;
    measured
}

/// The traced pass of `paper-large`, on the calling thread; returns the
/// traced DRs keyed like the facts (`.../dr` and `.../dr_pruned`).
pub fn paper_traced(local: &mut Local<'_>, seed: u64) -> Facts {
    let spec = table2_spec();
    let mut drs = Facts::new();
    local.enter("pass");
    for block in block_order(seed, SIX_LARGEST.len()) {
        let name = SIX_LARGEST[block];
        let netlist = local.time("netlist.generate", || generate::benchmark(name));
        local.add("netlist.gates", netlist.num_gates() as f64);
        let cases = chain::prepare(local, &netlist, &spec, 1);
        for scheme in PAPER_SCHEMES {
            let (dr, pruned) = chain::run(local, &cases, &spec, scheme);
            let prefix = format!("paper-large/{name}/{}", scheme_label(scheme));
            drs.insert(format!("{prefix}/dr"), bits(dr));
            drs.insert(format!("{prefix}/dr_pruned"), bits(pruned));
        }
    }
    local.exit();
    drs
}

// ---------------------------------------------------------------- campaign-mix

/// Mid-size circuits the strict campaigns run on.
const MIX_CIRCUITS: [&str; 3] = ["s5378", "s9234", "s13207"];
/// The circuit of the noisy campaign.
const MIX_ROBUST: &str = "s13207";
/// The circuit of the multiplet campaign.
const MIX_MULTIPLET: &str = "s9234";
/// The SOC: four mid-size cores on four balanced meta chains; faults go
/// into the last core.
const MIX_SOC_CORES: [&str; 4] = ["s838", "s1423", "s5378", "s9234"];
const MIX_SOC_FAULTY: usize = 3;
const MIX_SCHEMES: [Scheme; 3] = [
    Scheme::RandomSelection,
    Scheme::IntervalBased,
    Scheme::TWO_STEP_DEFAULT,
];

fn mix_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(256, 16, 12);
    spec.num_faults = 1000;
    spec
}

fn multiplet_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(128, 16, 8);
    spec.num_faults = 500;
    spec
}

fn soc_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(128, 8, 8);
    spec.num_faults = 500;
    spec
}

fn mix_noise() -> NoiseModel {
    NoiseModel::new(NoiseConfig {
        flip_rate: 0.02,
        dropout_rate: 0.01,
        x_corrupt_fraction: 0.01,
        ..NoiseConfig::noiseless(0x5EED)
    })
    .expect("valid noise config")
}

/// Everything `campaign-mix` builds in set-up.
pub struct MixState {
    circuits: BTreeMap<&'static str, Netlist>,
    soc: Soc,
}

/// `campaign-mix` set-up: generate the circuits and build the SOC.
pub fn mix_setup(local: &mut Local<'_>) -> MixState {
    let mut circuits = BTreeMap::new();
    for name in MIX_CIRCUITS {
        let netlist = local.time("netlist.generate", || generate::benchmark(name));
        local.add("netlist.gates", netlist.num_gates() as f64);
        circuits.insert(name, netlist);
    }
    let cores: Vec<CoreModule> = MIX_SOC_CORES
        .iter()
        .map(|&name| {
            let netlist = match circuits.get(name) {
                Some(n) => n.clone(),
                None => {
                    let n = local.time("netlist.generate", || generate::benchmark(name));
                    local.add("netlist.gates", n.num_gates() as f64);
                    n
                }
            };
            CoreModule::new(netlist)
        })
        .collect();
    let soc = Soc::balanced("mix", cores, MIX_SOC_CORES.len()).expect("mix SOC");
    MixState { circuits, soc }
}

/// The blocks of a `campaign-mix` pass: one per strict circuit, then
/// the multiplet campaign, then the SOC.
const MIX_BLOCKS: usize = MIX_CIRCUITS.len() + 2;

/// The measured phase of `campaign-mix`.
pub fn mix_measure(state: &MixState, seed: u64, seconds: f64, threads: usize) -> Measured {
    let order = block_order(seed, MIX_BLOCKS);
    let spec = mix_spec();
    let noise = mix_noise();
    let policy = RobustPolicy::default();
    let mut violations = Vec::new();
    let mut measured = run_passes(seconds, |sw, first| {
        let mut facts = Facts::new();
        for &block in &order {
            if block < MIX_CIRCUITS.len() {
                let name = MIX_CIRCUITS[block];
                let netlist = &state.circuits[name];
                let campaign = sw
                    .timed(|| PreparedCampaign::from_circuit(netlist, &spec))
                    .expect("mix campaign");
                for scheme in MIX_SCHEMES {
                    let report = sw
                        .timed(|| campaign.run_parallel(scheme, threads))
                        .expect("mix run");
                    let prefix = format!("campaign-mix/{name}/{}", scheme_label(scheme));
                    report_facts(&mut facts, &prefix, &report);
                    if first {
                        check_strict(
                            &mut facts,
                            &mut violations,
                            &prefix,
                            &campaign,
                            scheme,
                            &report,
                        );
                    }
                }
                if name == MIX_ROBUST {
                    let scheme = Scheme::TWO_STEP_DEFAULT;
                    let report = sw
                        .timed(|| campaign.run_robust_parallel(scheme, &noise, &policy, threads))
                        .expect("noisy run");
                    let prefix = format!("campaign-mix/{name}/robust");
                    robust_facts(&mut facts, &prefix, &report);
                    if first {
                        let serial = campaign
                            .run_robust(scheme, &noise, &policy)
                            .expect("noisy run");
                        let (mut a, mut b) = (Facts::new(), Facts::new());
                        robust_facts(&mut a, &prefix, &serial);
                        robust_facts(&mut b, &prefix, &report);
                        if a != b {
                            violations
                                .push(format!("{prefix}: serial and parallel reports differ"));
                        }
                    }
                }
            } else if block == MIX_CIRCUITS.len() {
                let netlist = &state.circuits[MIX_MULTIPLET];
                let mspec = multiplet_spec();
                let campaign = sw
                    .timed(|| PreparedCampaign::from_circuit_multiplets(netlist, &mspec, 2))
                    .expect("multiplet campaign");
                let scheme = Scheme::TWO_STEP_DEFAULT;
                let report = sw
                    .timed(|| campaign.run_parallel(scheme, threads))
                    .expect("multiplet run");
                let prefix = format!("campaign-mix/{MIX_MULTIPLET}/multiplet");
                report_facts(&mut facts, &prefix, &report);
                if first {
                    check_strict(
                        &mut facts,
                        &mut violations,
                        &prefix,
                        &campaign,
                        scheme,
                        &report,
                    );
                }
            } else {
                let report = sw.timed(|| {
                    PreparedCampaign::from_soc(&state.soc, MIX_SOC_FAULTY, &soc_spec()).and_then(
                        |c| c.run_localization_parallel(Scheme::TWO_STEP_DEFAULT, threads),
                    )
                });
                let report = report.expect("SOC localization");
                facts.insert(
                    "campaign-mix/soc/faults".to_owned(),
                    report.faults.to_string(),
                );
                facts.insert(
                    "campaign-mix/soc/top1".to_owned(),
                    bits(report.top1_accuracy),
                );
                facts.insert(
                    "campaign-mix/soc/margin".to_owned(),
                    bits(report.mean_margin),
                );
            }
        }
        facts
    });
    measured.violations = violations;
    measured
}

/// The traced pass of `campaign-mix`, on the calling thread; returns the
/// traced DRs keyed like the facts.
pub fn mix_traced(local: &mut Local<'_>, state: &MixState, seed: u64) -> Facts {
    let spec = mix_spec();
    let noise = mix_noise();
    let policy = RobustPolicy::default();
    let mut drs = Facts::new();
    local.enter("pass");
    for block in block_order(seed, MIX_BLOCKS) {
        if block < MIX_CIRCUITS.len() {
            let name = MIX_CIRCUITS[block];
            let cases = chain::prepare(local, &state.circuits[name], &spec, 1);
            for scheme in MIX_SCHEMES {
                let (dr, pruned) = chain::run(local, &cases, &spec, scheme);
                let prefix = format!("campaign-mix/{name}/{}", scheme_label(scheme));
                drs.insert(format!("{prefix}/dr"), bits(dr));
                drs.insert(format!("{prefix}/dr_pruned"), bits(pruned));
            }
            if name == MIX_ROBUST {
                let (conclusive, dr) = chain::run_robust(
                    local,
                    &cases,
                    &spec,
                    Scheme::TWO_STEP_DEFAULT,
                    &noise,
                    &policy,
                );
                drs.insert(
                    format!("campaign-mix/{name}/robust/conclusive"),
                    conclusive.to_string(),
                );
                drs.insert(format!("campaign-mix/{name}/robust/dr"), bits(dr));
            }
        } else if block == MIX_CIRCUITS.len() {
            let mspec = multiplet_spec();
            let cases = chain::prepare(local, &state.circuits[MIX_MULTIPLET], &mspec, 2);
            let (dr, pruned) = chain::run(local, &cases, &mspec, Scheme::TWO_STEP_DEFAULT);
            let prefix = format!("campaign-mix/{MIX_MULTIPLET}/multiplet");
            drs.insert(format!("{prefix}/dr"), bits(dr));
            drs.insert(format!("{prefix}/dr_pruned"), bits(pruned));
        } else {
            local.time("soc.localize", || {
                PreparedCampaign::from_soc(&state.soc, MIX_SOC_FAULTY, &soc_spec())
                    .and_then(|c| c.run_localization(Scheme::TWO_STEP_DEFAULT))
                    .expect("SOC localization")
            });
        }
    }
    local.exit();
    drs
}

/// Compares traced DRs against the untraced facts. The robust
/// `conclusive` count is checked against `exact + degraded`.
pub fn traced_mismatches(traced: &Facts, facts: &Facts) -> Vec<String> {
    let mut out = Vec::new();
    for (key, value) in traced {
        let expected = if let Some(prefix) = key.strip_suffix("/conclusive") {
            let count = |k: &str| -> usize {
                facts
                    .get(&format!("{prefix}/{k}"))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(usize::MAX / 4)
            };
            Some((count("exact") + count("degraded")).to_string())
        } else {
            facts.get(key).cloned()
        };
        if expected.as_deref() != Some(value.as_str()) {
            out.push(format!("traced {key} = {value}, runner gave {expected:?}"));
        }
    }
    out
}

/// The `wall_s` metric: the sum over a pass's calls of each call's
/// lower quartile over the run's passes. A burst of load from elsewhere
/// slows the calls it lands in; a change to the program slows the same
/// call in every pass.
#[must_use]
pub fn wall_s(measured: &Measured) -> f64 {
    let calls = measured.calls_s.first().map_or(0, Vec::len);
    (0..calls)
        .map(|j| {
            let per_pass: Vec<f64> = measured.calls_s.iter().map(|p| p[j]).collect();
            lower_quartile(&per_pass).unwrap_or(0.0)
        })
        .sum()
}
