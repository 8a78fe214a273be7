//! Command execution for the `scanbist` CLI.

use std::io::Write;

use scan_atpg::{run_atpg, PodemLimits};
use scan_diagnosis::{
    lfsr_patterns, CampaignSpec, NoiseConfig, NoiseModel, PreparedCampaign, RobustPolicy,
};
use scan_netlist::stats::{ClusteringStats, GateCensus};
use scan_netlist::{generate, GateKind, Netlist, ScanView};
use scan_sim::{FaultUniverse, PpsfpSimulator};
use scan_soc::SocDescriptor;

use crate::args::{Command, Invocation, HELP};
use crate::json::JsonObject;

/// Executes a parsed command, writing human-readable output to `out`.
/// Returns the process exit code (0 on success, 1 on user error).
///
/// # Panics
///
/// Panics only if writing to `out` fails (broken pipe), matching
/// standard CLI behaviour.
pub fn run<W: Write>(command: &Command, out: &mut W) -> i32 {
    run_invocation(
        &Invocation {
            json: false,
            obs: scan_obs::ObsConfig::disabled(),
            audit_path: None,
            command: command.clone(),
        },
        out,
    )
}

/// Executes a parsed invocation (honouring `--json`).
///
/// # Panics
///
/// Panics only if writing to `out` fails (broken pipe).
pub fn run_invocation<W: Write>(invocation: &Invocation, out: &mut W) -> i32 {
    match execute(
        &invocation.command,
        invocation.json,
        invocation.audit_path.as_deref(),
        out,
    ) {
        Ok(()) => 0,
        Err(message) => {
            if invocation.json {
                let mut o = JsonObject::new();
                o.string("error", &message);
                writeln!(out, "{}", o.finish()).expect("write error message");
            } else {
                writeln!(out, "error: {message}").expect("write error message");
            }
            1
        }
    }
}

#[allow(clippy::too_many_lines)]
fn execute<W: Write>(
    command: &Command,
    json: bool,
    audit: Option<&std::path::Path>,
    out: &mut W,
) -> Result<(), String> {
    match command {
        Command::Help => {
            write!(out, "{HELP}").map_err(io_err)?;
            Ok(())
        }
        Command::Parse { path } => {
            let netlist = load_file(path)?;
            describe(&netlist, out)?;
            writeln!(out, "OK: netlist is structurally valid").map_err(io_err)?;
            Ok(())
        }
        Command::Stats { circuit } => {
            let netlist = load(circuit)?;
            describe(&netlist, out)?;
            let census = GateCensus::compute(&netlist);
            for (kind, count) in GateKind::ALL.iter().zip(census.counts.iter()) {
                if *count > 0 {
                    writeln!(out, "  {kind}: {count}").map_err(io_err)?;
                }
            }
            let view = ScanView::natural(&netlist, true);
            let clustering = ClusteringStats::compute(&netlist, &view);
            writeln!(
                out,
                "cone clustering: mean span {:.1} of {} positions ({:.1}%)",
                clustering.mean_span,
                view.len(),
                clustering.mean_span_fraction * 100.0
            )
            .map_err(io_err)?;
            Ok(())
        }
        Command::Coverage { circuit, patterns } => {
            let netlist = load(circuit)?;
            let view = ScanView::natural(&netlist, true);
            let pattern_set = lfsr_patterns(&netlist, *patterns, 0xACE1);
            // Fault dropping pays off here: every fault only needs a
            // yes/no, so the bit-parallel engine stops at the first
            // failing pattern word.
            let mut psim =
                PpsfpSimulator::new(&netlist, &view, &pattern_set).map_err(|e| e.to_string())?;
            let universe = FaultUniverse::collapsed(&netlist);
            let detected = universe.faults().iter().filter(|f| psim.detects(f)).count();
            let fraction = detected as f64 / universe.len().max(1) as f64;
            if json {
                let mut o = JsonObject::new();
                o.string("circuit", netlist.name())
                    .number("patterns", *patterns as f64)
                    .number("faults", universe.len() as f64)
                    .number("detected", detected as f64)
                    .number("coverage", fraction);
                writeln!(out, "{}", o.finish()).map_err(io_err)?;
                return Ok(());
            }
            writeln!(
                out,
                "{}: {detected}/{} collapsed stuck-at faults detected by {patterns} pseudorandom patterns ({:.1}%)",
                netlist.name(),
                universe.len(),
                100.0 * fraction
            )
            .map_err(io_err)?;
            Ok(())
        }
        Command::Atpg { circuit } => {
            let netlist = load(circuit)?;
            let result = run_atpg(&netlist, &PodemLimits::default(), 1);
            if json {
                let mut o = JsonObject::new();
                o.string("circuit", netlist.name())
                    .number("patterns", result.patterns.len() as f64)
                    .number("coverage", result.coverage())
                    .number("redundant", result.redundant as f64)
                    .number("aborted", result.aborted as f64)
                    .number("efficiency", result.efficiency());
                writeln!(out, "{}", o.finish()).map_err(io_err)?;
                return Ok(());
            }
            writeln!(
                out,
                "{}: {} patterns, coverage {:.1}%, {} redundant, {} aborted (efficiency {:.1}%)",
                netlist.name(),
                result.patterns.len(),
                result.coverage() * 100.0,
                result.redundant,
                result.aborted,
                result.efficiency() * 100.0
            )
            .map_err(io_err)?;
            Ok(())
        }
        Command::Diagnose {
            circuit,
            groups,
            partitions,
            patterns,
            faults,
            scheme,
            fault,
        } => {
            let netlist = load(circuit)?;
            if let Some(spec_text) = fault {
                if audit.is_some() {
                    return Err(
                        "--audit-out records campaign runs; drop --fault (its evidence \
                         trail is already the full report)"
                            .into(),
                    );
                }
                return diagnose_single_fault(
                    &netlist,
                    spec_text,
                    *groups,
                    *partitions,
                    *patterns,
                    *scheme,
                    out,
                );
            }
            let mut spec = CampaignSpec::new(*patterns, *groups, *partitions);
            spec.num_faults = *faults;
            let campaign =
                PreparedCampaign::from_circuit(&netlist, &spec).map_err(|e| e.to_string())?;
            let report = campaign.run(*scheme).map_err(|e| e.to_string())?;
            if let Some(path) = audit {
                write_audit(&campaign, *scheme, path)?;
            }
            if json {
                let mut o = JsonObject::new();
                o.string("circuit", netlist.name())
                    .string("scheme", scheme.name())
                    .number("faults", report.faults as f64)
                    .number("dr", report.dr)
                    .number("dr_pruned", report.dr_pruned)
                    .number("mean_candidates", report.mean_candidates)
                    .number("mean_actual", report.mean_actual)
                    .numbers("dr_by_prefix", &report.dr_by_prefix);
                writeln!(out, "{}", o.finish()).map_err(io_err)?;
                return Ok(());
            }
            writeln!(
                out,
                "{}: {} faults, scheme {}, DR {:.3} (pruned {:.3}), mean candidates {:.1}, mean failing cells {:.1}",
                netlist.name(),
                report.faults,
                scheme.name(),
                report.dr,
                report.dr_pruned,
                report.mean_candidates,
                report.mean_actual
            )
            .map_err(io_err)?;
            Ok(())
        }
        Command::Soc {
            path,
            faulty,
            groups,
            partitions,
            scheme,
        } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let descriptor = SocDescriptor::parse(&text).map_err(|e| e.to_string())?;
            let soc = descriptor.build().map_err(|e| e.to_string())?;
            let core = soc
                .core_index(faulty)
                .ok_or_else(|| format!("no core named `{faulty}` in {}", soc.name()))?;
            let mut spec = CampaignSpec::new(128, *groups, *partitions);
            spec.num_faults = 100;
            let campaign =
                PreparedCampaign::from_soc(&soc, core, &spec).map_err(|e| e.to_string())?;
            let report = campaign.run(*scheme).map_err(|e| e.to_string())?;
            if let Some(audit_path) = audit {
                write_audit(&campaign, *scheme, audit_path)?;
            }
            let localization = campaign
                .run_localization(*scheme)
                .map_err(|e| e.to_string())?;
            if json {
                let mut o = JsonObject::new();
                o.string("soc", soc.name())
                    .string("faulty_core", faulty)
                    .string("scheme", scheme.name())
                    .number("faults", report.faults as f64)
                    .number("dr", report.dr)
                    .number("dr_pruned", report.dr_pruned)
                    .number("localization_top1", localization.top1_accuracy);
                writeln!(out, "{}", o.finish()).map_err(io_err)?;
                return Ok(());
            }
            writeln!(
                out,
                "{} (faulty {faulty}): {} faults, scheme {}, DR {:.3} (pruned {:.3}), core localization {:.1}%",
                soc.name(),
                report.faults,
                scheme.name(),
                report.dr,
                report.dr_pruned,
                localization.top1_accuracy * 100.0
            )
            .map_err(io_err)?;
            Ok(())
        }
        Command::Noise {
            circuit,
            groups,
            partitions,
            patterns,
            faults,
            scheme,
            flip,
            dropout,
            intermittent,
            miss,
            xcorrupt,
            seed,
            votes,
            retries,
            threads,
        } => {
            let netlist = load(circuit)?;
            let mut spec = CampaignSpec::new(*patterns, *groups, *partitions);
            spec.num_faults = *faults;
            let campaign =
                PreparedCampaign::from_circuit(&netlist, &spec).map_err(|e| e.to_string())?;
            let mut config = NoiseConfig::noiseless(*seed);
            config.flip_rate = *flip;
            config.dropout_rate = *dropout;
            config.intermittent_rate = *intermittent;
            config.intermittent_miss = *miss;
            config.x_corrupt_fraction = *xcorrupt;
            let noise = NoiseModel::new(config).map_err(|e| e.to_string())?;
            let policy = RobustPolicy {
                max_retry_rounds: *retries,
                votes: *votes,
            };
            let report = campaign
                .run_robust_parallel(*scheme, &noise, &policy, *threads)
                .map_err(|e| e.to_string())?;
            if let Some(path) = audit {
                let trail = campaign
                    .audit_robust(*scheme, &noise, &policy)
                    .map_err(|e| e.to_string())?;
                scan_obs::export::write_ndjson(path, &trail.to_ndjson())
                    .map_err(|e| e.to_string())?;
                eprintln!(
                    "audit: wrote {} robust fault record(s) to {}",
                    trail.faults.len(),
                    path.display()
                );
            }
            if json {
                let mut o = JsonObject::new();
                o.string("circuit", netlist.name())
                    .string("scheme", scheme.name())
                    .number("faults", report.faults as f64)
                    .number("flip_rate", *flip)
                    .number("dropout_rate", *dropout)
                    .number("exact", report.exact as f64)
                    .number("degraded", report.degraded as f64)
                    .number("inconclusive", report.inconclusive as f64)
                    .number("conclusive_fraction", report.conclusive_fraction())
                    .number("dr", report.dr)
                    .number("mean_candidates", report.mean_candidates)
                    .number("mean_actual", report.mean_actual)
                    .number("retry_rounds", report.retry_rounds as f64)
                    .number("retried_sessions", report.retried_sessions as f64)
                    .number("fallbacks", report.fallbacks as f64)
                    .number("strict_failures", report.strict_failures as f64)
                    .number("recovered", report.recovered as f64)
                    .number("hits", report.hits as f64);
                writeln!(out, "{}", o.finish()).map_err(io_err)?;
                return Ok(());
            }
            writeln!(
                out,
                "{}: {} faults under noise (flip {:.3}, dropout {:.3}), scheme {}",
                netlist.name(),
                report.faults,
                flip,
                dropout,
                scheme.name()
            )
            .map_err(io_err)?;
            writeln!(
                out,
                "  confidence: {} exact, {} degraded, {} inconclusive ({:.1}% conclusive)",
                report.exact,
                report.degraded,
                report.inconclusive,
                report.conclusive_fraction() * 100.0
            )
            .map_err(io_err)?;
            writeln!(
                out,
                "  recovery: {} retry round(s), {} session vote(s), {} fallback(s); \
                 {} of {} strict failure(s) recovered",
                report.retry_rounds,
                report.retried_sessions,
                report.fallbacks,
                report.recovered,
                report.strict_failures
            )
            .map_err(io_err)?;
            writeln!(
                out,
                "  DR {:.3} over conclusive faults, mean candidates {:.1}, mean failing cells {:.1}",
                report.dr, report.mean_candidates, report.mean_actual
            )
            .map_err(io_err)?;
            Ok(())
        }
        Command::Bench {
            suite,
            quick,
            repeats,
            warmup,
            out: out_file,
            baseline,
            compare,
            threshold,
        } => {
            // File-vs-file compare mode: no kernels run, so the verdict
            // is deterministic (the regression-gate tests rely on it).
            if let Some(current_path) = compare {
                let baseline_path = baseline.as_deref().expect("parser enforces --baseline");
                let current = load_suite(current_path)?;
                let base = load_suite(baseline_path)?;
                let comparison = scan_bench::suite::compare(&current, &base, *threshold);
                write!(out, "{}", comparison.render(*threshold)).map_err(io_err)?;
                if !comparison.passed() {
                    return Err(format!("bench regression against `{baseline_path}`"));
                }
                return Ok(());
            }
            let mut config = scan_bench::suite::SuiteConfig::new(suite, *quick);
            if let Some(r) = repeats {
                config.repeats = (*r).max(1);
            }
            if let Some(w) = warmup {
                config.warmup = *w;
            }
            let result = scan_bench::suite::run_suite(&config, |name, stats| {
                if stats.dropped > 0 {
                    eprintln!(
                        "bench: {name}: median {} ns ({} sample(s), {} dropped: \
                         {:?} ns above the Q3+1.5·IQR cutoff {} ns)",
                        stats.median_ns,
                        stats.samples,
                        stats.dropped,
                        stats.dropped_ns,
                        stats.cutoff_ns
                    );
                } else {
                    eprintln!(
                        "bench: {name}: median {} ns ({} sample(s), 0 dropped)",
                        stats.median_ns, stats.samples
                    );
                }
            });
            let document = result.to_json();
            let out_path = out_file
                .clone()
                .unwrap_or_else(|| format!("BENCH_{suite}.json"));
            scan_obs::export::write_file(std::path::Path::new(&out_path), &document)
                .map_err(|e| e.to_string())?;
            eprintln!("bench: wrote {out_path}");
            if json {
                write!(out, "{document}").map_err(io_err)?;
            } else {
                write!(out, "{}", result.table()).map_err(io_err)?;
            }
            if let Some(baseline_path) = baseline {
                let base = load_suite(baseline_path)?;
                let comparison = scan_bench::suite::compare(&result, &base, *threshold);
                write!(out, "{}", comparison.render(*threshold)).map_err(io_err)?;
                if !comparison.passed() {
                    return Err(format!("bench regression against `{baseline_path}`"));
                }
            }
            Ok(())
        }
        Command::Explain { path } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let summary = scan_diagnosis::audit::summarize_ndjson(&text)
                .map_err(|e| format!("{path}: {e}"))?;
            write!(out, "{summary}").map_err(io_err)?;
            Ok(())
        }
        Command::Report {
            files,
            out: out_path,
            title,
        } => run_report(files, out_path, title.as_deref()),
        Command::ObsQuery { files, spec } => run_obs_query(files, spec, out),
        Command::Serve {
            addr,
            workers,
            queue,
            max_connections,
            deadline_ms,
            drain_ms,
            cache,
        } => {
            let chaos =
                scan_daemon::ChaosConfig::from_env().map_err(|e| format!("SCANBIST_CHAOS: {e}"))?;
            if let Some(chaos) = &chaos {
                eprintln!("scanbistd: chaos injection enabled ({chaos:?})");
            }
            let daemon = scan_daemon::Daemon::start(scan_daemon::DaemonConfig {
                addr: addr.clone(),
                workers: *workers,
                queue_capacity: *queue,
                max_connections: *max_connections,
                default_deadline_ms: *deadline_ms,
                drain_ms: *drain_ms,
                cache_capacity: *cache,
                chaos,
            })
            .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
            writeln!(out, "scanbistd: listening on http://{}", daemon.addr()).map_err(io_err)?;
            // Scripts watch this line for the bound (possibly
            // ephemeral) port, so it must not sit in a block buffer
            // while the daemon blocks below.
            out.flush().map_err(io_err)?;
            daemon.wait();
            writeln!(out, "scanbistd: drained, shutting down").map_err(io_err)?;
            Ok(())
        }
    }
}

/// Evaluates one `obs query` pipeline over the given NDJSON streams
/// and prints the single JSON result document to stdout (the machine
/// payload channel — nothing else goes there).
fn run_obs_query<W: Write>(
    files: &[String],
    spec: &scan_obs::query::QuerySpec,
    out: &mut W,
) -> Result<(), String> {
    let mut streams = Vec::with_capacity(files.len());
    for path in files {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let label = std::path::Path::new(path)
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or(path.as_str())
            .to_owned();
        streams.push((label, text));
    }
    let document = scan_obs::query::run(&streams, spec).map_err(|e| e.to_string())?;
    writeln!(out, "{document}").map_err(io_err)?;
    Ok(())
}

/// Renders NDJSON trace/metrics/audit streams into one self-contained
/// HTML dashboard. The dashboard goes to a file and the one-line
/// summary to stderr — stdout stays reserved for machine payloads.
fn run_report(files: &[String], out_path: &str, title: Option<&str>) -> Result<(), String> {
    let mut inputs = Vec::with_capacity(files.len());
    for path in files {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let label = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path.as_str())
            .to_owned();
        inputs.push(scan_obs::report::ReportInput { label, text });
    }
    let default_title = format!("scanbist — {}", inputs[0].label);
    let html = scan_obs::report::render(&inputs, title.unwrap_or(&default_title))?;
    scan_obs::export::write_file(std::path::Path::new(out_path), &html)
        .map_err(|e| e.to_string())?;
    eprintln!("report: rendered {} stream(s) to {out_path}", inputs.len());
    Ok(())
}

/// Replays the campaign's per-fault audit trail and writes it as
/// NDJSON, creating parent directories as needed.
fn write_audit(
    campaign: &PreparedCampaign,
    scheme: scan_bist::Scheme,
    path: &std::path::Path,
) -> Result<(), String> {
    let trail = campaign.audit(scheme).map_err(|e| e.to_string())?;
    scan_obs::export::write_ndjson(path, &trail.to_ndjson()).map_err(|e| e.to_string())?;
    eprintln!(
        "audit: wrote {} fault record(s) to {}",
        trail.faults.len(),
        path.display()
    );
    Ok(())
}

/// Reads and parses a `BENCH_<suite>.json` baseline document.
fn load_suite(path: &str) -> Result<scan_bench::suite::SuiteResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    scan_bench::suite::SuiteResult::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

// Takes the error by value so it slots into `map_err(io_err)` calls.
#[allow(clippy::needless_pass_by_value)]
fn io_err(e: std::io::Error) -> String {
    format!("write failed: {e}")
}

fn diagnose_single_fault<W: Write>(
    netlist: &Netlist,
    spec_text: &str,
    groups: u16,
    partitions: usize,
    patterns: usize,
    scheme: scan_bist::Scheme,
    out: &mut W,
) -> Result<(), String> {
    let (net_name, sa) = spec_text
        .rsplit_once('/')
        .ok_or_else(|| format!("fault `{spec_text}` must look like NET/SA0 or NET/SA1"))?;
    let stuck = match sa.to_ascii_uppercase().as_str() {
        "SA0" => false,
        "SA1" => true,
        other => return Err(format!("unknown stuck value `{other}` (SA0 or SA1)")),
    };
    let net = netlist
        .find_net(net_name)
        .ok_or_else(|| format!("no net named `{net_name}` in {}", netlist.name()))?;
    let fault = scan_sim::Fault::stem(net, stuck);

    let view = ScanView::natural(netlist, true);
    let pattern_set = lfsr_patterns(netlist, patterns, 0xACE1);
    let mut psim = PpsfpSimulator::new(netlist, &view, &pattern_set).map_err(|e| e.to_string())?;
    let errors = psim.error_map(&fault);
    if !errors.is_detected() {
        writeln!(
            out,
            "fault {} is not detected by {patterns} pseudorandom patterns",
            fault.describe(netlist)
        )
        .map_err(io_err)?;
        return Ok(());
    }
    let plan = scan_diagnosis::DiagnosisPlan::new(
        scan_diagnosis::ChainLayout::single_chain(view.len()),
        patterns,
        &scan_diagnosis::BistConfig::new(groups, partitions, scheme),
    )
    .map_err(|e| e.to_string())?;
    let actual: Vec<usize> = errors.failing_positions().iter().collect();
    let report = scan_diagnosis::report::FaultReport::build(
        fault.describe(netlist),
        &plan,
        errors.iter_words(),
        &actual,
    );
    write!(out, "{report}").map_err(io_err)?;
    Ok(())
}

fn describe<W: Write>(netlist: &Netlist, out: &mut W) -> Result<(), String> {
    writeln!(
        out,
        "{}: {} inputs, {} outputs, {} flip-flops, {} gates, depth {}",
        netlist.name(),
        netlist.num_inputs(),
        netlist.num_outputs(),
        netlist.num_dffs(),
        netlist.num_gates(),
        netlist.depth()
    )
    .map_err(io_err)
}

/// Resolves a circuit argument: a known benchmark name or a `.bench`
/// file path.
fn load(circuit: &str) -> Result<Netlist, String> {
    if generate::profile(circuit).is_some() {
        Ok(generate::benchmark(circuit))
    } else {
        load_file(circuit)
    }
}

fn load_file(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    Netlist::from_bench(name, &text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    fn run_to_string(args: &[&str]) -> (i32, String) {
        let invocation = crate::args::parse_invocation(args.iter().copied()).expect("args parse");
        let mut buffer = Vec::new();
        let code = run_invocation(&invocation, &mut buffer);
        (code, String::from_utf8(buffer).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let (code, text) = run_to_string(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn stats_on_benchmark() {
        let (code, text) = run_to_string(&["stats", "s27"]);
        assert_eq!(code, 0);
        assert!(text.contains("3 flip-flops"));
        assert!(text.contains("cone clustering"));
    }

    #[test]
    fn coverage_on_benchmark() {
        let (code, text) = run_to_string(&["coverage", "s27", "--patterns", "64"]);
        assert_eq!(code, 0);
        assert!(text.contains("detected"));
    }

    #[test]
    fn atpg_on_benchmark() {
        let (code, text) = run_to_string(&["atpg", "s27"]);
        assert_eq!(code, 0);
        assert!(text.contains("coverage 100.0%"));
    }

    #[test]
    fn diagnose_on_benchmark() {
        let (code, text) = run_to_string(&[
            "diagnose",
            "s27",
            "--groups",
            "2",
            "--partitions",
            "2",
            "--patterns",
            "32",
            "--faults",
            "5",
        ]);
        assert_eq!(code, 0);
        assert!(text.contains("DR"));
    }

    #[test]
    fn single_fault_report_mode() {
        let (code, text) = run_to_string(&[
            "diagnose",
            "s27",
            "--fault",
            "G10/SA1",
            "--groups",
            "2",
            "--partitions",
            "2",
            "--patterns",
            "32",
        ]);
        assert_eq!(code, 0, "output: {text}");
        assert!(text.contains("fault G10/SA1"));
        assert!(text.contains("final candidates"));
    }

    #[test]
    fn too_many_groups_is_a_user_error_not_a_panic() {
        // s27 has 4 observation positions; the default is 8 groups.
        for args in [
            &["diagnose", "s27", "--fault", "G10/SA1"][..],
            &["diagnose", "s27", "--faults", "3"][..],
        ] {
            let (code, text) = run_to_string(args);
            assert_eq!(code, 1, "{args:?}: {text}");
            assert!(
                text.contains("8 groups per partition exceed the 4 positions"),
                "{args:?}: {text}"
            );
        }
    }

    #[test]
    fn single_fault_bad_spec_is_user_error() {
        let (code, text) = run_to_string(&["diagnose", "s27", "--fault", "G10"]);
        assert_eq!(code, 1);
        assert!(text.contains("NET/SA0"));
        let (code, _) = run_to_string(&["diagnose", "s27", "--fault", "nope/SA1"]);
        assert_eq!(code, 1);
    }

    #[test]
    fn json_coverage_output() {
        let (code, text) = run_to_string(&["--json", "coverage", "s27", "--patterns", "64"]);
        assert_eq!(code, 0);
        let line = text.trim();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"coverage\":1"));
        assert!(line.contains("\"circuit\":\"s27\""));
    }

    #[test]
    fn json_diagnose_output() {
        let (code, text) = run_to_string(&[
            "--json",
            "diagnose",
            "s27",
            "--groups",
            "2",
            "--partitions",
            "2",
            "--patterns",
            "32",
            "--faults",
            "5",
        ]);
        assert_eq!(code, 0);
        assert!(text.contains("\"dr\":"));
        assert!(text.contains("\"dr_by_prefix\":["));
    }

    #[test]
    fn noise_on_benchmark() {
        let (code, text) = run_to_string(&[
            "noise",
            "s27",
            "--groups",
            "2",
            "--partitions",
            "2",
            "--patterns",
            "32",
            "--faults",
            "5",
            "--flip",
            "0.02",
            "--seed",
            "7",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "output: {text}");
        assert!(text.contains("confidence:"), "{text}");
        assert!(text.contains("recovery:"), "{text}");
    }

    #[test]
    fn noise_rejects_invalid_rate() {
        let (code, text) = run_to_string(&["noise", "s27", "--flip", "1.5"]);
        assert_eq!(code, 1);
        assert!(text.contains("flip_rate"), "{text}");
    }

    #[test]
    fn json_noise_output() {
        let (code, text) = run_to_string(&[
            "--json",
            "noise",
            "s27",
            "--groups",
            "2",
            "--partitions",
            "2",
            "--patterns",
            "32",
            "--faults",
            "5",
            "--flip",
            "0",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "output: {text}");
        assert!(text.contains("\"exact\":5"), "{text}");
        assert!(text.contains("\"inconclusive\":0"), "{text}");
        assert!(text.contains("\"retry_rounds\":0"), "{text}");
    }

    #[test]
    fn noise_audit_out_writes_robust_trace() {
        let dir = std::env::temp_dir().join("scanbist-noise-audit-test");
        let path = dir.join("robust.ndjson");
        let path_str = path.to_str().unwrap().to_owned();
        let (code, text) = run_to_string(&[
            "--audit-out",
            &path_str,
            "noise",
            "s27",
            "--groups",
            "2",
            "--partitions",
            "2",
            "--patterns",
            "32",
            "--faults",
            "6",
            "--flip",
            "0.1",
            "--seed",
            "3",
            "--threads",
            "1",
        ]);
        assert_eq!(code, 0, "output: {text}");
        let trace = std::fs::read_to_string(&path).expect("robust audit written");
        assert!(trace.starts_with("{\"type\":\"meta\""), "{trace}");
        assert!(trace.contains("\"kind\":\"robust-audit\""), "{trace}");
        assert!(trace.contains("\"confidence\""), "{trace}");

        let (code, summary) = run_to_string(&["explain", &path_str]);
        assert_eq!(code, 0, "output: {summary}");
        assert!(summary.contains("confidence:"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_errors_are_json() {
        let (code, text) = run_to_string(&["--json", "coverage", "/nope.bench"]);
        assert_eq!(code, 1);
        assert!(text.trim().starts_with("{\"error\":"));
    }

    #[test]
    fn missing_file_is_user_error() {
        let (code, text) = run_to_string(&["parse", "/nonexistent/file.bench"]);
        assert_eq!(code, 1);
        assert!(text.starts_with("error:"));
    }

    #[test]
    fn audit_out_writes_explainable_trace() {
        let dir = std::env::temp_dir().join("scanbist-audit-test");
        let path = dir.join("nested").join("audit.ndjson");
        let path_str = path.to_str().unwrap().to_owned();
        let (code, text) = run_to_string(&[
            "--audit-out",
            &path_str,
            "diagnose",
            "s27",
            "--groups",
            "2",
            "--partitions",
            "2",
            "--patterns",
            "32",
            "--faults",
            "5",
        ]);
        assert_eq!(code, 0, "output: {text}");
        let trace = std::fs::read_to_string(&path).expect("audit file written");
        assert!(trace.starts_with("{\"type\":\"meta\""), "{trace}");
        assert!(trace.contains("\"type\":\"fault\""), "{trace}");
        assert!(trace.contains("\"failing_groups\""), "{trace}");

        let (code, summary) = run_to_string(&["explain", &path_str]);
        assert_eq!(code, 0, "output: {summary}");
        assert!(summary.contains("diagnosis audit: 5 fault(s)"), "{summary}");
        assert!(summary.contains("convergence"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_out_rejects_single_fault_mode() {
        let (code, text) = run_to_string(&[
            "--audit-out",
            "/tmp/x.ndjson",
            "diagnose",
            "s27",
            "--fault",
            "G10/SA1",
        ]);
        assert_eq!(code, 1);
        assert!(text.contains("--audit-out"), "{text}");
    }

    #[test]
    fn explain_rejects_non_audit_input() {
        let dir = std::env::temp_dir().join("scanbist-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bogus.ndjson");
        std::fs::write(&path, "definitely not json\n").unwrap();
        let (code, text) = run_to_string(&["explain", path.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(text.starts_with("error:"), "{text}");
        let (code, _) = run_to_string(&["explain", "/nonexistent/audit.ndjson"]);
        assert_eq!(code, 1);
    }

    fn suite_fixture(median_a: u64) -> String {
        format!(
            concat!(
                r#"{{"version":1,"suite":"diagnosis","quick":false,"repeats":5,"warmup":1,"#,
                r#""kernels":{{"fault_sim":{{"median_ns":{},"p95_ns":1100,"iqr_ns":50,"samples":5,"dropped":0}},"#,
                r#""misr_compaction":{{"median_ns":2000,"p95_ns":2100,"iqr_ns":40,"samples":5,"dropped":0}}}}}}"#,
            ),
            median_a
        )
    }

    #[test]
    fn bench_compare_gates_a_synthetic_slowdown() {
        let dir = std::env::temp_dir().join("scanbist-bench-compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let same = dir.join("same.json");
        let slow = dir.join("slow.json");
        std::fs::write(&baseline, suite_fixture(1_000)).unwrap();
        std::fs::write(&same, suite_fixture(1_000)).unwrap();
        // Synthetic 2x slowdown on one kernel.
        std::fs::write(&slow, suite_fixture(2_000)).unwrap();

        let (code, text) = run_to_string(&[
            "bench",
            "--compare",
            same.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "identical files must pass: {text}");
        assert!(text.contains("PASS"), "{text}");

        let (code, text) = run_to_string(&[
            "bench",
            "--compare",
            slow.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ]);
        assert_eq!(code, 1, "2x slowdown must fail: {text}");
        assert!(text.contains("REGRESSION fault_sim"), "{text}");

        // A generous threshold lets the same slowdown through.
        let (code, _) = run_to_string(&[
            "bench",
            "--compare",
            slow.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
            "--threshold",
            "1.5",
        ]);
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_compare_rejects_malformed_baselines() {
        let dir = std::env::temp_dir().join("scanbist-bench-badfile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(
            &bad,
            "{\"version\":1,\"suite\":\"x\",\"repeats\":1,\"warmup\":0,\"kernels\":{}}",
        )
        .unwrap();
        let (code, text) = run_to_string(&[
            "bench",
            "--compare",
            bad.to_str().unwrap(),
            "--baseline",
            bad.to_str().unwrap(),
        ]);
        assert_eq!(code, 1);
        assert!(text.contains("kernels"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_quick_run_writes_baseline_and_passes_self_compare() {
        let dir = std::env::temp_dir().join("scanbist-bench-run-test");
        let out_path = dir.join("BENCH_smoke.json");
        let out_str = out_path.to_str().unwrap().to_owned();
        let (code, text) = run_to_string(&[
            "bench",
            "--quick",
            "--suite",
            "smoke",
            "--repeats",
            "1",
            "--warmup",
            "0",
            "--out",
            &out_str,
        ]);
        assert_eq!(code, 0, "output: {text}");
        assert!(text.contains("fault_sim"), "{text}");
        let document = std::fs::read_to_string(&out_path).expect("bench output written");
        let parsed = scan_bench::suite::SuiteResult::from_json(&document).unwrap();
        assert_eq!(parsed.suite, "smoke");
        assert_eq!(parsed.kernels.len(), 9);

        // The file it just wrote is its own fixed point under compare.
        let (code, text) = run_to_string(&["bench", "--compare", &out_str, "--baseline", &out_str]);
        assert_eq!(code, 0, "output: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_renders_html_dashboard() {
        let dir = std::env::temp_dir().join("scanbist-report-cmd-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.ndjson");
        std::fs::write(
            &trace,
            concat!(
                "{\"type\":\"meta\",\"version\":1,\"spans\":1,\"counters\":1,\"histograms\":0}\n",
                "{\"type\":\"span\",\"path\":\"campaign\",\"thread\":0,\"start_ns\":0,\"end_ns\":10,\"dur_ns\":10}\n",
                "{\"type\":\"counter\",\"name\":\"faults\",\"value\":5}\n",
            ),
        )
        .unwrap();
        let out = dir.join("dash.html");
        let out_str = out.to_str().unwrap().to_owned();
        let (code, text) = run_to_string(&["report", trace.to_str().unwrap(), "--out", &out_str]);
        assert_eq!(code, 0, "output: {text}");
        assert!(text.is_empty(), "stdout must stay clean: {text}");
        let html = std::fs::read_to_string(&out).unwrap();
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("campaign"), "span path in dashboard");

        let (code, _) = run_to_string(&["report", "/nonexistent/t.ndjson"]);
        assert_eq!(code, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_validates_bench_files() {
        let dir = std::env::temp_dir().join("scanbist-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv.bench");
        std::fs::write(&path, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let (code, text) = run_to_string(&["parse", path.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(text.contains("structurally valid"));

        let bad = dir.join("bad.bench");
        std::fs::write(&bad, "INPUT(a)\ny = NOT(ghost)\n").unwrap();
        let (code, text) = run_to_string(&["parse", bad.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(text.contains("error:"));
    }
}
