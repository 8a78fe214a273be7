//! Minimal dependency-free argument parsing for the `scanbist` CLI.

use std::error::Error;
use std::fmt;

use scan_bist::Scheme;

/// A parsed `scanbist` invocation.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// `scanbist parse <file.bench>` — parse and validate a netlist.
    Parse {
        /// Path to the `.bench` file.
        path: String,
    },
    /// `scanbist stats <circuit>` — structural statistics.
    Stats {
        /// Benchmark name or `.bench` path.
        circuit: String,
    },
    /// `scanbist coverage <circuit> [--patterns N]` — pseudorandom
    /// stuck-at coverage.
    Coverage {
        /// Benchmark name or `.bench` path.
        circuit: String,
        /// Pattern budget.
        patterns: usize,
    },
    /// `scanbist atpg <circuit>` — deterministic test generation.
    Atpg {
        /// Benchmark name or `.bench` path.
        circuit: String,
    },
    /// `scanbist diagnose <circuit> [options]` — fault-injection
    /// diagnosis campaign.
    Diagnose {
        /// Benchmark name or `.bench` path.
        circuit: String,
        /// Groups per partition.
        groups: u16,
        /// Number of partitions.
        partitions: usize,
        /// Patterns per session.
        patterns: usize,
        /// Faults to inject.
        faults: usize,
        /// Partitioning scheme.
        scheme: Scheme,
        /// Diagnose one named fault (`NET/SA0` or `NET/SA1`) and print
        /// its full evidence trail instead of running a campaign.
        fault: Option<String>,
    },
    /// `scanbist soc <descriptor.soc> --faulty <core> [options]` — SOC
    /// diagnosis with one faulty core.
    Soc {
        /// Path to the `.soc` descriptor.
        path: String,
        /// Name of the assumed-faulty core.
        faulty: String,
        /// Groups per partition.
        groups: u16,
        /// Number of partitions.
        partitions: usize,
        /// Partitioning scheme.
        scheme: Scheme,
    },
    /// `scanbist noise <circuit> [options]` — fault-tolerant diagnosis
    /// campaign under injected verdict noise (see
    /// `docs/ROBUSTNESS.md`).
    Noise {
        /// Benchmark name or `.bench` path.
        circuit: String,
        /// Groups per partition.
        groups: u16,
        /// Number of partitions.
        partitions: usize,
        /// Patterns per session.
        patterns: usize,
        /// Faults to inject.
        faults: usize,
        /// Partitioning scheme.
        scheme: Scheme,
        /// Verdict flip probability per session.
        flip: f64,
        /// Session dropout (lost-verdict) probability.
        dropout: f64,
        /// Fraction of faults that behave intermittently.
        intermittent: f64,
        /// Per-session miss probability for intermittent faults.
        miss: f64,
        /// Fraction of scan cells corrupted to X by noise.
        xcorrupt: f64,
        /// Noise stream seed.
        seed: u64,
        /// Ballots per retried session (normalized odd).
        votes: usize,
        /// Maximum retry rounds before weighted-voting fallback.
        retries: usize,
        /// Worker threads (`0` = one per available core).
        threads: usize,
    },
    /// `scanbist bench [options]` — calibrated performance kernels
    /// with baseline comparison (see `docs/BENCHMARKS.md`).
    Bench {
        /// Suite name recorded in the output (`diagnosis` by default).
        suite: String,
        /// Small circuit / low repeat counts for smoke runs.
        quick: bool,
        /// Timed repetitions per kernel (`None` = suite default).
        repeats: Option<usize>,
        /// Warmup repetitions per kernel (`None` = suite default).
        warmup: Option<usize>,
        /// Where to write the `BENCH_<suite>.json` document
        /// (`None` = `BENCH_<suite>.json` in the working directory).
        out: Option<String>,
        /// Baseline file to compare the fresh run against.
        baseline: Option<String>,
        /// Compare this previously written result file against
        /// `--baseline` instead of running the kernels.
        compare: Option<String>,
        /// Regression threshold as a fraction (0.5 = flag kernels more
        /// than 50% slower than baseline).
        threshold: f64,
    },
    /// `scanbist explain <audit.ndjson>` — summarize a diagnosis audit
    /// trace written by `--audit-out`.
    Explain {
        /// Path to the NDJSON audit trace.
        path: String,
    },
    /// `scanbist report <trace.ndjson>... [options]` — render NDJSON
    /// trace/metrics/audit streams into one self-contained static HTML
    /// dashboard (see `docs/OBSERVABILITY.md`).
    Report {
        /// NDJSON trace / metrics-snapshot files to render, in order.
        files: Vec<String>,
        /// Output HTML path (`report.html` by default).
        out: String,
        /// Dashboard title (defaults to the first input's name).
        title: Option<String>,
    },
    /// `scanbist lint [options]` — run the vendored static-analysis
    /// pass over the workspace sources (see `docs/LINTS.md`).
    Lint {
        /// Workspace root to lint (`.` by default).
        root: String,
        /// Explicit `lint.toml` path (`<root>/lint.toml` by default).
        config: Option<String>,
        /// Where to write the findings as NDJSON.
        out: Option<String>,
        /// Where to write the workspace call graph as NDJSON.
        graph: Option<String>,
        /// Exit nonzero if any unsuppressed finding remains.
        deny: bool,
    },
    /// `scanbist obs query <stream.ndjson>... [options]` — filter,
    /// group, and aggregate NDJSON observability streams with the
    /// [`scan_obs::query`] engine (see `docs/OBSERVABILITY.md`).
    ObsQuery {
        /// NDJSON streams to query, in order.
        files: Vec<String>,
        /// The assembled filter/group/aggregate pipeline.
        spec: scan_obs::query::QuerySpec,
    },
    /// `scanbist serve [options]` — run `scanbistd`, the
    /// diagnosis-as-a-service daemon (see `docs/DAEMON.md`). Blocks
    /// until drained via `POST /admin/drain`.
    Serve {
        /// Listen address (`host:port`; port `0` picks an ephemeral
        /// port and prints it).
        addr: String,
        /// Diagnosis worker threads (`0` = one per available core).
        workers: usize,
        /// Bounded admission-queue capacity; a full queue sheds whole
        /// batches with `429`.
        queue: usize,
        /// Maximum concurrent client connections.
        max_connections: usize,
        /// Default per-request deadline in milliseconds (requests may
        /// lower it with `deadline_ms`).
        deadline_ms: u64,
        /// Grace period for in-flight batches during drain.
        drain_ms: u64,
        /// Plan-cache capacity (distinct circuit configurations).
        cache: usize,
    },
    /// `scanbist help` / `--help`.
    Help,
}

/// Error produced when the command line cannot be parsed.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseArgsError {}

fn scheme_from(name: &str) -> Result<Scheme, ParseArgsError> {
    match name {
        "two-step" => Ok(Scheme::TWO_STEP_DEFAULT),
        "random" => Ok(Scheme::RandomSelection),
        "interval" => Ok(Scheme::IntervalBased),
        "fixed" => Ok(Scheme::FixedInterval),
        other => Err(ParseArgsError(format!(
            "unknown scheme `{other}` (expected two-step|random|interval|fixed)"
        ))),
    }
}

fn take_value<'a, I>(flag: &str, words: &mut I) -> Result<&'a str, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    words
        .next()
        .ok_or_else(|| ParseArgsError(format!("flag `{flag}` needs a value")))
}

/// A parsed invocation: the command plus global output options.
#[derive(Clone, PartialEq, Debug)]
pub struct Invocation {
    /// Emit one JSON object instead of human-readable text (supported
    /// by `coverage`, `atpg`, `diagnose`, `noise`, and `soc`).
    pub json: bool,
    /// Observability settings from the global `--trace` /
    /// `--trace-out` / `--metrics-out` / `--profile` /
    /// `--profile-out` / `--progress` flags.
    pub obs: scan_obs::ObsConfig,
    /// Where diagnosis audit traces (NDJSON, one event per fault) are
    /// written; from the global `--audit-out <path>` flag. Honoured by
    /// `diagnose` and `noise` campaigns.
    pub audit_path: Option<std::path::PathBuf>,
    /// The command to execute.
    pub command: Command,
}

/// Parses the full argument list including global flags (`--json`,
/// `--trace`, `--trace-out <path>`, `--metrics-out <path>`,
/// `--profile`, `--profile-out <path>`, `--audit-out <path>`,
/// `--progress`, and `--serve-metrics <addr>`, all of which appear
/// before the subcommand).
///
/// # Errors
///
/// Returns [`ParseArgsError`] for any malformed invocation.
pub fn parse_invocation<'a, I>(args: I) -> Result<Invocation, ParseArgsError>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut rest: Vec<&str> = args.into_iter().collect();
    let mut json = false;
    let mut obs = scan_obs::ObsConfig::disabled();
    let mut audit_path = None;
    loop {
        match rest.first().copied() {
            Some("--json") => {
                json = true;
                rest.remove(0);
            }
            Some("--trace") => {
                obs.trace = true;
                obs.summary = true;
                rest.remove(0);
            }
            Some("--trace-out") => {
                rest.remove(0);
                let path = take_front("--trace-out", &mut rest)?;
                obs.trace = true;
                obs.summary = true;
                obs.trace_path = Some(path.into());
            }
            Some("--metrics-out") => {
                rest.remove(0);
                let path = take_front("--metrics-out", &mut rest)?;
                obs.metrics = true;
                obs.metrics_path = Some(path.into());
            }
            Some("--profile") => {
                obs.profile = true;
                rest.remove(0);
            }
            Some("--profile-out") => {
                rest.remove(0);
                let path = take_front("--profile-out", &mut rest)?;
                obs.profile = true;
                obs.profile_path = Some(path.into());
            }
            Some("--audit-out") => {
                rest.remove(0);
                let path = take_front("--audit-out", &mut rest)?;
                audit_path = Some(path.into());
            }
            Some("--progress") => {
                obs.progress = true;
                rest.remove(0);
            }
            Some("--serve-metrics") => {
                rest.remove(0);
                let addr = take_front("--serve-metrics", &mut rest)?;
                obs.serve_addr = Some(addr);
            }
            Some("--slo") => {
                rest.remove(0);
                let path = take_front("--slo", &mut rest)?;
                obs.slo_path = Some(path.into());
            }
            Some("--flight-recorder") => {
                rest.remove(0);
                let path = take_front("--flight-recorder", &mut rest)?;
                obs.flight_path = Some(path.into());
            }
            _ => break,
        }
    }
    if obs.trace && obs.trace_path.is_none() {
        obs.trace_path = Some("trace_scanbist.ndjson".into());
    }
    let command = parse_args(rest)?;
    if matches!(command, Command::Serve { .. }) {
        // The daemon serves /metrics and dashboard sparklines from its
        // own listener, which is only useful if counters and the
        // time-series sampler are actually running.
        obs.metrics = true;
        obs.timeseries = true;
    }
    Ok(Invocation {
        json,
        obs,
        audit_path,
        command,
    })
}

fn take_front(flag: &str, rest: &mut Vec<&str>) -> Result<String, ParseArgsError> {
    if rest.is_empty() {
        return Err(ParseArgsError(format!("flag `{flag}` needs a value")));
    }
    Ok(rest.remove(0).to_owned())
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns [`ParseArgsError`] with a human-readable message for any
/// malformed invocation.
pub fn parse_args<'a, I>(args: I) -> Result<Command, ParseArgsError>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut words = args.into_iter();
    let Some(command) = words.next() else {
        return Ok(Command::Help);
    };
    match command {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "parse" => {
            let path = take_value("parse", &mut words)?.to_owned();
            ensure_done(words)?;
            Ok(Command::Parse { path })
        }
        "stats" => {
            let circuit = take_value("stats", &mut words)?.to_owned();
            ensure_done(words)?;
            Ok(Command::Stats { circuit })
        }
        "coverage" => {
            let circuit = take_value("coverage", &mut words)?.to_owned();
            let mut patterns = 128usize;
            while let Some(flag) = words.next() {
                match flag {
                    "--patterns" => patterns = parse_num(take_value(flag, &mut words)?)?,
                    other => return Err(unknown_flag(other)),
                }
            }
            Ok(Command::Coverage { circuit, patterns })
        }
        "atpg" => {
            let circuit = take_value("atpg", &mut words)?.to_owned();
            ensure_done(words)?;
            Ok(Command::Atpg { circuit })
        }
        "diagnose" => parse_diagnose(words),
        "soc" => parse_soc(words),
        "noise" => parse_noise(words),
        "bench" => parse_bench(words),
        "report" => parse_report(words),
        "lint" => parse_lint(words),
        "serve" => parse_serve(words),
        "explain" => {
            let path = take_value("explain", &mut words)?.to_owned();
            ensure_done(words)?;
            Ok(Command::Explain { path })
        }
        "obs" => match words.next() {
            Some("query") => parse_obs_query(words),
            Some(other) => Err(ParseArgsError(format!(
                "unknown obs subcommand `{other}` (expected `query`)"
            ))),
            None => Err(ParseArgsError(
                "`obs` requires a subcommand (try `scanbist obs query`)".into(),
            )),
        },
        other => Err(ParseArgsError(format!(
            "unknown command `{other}` (try `scanbist help`)"
        ))),
    }
}

fn parse_diagnose<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let circuit = take_value("diagnose", &mut words)?.to_owned();
    let mut groups = 8u16;
    let mut partitions = 8usize;
    let mut patterns = 128usize;
    let mut faults = 100usize;
    let mut scheme = Scheme::TWO_STEP_DEFAULT;
    let mut fault = None;
    while let Some(flag) = words.next() {
        match flag {
            "--groups" => groups = parse_num(take_value(flag, &mut words)?)?,
            "--partitions" => partitions = parse_num(take_value(flag, &mut words)?)?,
            "--patterns" => patterns = parse_num(take_value(flag, &mut words)?)?,
            "--faults" => faults = parse_num(take_value(flag, &mut words)?)?,
            "--scheme" => scheme = scheme_from(take_value(flag, &mut words)?)?,
            "--fault" => fault = Some(take_value(flag, &mut words)?.to_owned()),
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(Command::Diagnose {
        circuit,
        groups,
        partitions,
        patterns,
        faults,
        scheme,
        fault,
    })
}

fn parse_soc<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let path = take_value("soc", &mut words)?.to_owned();
    let mut faulty: Option<String> = None;
    let mut groups = 16u16;
    let mut partitions = 8usize;
    let mut scheme = Scheme::TWO_STEP_DEFAULT;
    while let Some(flag) = words.next() {
        match flag {
            "--faulty" => faulty = Some(take_value(flag, &mut words)?.to_owned()),
            "--groups" => groups = parse_num(take_value(flag, &mut words)?)?,
            "--partitions" => partitions = parse_num(take_value(flag, &mut words)?)?,
            "--scheme" => scheme = scheme_from(take_value(flag, &mut words)?)?,
            other => return Err(unknown_flag(other)),
        }
    }
    let faulty = faulty.ok_or_else(|| ParseArgsError("`soc` requires --faulty <core>".into()))?;
    Ok(Command::Soc {
        path,
        faulty,
        groups,
        partitions,
        scheme,
    })
}

fn parse_noise<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let circuit = take_value("noise", &mut words)?.to_owned();
    let mut groups = 4u16;
    let mut partitions = 8usize;
    let mut patterns = 128usize;
    let mut faults = 100usize;
    let mut scheme = Scheme::TWO_STEP_DEFAULT;
    let mut flip = 0.02f64;
    let mut dropout = 0.0f64;
    let mut intermittent = 0.0f64;
    let mut miss = 0.0f64;
    let mut xcorrupt = 0.0f64;
    let mut seed = 2003u64;
    let mut votes = 3usize;
    let mut retries = 2usize;
    let mut threads = 0usize;
    while let Some(flag) = words.next() {
        match flag {
            "--groups" => groups = parse_num(take_value(flag, &mut words)?)?,
            "--partitions" => partitions = parse_num(take_value(flag, &mut words)?)?,
            "--patterns" => patterns = parse_num(take_value(flag, &mut words)?)?,
            "--faults" => faults = parse_num(take_value(flag, &mut words)?)?,
            "--scheme" => scheme = scheme_from(take_value(flag, &mut words)?)?,
            "--flip" => flip = parse_num(take_value(flag, &mut words)?)?,
            "--dropout" => dropout = parse_num(take_value(flag, &mut words)?)?,
            "--intermittent" => intermittent = parse_num(take_value(flag, &mut words)?)?,
            "--miss" => miss = parse_num(take_value(flag, &mut words)?)?,
            "--xcorrupt" => xcorrupt = parse_num(take_value(flag, &mut words)?)?,
            "--seed" => seed = parse_num(take_value(flag, &mut words)?)?,
            "--votes" => votes = parse_num(take_value(flag, &mut words)?)?,
            "--retries" => retries = parse_num(take_value(flag, &mut words)?)?,
            "--threads" => threads = parse_num(take_value(flag, &mut words)?)?,
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(Command::Noise {
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
    })
}

fn parse_bench<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let mut suite = "diagnosis".to_owned();
    let mut quick = false;
    let mut repeats = None;
    let mut warmup = None;
    let mut out = None;
    let mut baseline = None;
    let mut compare = None;
    let mut threshold = 0.5f64;
    while let Some(flag) = words.next() {
        match flag {
            "--suite" => take_value(flag, &mut words)?.clone_into(&mut suite),
            "--quick" => quick = true,
            "--repeats" => repeats = Some(parse_num(take_value(flag, &mut words)?)?),
            "--warmup" => warmup = Some(parse_num(take_value(flag, &mut words)?)?),
            "--out" => out = Some(take_value(flag, &mut words)?.to_owned()),
            "--baseline" => baseline = Some(take_value(flag, &mut words)?.to_owned()),
            "--compare" => compare = Some(take_value(flag, &mut words)?.to_owned()),
            "--threshold" => {
                threshold = parse_num(take_value(flag, &mut words)?)?;
                if !(threshold.is_finite() && threshold >= 0.0) {
                    return Err(ParseArgsError(
                        "`--threshold` must be a non-negative fraction".into(),
                    ));
                }
            }
            other => return Err(unknown_flag(other)),
        }
    }
    if compare.is_some() && baseline.is_none() {
        return Err(ParseArgsError(
            "`--compare` requires `--baseline <file>`".into(),
        ));
    }
    Ok(Command::Bench {
        suite,
        quick,
        repeats,
        warmup,
        out,
        baseline,
        compare,
        threshold,
    })
}

fn parse_report<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let mut files = Vec::new();
    let mut out = "report.html".to_owned();
    let mut title = None;
    while let Some(word) = words.next() {
        match word {
            "--out" => take_value(word, &mut words)?.clone_into(&mut out),
            "--title" => title = Some(take_value(word, &mut words)?.to_owned()),
            flag if flag.starts_with("--") => return Err(unknown_flag(flag)),
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() {
        return Err(ParseArgsError(
            "`report` requires at least one NDJSON input file".into(),
        ));
    }
    Ok(Command::Report { files, out, title })
}

fn parse_lint<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let mut root = ".".to_owned();
    let mut config = None;
    let mut out = None;
    let mut graph = None;
    let mut deny = false;
    while let Some(flag) = words.next() {
        match flag {
            "--root" => take_value(flag, &mut words)?.clone_into(&mut root),
            "--config" => config = Some(take_value(flag, &mut words)?.to_owned()),
            "--out" => out = Some(take_value(flag, &mut words)?.to_owned()),
            "--graph" => graph = Some(take_value(flag, &mut words)?.to_owned()),
            "--deny" => deny = true,
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(Command::Lint {
        root,
        config,
        out,
        graph,
        deny,
    })
}

fn parse_serve<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let mut addr = "127.0.0.1:0".to_owned();
    let mut workers = 0usize;
    let mut queue = 64usize;
    let mut max_connections = 64usize;
    let mut deadline_ms = 2_000u64;
    let mut drain_ms = 5_000u64;
    let mut cache = 8usize;
    while let Some(flag) = words.next() {
        match flag {
            "--addr" => take_value(flag, &mut words)?.clone_into(&mut addr),
            "--workers" => workers = parse_num(take_value(flag, &mut words)?)?,
            "--queue" => queue = parse_num(take_value(flag, &mut words)?)?,
            "--max-connections" => {
                max_connections = parse_num(take_value(flag, &mut words)?)?;
            }
            "--deadline-ms" => deadline_ms = parse_num(take_value(flag, &mut words)?)?,
            "--drain-ms" => drain_ms = parse_num(take_value(flag, &mut words)?)?,
            "--cache" => cache = parse_num(take_value(flag, &mut words)?)?,
            other => return Err(unknown_flag(other)),
        }
    }
    if queue == 0 {
        return Err(ParseArgsError(
            "`--queue` must be at least 1 (the queue is bounded, not absent)".into(),
        ));
    }
    Ok(Command::Serve {
        addr,
        workers,
        queue,
        max_connections,
        deadline_ms,
        drain_ms,
        cache,
    })
}

fn parse_obs_query<'a, I>(mut words: I) -> Result<Command, ParseArgsError>
where
    I: Iterator<Item = &'a str>,
{
    let mut files = Vec::new();
    let mut spec = scan_obs::query::QuerySpec::default();
    while let Some(word) = words.next() {
        match word {
            "--type" => {
                // Repeatable, and each value may be comma-separated.
                let value = take_value(word, &mut words)?;
                spec.types
                    .extend(value.split(',').filter(|t| !t.is_empty()).map(str::to_owned));
            }
            "--trace-id" => spec.trace = Some(take_value(word, &mut words)?.to_owned()),
            "--span" => spec.span_glob = Some(take_value(word, &mut words)?.to_owned()),
            "--since" => spec.since_ns = Some(parse_num(take_value(word, &mut words)?)?),
            "--until" => spec.until_ns = Some(parse_num(take_value(word, &mut words)?)?),
            "--group-by" => spec.group_by = Some(take_value(word, &mut words)?.to_owned()),
            "--agg" => {
                spec.agg = scan_obs::query::Agg::parse(take_value(word, &mut words)?)
                    .map_err(ParseArgsError)?;
            }
            "--field" => spec.field = Some(take_value(word, &mut words)?.to_owned()),
            "--top-slowest" => {
                spec.top_slowest = Some(parse_num(take_value(word, &mut words)?)?);
            }
            flag if flag.starts_with("--") => return Err(unknown_flag(flag)),
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() {
        return Err(ParseArgsError(
            "`obs query` requires at least one NDJSON input file".into(),
        ));
    }
    Ok(Command::ObsQuery { files, spec })
}

fn ensure_done<'a, I: Iterator<Item = &'a str>>(mut words: I) -> Result<(), ParseArgsError> {
    match words.next() {
        None => Ok(()),
        Some(extra) => Err(ParseArgsError(format!("unexpected argument `{extra}`"))),
    }
}

fn unknown_flag(flag: &str) -> ParseArgsError {
    ParseArgsError(format!("unknown flag `{flag}`"))
}

fn parse_num<T: std::str::FromStr>(text: &str) -> Result<T, ParseArgsError> {
    text.parse()
        .map_err(|_| ParseArgsError(format!("`{text}` is not a valid number")))
}

/// The help text printed by `scanbist help`.
pub const HELP: &str = "\
scanbist — partition-based scan-BIST failing-cell diagnosis

USAGE:
  scanbist [GLOBAL FLAGS] <command> ...

GLOBAL FLAGS (before the command):
  --json                emit one JSON object instead of text
  --trace               record spans/metrics; write trace_scanbist.ndjson
                        and print a span-tree summary to stderr
  --trace-out <path>    like --trace, NDJSON stream to <path>
  --metrics-out <path>  write a JSON metrics snapshot to <path>
  --profile             print a span self-time hot-spot table to stderr
  --profile-out <path>  like --profile, plus a collapsed-stack
                        (flamegraph folded format) export to <path>
  --audit-out <path>    write a per-fault diagnosis audit trace
                        (NDJSON) during `diagnose`/`noise` campaigns
  --progress            periodic per-shard progress lines on stderr
  --serve-metrics <addr>  serve live /metrics (Prometheus text),
                        /metrics.json, /alerts.json, and /healthz
                        over HTTP on <addr> (e.g. 127.0.0.1:0) for
                        the run's duration; implies background
                        sampling
  --slo <slo.toml>      load declarative alert rules and evaluate
                        them on every sampler tick; firing/resolving
                        alerts land in the NDJSON stream, /metrics,
                        /alerts.json, and `scanbist report`
  --flight-recorder <path>  keep a bounded in-memory ring of recent
                        spans/counter deltas/alerts and dump it as a
                        versioned NDJSON black box (plus a .txt
                        summary) on panic or nonzero exit

COMMANDS:
  scanbist parse <file.bench>
  scanbist stats <circuit>
  scanbist coverage <circuit> [--patterns N]
  scanbist atpg <circuit>
  scanbist diagnose <circuit> [--groups G] [--partitions P]
                    [--patterns N] [--faults F]
                    [--scheme two-step|random|interval|fixed]
                    [--fault NET/SA0]   (single-fault evidence report)
  scanbist soc <file.soc> --faulty <core> [--groups G]
                    [--partitions P] [--scheme ...]
  scanbist noise <circuit> [--groups G] [--partitions P]
                    [--patterns N] [--faults F] [--scheme ...]
                    [--flip R] [--dropout R] [--intermittent R]
                    [--miss R] [--xcorrupt R] [--seed S]
                    [--votes V] [--retries R] [--threads T]
                    (fault-tolerant campaign under verdict noise;
                    --audit-out writes retry/vote/fallback events)
  scanbist bench [--suite NAME] [--quick] [--repeats N] [--warmup N]
                    [--out FILE] [--baseline FILE] [--threshold FRAC]
                    [--compare FILE]   (file-vs-file baseline check)
  scanbist report <trace.ndjson>... [--out FILE] [--title TEXT]
                    (render NDJSON traces/metrics/audits into one
                    self-contained HTML dashboard — span waterfall,
                    time-series sparklines, counters)
  scanbist obs query <stream.ndjson>... [--type T[,T...]]
                    [--trace-id ID] [--span GLOB] [--since NS]
                    [--until NS] [--group-by KEY]
                    [--agg count|sum|min|max|pN] [--field NAME]
                    [--top-slowest N]
                    (filter/group/aggregate NDJSON observability
                    streams; prints one JSON document to stdout)
  scanbist explain <audit.ndjson>     (summarize an audit trace)
  scanbist lint [--root DIR] [--config FILE] [--out FILE]
                    [--graph FILE] [--deny]
                    (vendored static-analysis pass; --deny exits
                    nonzero on unsuppressed findings, --out writes
                    them as NDJSON, --graph writes the workspace call
                    graph as NDJSON — see docs/LINTS.md)
  scanbist serve [--addr HOST:PORT] [--workers N] [--queue N]
                    [--max-connections N] [--deadline-ms MS]
                    [--drain-ms MS] [--cache N]
                    (scanbistd: NDJSON-over-HTTP diagnosis daemon
                    with bounded admission, per-request deadlines,
                    and graceful shedding; SCANBIST_CHAOS injects
                    deterministic faults — see docs/DAEMON.md)

<circuit> is an ISCAS-89 benchmark name (synthetic stand-in; `s27`
is the embedded real netlist) or a path to a `.bench` file.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_help_variants() {
        assert_eq!(parse_args([]).unwrap(), Command::Help);
        assert_eq!(parse_args(["help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_diagnose_with_flags() {
        let cmd = parse_args([
            "diagnose",
            "s953",
            "--groups",
            "4",
            "--partitions",
            "6",
            "--scheme",
            "random",
            "--faults",
            "250",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Diagnose {
                circuit: "s953".into(),
                groups: 4,
                partitions: 6,
                patterns: 128,
                faults: 250,
                scheme: Scheme::RandomSelection,
                fault: None,
            }
        );
    }

    #[test]
    fn parses_serve_defaults_and_flags() {
        assert_eq!(
            parse_args(["serve"]).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 0,
                queue: 64,
                max_connections: 64,
                deadline_ms: 2_000,
                drain_ms: 5_000,
                cache: 8,
            }
        );
        let cmd = parse_args([
            "serve",
            "--addr",
            "0.0.0.0:7311",
            "--workers",
            "4",
            "--queue",
            "16",
            "--max-connections",
            "32",
            "--deadline-ms",
            "500",
            "--drain-ms",
            "1000",
            "--cache",
            "2",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "0.0.0.0:7311".into(),
                workers: 4,
                queue: 16,
                max_connections: 32,
                deadline_ms: 500,
                drain_ms: 1_000,
                cache: 2,
            }
        );
        assert!(parse_args(["serve", "--queue", "0"]).is_err(), "queue stays bounded");
        assert!(parse_args(["serve", "--unbounded"]).is_err());
    }

    #[test]
    fn serve_forces_metrics_and_timeseries() {
        let invocation = parse_invocation(["serve", "--queue", "4"]).unwrap();
        assert!(invocation.obs.metrics);
        assert!(invocation.obs.timeseries);
        // Other commands are untouched.
        let invocation = parse_invocation(["stats", "s27"]).unwrap();
        assert!(!invocation.obs.metrics);
        assert!(!invocation.obs.timeseries);
    }

    #[test]
    fn parses_single_fault_mode() {
        let cmd = parse_args(["diagnose", "s27", "--fault", "G10/SA1"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Diagnose { fault: Some(f), .. } if f == "G10/SA1"
        ));
    }

    #[test]
    fn parses_soc_command() {
        let cmd = parse_args(["soc", "chip.soc", "--faulty", "s9234"]).unwrap();
        assert!(matches!(cmd, Command::Soc { faulty, .. } if faulty == "s9234"));
    }

    #[test]
    fn soc_requires_faulty() {
        assert!(parse_args(["soc", "chip.soc"]).is_err());
    }

    #[test]
    fn parses_observability_global_flags() {
        let inv = parse_invocation([
            "--json",
            "--trace",
            "--metrics-out",
            "m.json",
            "--progress",
            "stats",
            "s27",
        ])
        .unwrap();
        assert!(inv.json);
        assert!(inv.obs.trace && inv.obs.metrics && inv.obs.progress && inv.obs.summary);
        assert_eq!(
            inv.obs.trace_path.as_deref(),
            Some("trace_scanbist.ndjson".as_ref())
        );
        assert_eq!(inv.obs.metrics_path.as_deref(), Some("m.json".as_ref()));
        assert_eq!(
            inv.command,
            Command::Stats {
                circuit: "s27".into()
            }
        );

        let inv = parse_invocation(["--trace-out", "t.ndjson", "help"]).unwrap();
        assert_eq!(inv.obs.trace_path.as_deref(), Some("t.ndjson".as_ref()));
        assert!(!inv.obs.progress && !inv.json);

        let plain = parse_invocation(["stats", "s27"]).unwrap();
        assert!(!plain.obs.is_enabled());

        assert!(parse_invocation(["--metrics-out"]).is_err());
    }

    #[test]
    fn parses_profile_and_audit_flags() {
        let inv = parse_invocation(["--profile", "stats", "s27"]).unwrap();
        assert!(inv.obs.profile && inv.obs.profile_path.is_none());
        assert!(inv.obs.profiling() && inv.audit_path.is_none());

        let inv = parse_invocation([
            "--profile-out",
            "out/p.folded",
            "--audit-out",
            "out/a.ndjson",
            "diagnose",
            "s27",
        ])
        .unwrap();
        assert!(inv.obs.profile);
        assert_eq!(
            inv.obs.profile_path.as_deref(),
            Some("out/p.folded".as_ref())
        );
        assert_eq!(inv.audit_path.as_deref(), Some("out/a.ndjson".as_ref()));

        assert!(parse_invocation(["--profile-out"]).is_err());
        assert!(parse_invocation(["--audit-out"]).is_err());
    }

    #[test]
    fn parses_noise_command() {
        let cmd = parse_args(["noise", "s953"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Noise {
                groups: 4,
                partitions: 8,
                votes: 3,
                retries: 2,
                seed: 2003,
                ..
            }
        ));

        let cmd = parse_args([
            "noise",
            "s953",
            "--flip",
            "0.05",
            "--dropout",
            "0.01",
            "--intermittent",
            "0.1",
            "--miss",
            "0.5",
            "--xcorrupt",
            "0.02",
            "--seed",
            "7",
            "--votes",
            "4",
            "--retries",
            "1",
            "--threads",
            "2",
            "--faults",
            "50",
        ])
        .unwrap();
        match cmd {
            Command::Noise {
                flip,
                dropout,
                intermittent,
                miss,
                xcorrupt,
                seed,
                votes,
                retries,
                threads,
                faults,
                ..
            } => {
                assert!((flip - 0.05).abs() < 1e-12);
                assert!((dropout - 0.01).abs() < 1e-12);
                assert!((intermittent - 0.1).abs() < 1e-12);
                assert!((miss - 0.5).abs() < 1e-12);
                assert!((xcorrupt - 0.02).abs() < 1e-12);
                assert_eq!((seed, votes, retries, threads, faults), (7, 4, 1, 2, 50));
            }
            other => panic!("parsed {other:?}"),
        }

        assert!(parse_args(["noise"]).is_err());
        assert!(parse_args(["noise", "s953", "--flip", "lots"]).is_err());
        assert!(parse_args(["noise", "s953", "--bogus"]).is_err());
    }

    #[test]
    fn parses_bench_command() {
        let cmd = parse_args(["bench"]).unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                suite: "diagnosis".into(),
                quick: false,
                repeats: None,
                warmup: None,
                out: None,
                baseline: None,
                compare: None,
                threshold: 0.5,
            }
        );

        let cmd = parse_args([
            "bench",
            "--quick",
            "--suite",
            "smoke",
            "--repeats",
            "3",
            "--warmup",
            "1",
            "--out",
            "b.json",
            "--baseline",
            "base.json",
            "--threshold",
            "0.25",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Bench {
                quick: true,
                repeats: Some(3),
                warmup: Some(1),
                ..
            }
        ));

        assert!(parse_args(["bench", "--compare", "b.json"]).is_err());
        assert!(parse_args(["bench", "--threshold", "-1"]).is_err());
        assert!(parse_args(["bench", "--bogus"]).is_err());
    }

    #[test]
    fn parses_explain_command() {
        let cmd = parse_args(["explain", "audit.ndjson"]).unwrap();
        assert_eq!(
            cmd,
            Command::Explain {
                path: "audit.ndjson".into()
            }
        );
        assert!(parse_args(["explain"]).is_err());
        assert!(parse_args(["explain", "a", "b"]).is_err());
    }

    #[test]
    fn parses_serve_metrics_flag() {
        let inv = parse_invocation(["--serve-metrics", "127.0.0.1:0", "stats", "s27"]).unwrap();
        assert_eq!(inv.obs.serve_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(inv.obs.sampling() && inv.obs.is_enabled());

        let plain = parse_invocation(["stats", "s27"]).unwrap();
        assert!(plain.obs.serve_addr.is_none() && !plain.obs.sampling());

        assert!(parse_invocation(["--serve-metrics"]).is_err());
    }

    #[test]
    fn parses_slo_and_flight_recorder_flags() {
        let inv = parse_invocation([
            "--slo",
            "slo.toml",
            "--flight-recorder",
            "flight.ndjson",
            "stats",
            "s27",
        ])
        .unwrap();
        assert_eq!(inv.obs.slo_path.as_deref(), Some("slo.toml".as_ref()));
        assert_eq!(
            inv.obs.flight_path.as_deref(),
            Some("flight.ndjson".as_ref())
        );
        // Both imply sampling so the evaluator/ring get ticks.
        assert!(inv.obs.sampling() && inv.obs.is_enabled());

        assert!(parse_invocation(["--slo"]).is_err());
        assert!(parse_invocation(["--flight-recorder"]).is_err());
    }

    #[test]
    fn parses_obs_query_command() {
        use scan_obs::query::{Agg, QuerySpec};
        let cmd = parse_args(["obs", "query", "a.ndjson"]).unwrap();
        assert_eq!(
            cmd,
            Command::ObsQuery {
                files: vec!["a.ndjson".into()],
                spec: QuerySpec::default(),
            }
        );

        let cmd = parse_args([
            "obs",
            "query",
            "a.ndjson",
            "b.ndjson",
            "--type",
            "counter,span",
            "--type",
            "alert",
            "--trace-id",
            "00aabbccddeeff11",
            "--span",
            "campaign/*",
            "--since",
            "100",
            "--until",
            "900",
            "--group-by",
            "name",
            "--agg",
            "p95",
            "--field",
            "dur_ns",
            "--top-slowest",
            "5",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::ObsQuery {
                files: vec!["a.ndjson".into(), "b.ndjson".into()],
                spec: QuerySpec {
                    types: vec!["counter".into(), "span".into(), "alert".into()],
                    trace: Some("00aabbccddeeff11".into()),
                    span_glob: Some("campaign/*".into()),
                    since_ns: Some(100),
                    until_ns: Some(900),
                    group_by: Some("name".into()),
                    agg: Agg::Quantile(95),
                    field: Some("dur_ns".into()),
                    top_slowest: Some(5),
                },
            }
        );

        assert!(parse_args(["obs"]).is_err());
        assert!(parse_args(["obs", "watch"]).is_err());
        assert!(parse_args(["obs", "query"]).is_err());
        assert!(parse_args(["obs", "query", "a.ndjson", "--agg", "median"]).is_err());
        assert!(parse_args(["obs", "query", "a.ndjson", "--bogus"]).is_err());
    }

    #[test]
    fn parses_report_command() {
        let cmd = parse_args(["report", "a.ndjson"]).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                files: vec!["a.ndjson".into()],
                out: "report.html".into(),
                title: None,
            }
        );

        let cmd = parse_args([
            "report", "a.ndjson", "b.ndjson", "--out", "dash.html", "--title", "Campaign",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                files: vec!["a.ndjson".into(), "b.ndjson".into()],
                out: "dash.html".into(),
                title: Some("Campaign".into()),
            }
        );

        assert!(parse_args(["report"]).is_err());
        assert!(parse_args(["report", "a.ndjson", "--bogus"]).is_err());
        assert!(parse_args(["report", "--out", "x.html"]).is_err());
    }

    #[test]
    fn parses_lint_command() {
        let cmd = parse_args(["lint"]).unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                root: ".".into(),
                config: None,
                out: None,
                graph: None,
                deny: false,
            }
        );

        let cmd = parse_args([
            "lint", "--root", "..", "--config", "lint.toml", "--out", "l.ndjson", "--graph",
            "g.ndjson", "--deny",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                root: "..".into(),
                config: Some("lint.toml".into()),
                out: Some("l.ndjson".into()),
                graph: Some("g.ndjson".into()),
                deny: true,
            }
        );

        assert!(parse_args(["lint", "--root"]).is_err());
        assert!(parse_args(["lint", "--bogus"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        assert!(parse_args(["frobnicate"]).is_err());
        assert!(parse_args(["diagnose", "s953", "--bogus", "1"]).is_err());
        assert!(parse_args(["parse"]).is_err());
        assert!(parse_args(["parse", "a.bench", "extra"]).is_err());
        assert!(parse_args(["coverage", "s953", "--patterns", "many"]).is_err());
        assert!(parse_args(["diagnose", "s953", "--scheme", "psychic"]).is_err());
    }
}
