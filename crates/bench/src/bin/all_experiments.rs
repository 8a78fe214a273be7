//! Orchestrator: runs every table, figure, and extension binary and
//! collects their outputs under `results/`.
//!
//! Experiments are independent subprocesses, so they are fanned out
//! across a small worker pool (capped at half the available cores so
//! each experiment's own `run_parallel` sharding still has room).
//! Results are reported in the order of
//! [`scan_bench::experiments::ALL`] regardless of completion order.
//!
//! ```sh
//! cargo run --release -p scan-bench --bin all_experiments [out_dir]
//! ```
//!
//! With `--trace` / `--metrics-out <path>` / `--progress` the
//! orchestrator records its own spans and also forwards matching flags
//! to every child, each of which then drops `trace_<name>.ndjson` /
//! `metrics_<name>.json` next to its `.txt` result in `out_dir`. The
//! orchestrator's trace context is handed to each child via
//! `SCANBIST_TRACE_ID` / `SCANBIST_PARENT_SPAN`, so the per-child
//! NDJSON streams join into one cross-process trace tree
//! (`obs-check --join results/trace_*.ndjson`). With `--flight-recorder
//! <path>` the orchestrator also arms a per-child black box
//! (`flight_<name>.ndjson` in `out_dir`): a worker that panics leaves a
//! dump that joins the same trace tree, and the orchestrator, which
//! then exits 1, dumps its own ring.
//!
//! `--only <a,b,…>` restricts the run to a comma-separated subset of
//! the experiment names — handy for smoke tests and trace-join checks.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use scan_bench::experiments::ALL;

enum Outcome {
    Ok(PathBuf),
    Failed(String),
}

fn main() {
    let (obs, rest) = scan_bench::start_session_with_args("all_experiments");
    let forward_trace = scan_obs::registry::trace_enabled();
    let forward_metrics = scan_obs::registry::metrics_enabled();
    let forward_progress = scan_obs::registry::progress_enabled();
    let forward_flight = scan_obs::recorder::is_installed();
    let context = scan_obs::context::current();
    let mut out_dir = PathBuf::from("results");
    let mut only: Option<Vec<String>> = None;
    let mut rest_iter = rest.iter();
    while let Some(arg) = rest_iter.next() {
        match arg.as_str() {
            "--only" => {
                let Some(list) = rest_iter.next() else {
                    eprintln!("error: --only needs a comma-separated experiment list");
                    std::process::exit(2);
                };
                only = Some(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(ToOwned::to_owned)
                        .collect(),
                );
            }
            other => out_dir = PathBuf::from(other),
        }
    }
    let all = ALL.iter().map(|e| e.name);
    let experiments: Vec<&str> = match &only {
        Some(names) => {
            for name in names {
                if scan_bench::experiments::find(name).is_none() {
                    eprintln!("error: unknown experiment `{name}` in --only");
                    std::process::exit(2);
                }
            }
            all.filter(|e| names.iter().any(|n| n == e)).collect()
        }
        None => all.collect(),
    };
    if experiments.is_empty() {
        eprintln!("error: --only selected no experiments");
        std::process::exit(2);
    }
    std::fs::create_dir_all(&out_dir).expect("create results directory");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("binary directory")
        .to_path_buf();
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get() / 2)
        .clamp(1, experiments.len());
    eprintln!(
        "running {} experiments on {workers} worker(s)…",
        experiments.len()
    );

    let outcomes: Vec<Mutex<Option<Outcome>>> =
        experiments.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(name) = experiments.get(index) else {
                    break;
                };
                eprintln!("running {name}…");
                let _span = scan_obs::span!("experiment[{}]", name);
                let mut command = Command::new(exe_dir.join(name));
                if forward_trace {
                    command.arg("--trace-out");
                    command.arg(out_dir.join(format!("trace_{name}.ndjson")));
                }
                if forward_metrics {
                    command.arg("--metrics-out");
                    command.arg(out_dir.join(format!("metrics_{name}.json")));
                }
                if forward_progress {
                    command.arg("--progress");
                }
                if forward_flight {
                    // A crashing worker then leaves a black-box
                    // dump that joins this orchestrator's trace via
                    // the handed-down context (`obs-check --join`).
                    command.arg("--flight-recorder");
                    command.arg(out_dir.join(format!("flight_{name}.ndjson")));
                }
                if let Some(ctx) = &context {
                    // The child's parent span is the orchestrator
                    // span wrapping this subprocess, so its stream
                    // joins the cross-process trace tree there.
                    for (key, value) in ctx.child_env(&format!("experiment[{name}]")) {
                        command.env(key, value);
                    }
                }
                let outcome = match command.output() {
                    Ok(output) if output.status.success() => {
                        scan_obs::metrics::incr("experiments.ok");
                        let path = out_dir.join(format!("{name}.txt"));
                        std::fs::write(&path, &output.stdout).expect("write result file");
                        Outcome::Ok(path)
                    }
                    Ok(output) => {
                        scan_obs::metrics::incr("experiments.failed");
                        Outcome::Failed(format!("status {}", output.status))
                    }
                    Err(e) => {
                        scan_obs::metrics::incr("experiments.failed");
                        Outcome::Failed(format!(
                        "could not run ({e}) — build with `cargo build --release -p scan-bench` first"
                    ))
                    }
                };
                *outcomes[index].lock().expect("outcome slot") = Some(outcome);
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                scan_obs::progress::tick("experiments", done, experiments.len());
                }
                // Fold this worker's shard before the scope join: the
                // TLS-drop merge can race the parent's export snapshot.
                scan_obs::flush_thread();
            });
        }
    });

    let mut failures = Vec::new();
    for (name, slot) in experiments.iter().zip(&outcomes) {
        match slot.lock().expect("outcome slot").take() {
            Some(Outcome::Ok(path)) => println!("{name}: ok → {}", path.display()),
            Some(Outcome::Failed(why)) => {
                failures.push(*name);
                println!("{name}: FAILED ({why})");
            }
            None => unreachable!("every experiment gets an outcome"),
        }
    }
    println!();
    let failed = failures.len();
    if failures.is_empty() {
        println!(
            "all {} experiments completed into {}",
            experiments.len(),
            out_dir.display()
        );
    } else {
        println!("{failed} experiment(s) failed: {failures:?}");
    }
    obs.finish(failed > 0);
    if failed > 0 {
        std::process::exit(1);
    }
}
