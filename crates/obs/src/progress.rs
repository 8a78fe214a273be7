//! Rate-limited campaign progress lines on stderr.
//!
//! Progress output is for humans watching a long campaign: it never
//! touches stdout (table/JSON payloads stay clean under redirection)
//! and is rate-limited per thread so per-fault ticking from sharded
//! workers does not flood the terminal. Disabled, each call is one
//! relaxed atomic load.

use std::cell::Cell;
use std::time::Instant;

use crate::registry;

/// Minimum milliseconds between printed lines per thread (completion
/// lines always print).
const MIN_INTERVAL_MS: u128 = 200;

thread_local! {
    static LAST_PRINT: Cell<Option<Instant>> = const { Cell::new(None) };
}

fn should_print(finished: bool) -> bool {
    LAST_PRINT.with(|last| {
        let due = match last.get() {
            Some(at) => at.elapsed().as_millis() >= MIN_INTERVAL_MS,
            None => true,
        };
        if due || finished {
            last.set(Some(Instant::now()));
        }
        due || finished
    })
}

/// Reports `done` of `total` units finished under `label`. Prints at
/// most one line per `MIN_INTERVAL_MS` per thread, plus the final
/// `done == total` line.
pub fn tick(label: &str, done: usize, total: usize) {
    if !registry::progress_enabled() {
        return;
    }
    let finished = done >= total;
    if should_print(finished) {
        eprintln!("[progress] {label}: {done}/{total}");
    }
}

/// Per-shard campaign progress: `tick` with the workspace's worker
/// label (`shard<w>`), formatted only when progress is enabled.
pub fn tick_worker(worker: usize, done: usize, total: usize) {
    if !registry::progress_enabled() {
        return;
    }
    tick(&format!("shard{worker}"), done, total);
}
