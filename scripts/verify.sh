#!/usr/bin/env sh
# Workspace verification: tier-1 (release build + full test suite) plus
# a warning-free clippy pass and the vendored scan-lint static-analysis
# gate (docs/LINTS.md). Run from anywhere inside the repository.
#
#   scripts/verify.sh
#
# The workspace is intentionally zero-dependency (no external registry
# crates), so this must succeed fully offline.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is a workspace of its own, so neither step above builds it:
# build and test it here, or an API change that breaks the benchmark
# goes unnoticed. It shares the benchmark's build directory.
echo "==> perfbench build + tests (own workspace, CARGO_TARGET_DIR=.bench_build)"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

SMOKE_DIR=target/obs-smoke
mkdir -p "$SMOKE_DIR"

echo "==> static analysis (scan-lint --deny, findings NDJSON via obs-check)"
./target/release/scan-lint --deny --out "$SMOKE_DIR/lint.ndjson"
./target/release/obs-check "$SMOKE_DIR/lint.ndjson"
# The panic-freedom gate must be real, not vacuously green: the
# workspace config declares roots, and no unsuppressed L012 survives.
grep -q 'panic_freedom' lint.toml || {
    echo "lint.toml lost its [roots] panic_freedom declaration"; exit 1;
}
UNSUPPRESSED_L012=$(grep '"rule":"L012"' "$SMOKE_DIR/lint.ndjson" | grep -cv '"suppressed"' || true)
[ "$UNSUPPRESSED_L012" = 0 ] || {
    echo "verify: $UNSUPPRESSED_L012 unsuppressed L012 finding(s) in the export"; exit 1;
}

echo "==> call-graph export (scanbist lint --graph via obs-check)"
./target/release/scanbist lint --graph "$SMOKE_DIR/graph.ndjson"     --out "$SMOKE_DIR/lint_cli.ndjson" 2>> "$SMOKE_DIR/summary.txt"
./target/release/obs-check "$SMOKE_DIR/graph.ndjson" "$SMOKE_DIR/lint_cli.ndjson"
grep -q '"type":"graph"' "$SMOKE_DIR/graph.ndjson" || {
    echo "graph export is missing its trailing summary record"; exit 1;
}

echo "==> instrumented smoke campaign (--trace --metrics-out --profile-out --audit-out --slo)"
./target/release/scanbist \
    --trace --trace-out "$SMOKE_DIR/trace.ndjson" \
    --metrics-out "$SMOKE_DIR/metrics.json" \
    --profile-out "$SMOKE_DIR/profile.folded" \
    --audit-out "$SMOKE_DIR/audit.ndjson" \
    --slo slo.toml \
    diagnose s953 --patterns 64 --faults 50 > /dev/null 2> "$SMOKE_DIR/summary.txt"
./target/release/obs-check \
    "$SMOKE_DIR/trace.ndjson" "$SMOKE_DIR/metrics.json" \
    "$SMOKE_DIR/profile.folded" "$SMOKE_DIR/audit.ndjson"

echo "==> obs query smoke (counter sums bit-identical to the metrics snapshot)"
./target/release/scanbist obs query "$SMOKE_DIR/trace.ndjson" \
    --type counter --group-by name --agg sum --field value \
    > "$SMOKE_DIR/query_counters.json"
WANT=$(sed -n 's/.*"diagnosis\.cases":\([0-9]*\).*/\1/p' "$SMOKE_DIR/metrics.json")
GOT=$(sed -n 's/.*"key":"diagnosis\.cases","n":[0-9]*,"value":\([0-9]*\).*/\1/p' \
    "$SMOKE_DIR/query_counters.json")
[ -n "$WANT" ] && [ "$WANT" = "$GOT" ] || {
    echo "obs query sum (${GOT:-none}) != metrics snapshot total (${WANT:-none}) for diagnosis.cases"
    exit 1
}

echo "==> serial-vs-sharded smoke (noise summaries at 1 and 4 threads must be identical)"
for T in 1 4; do
    ./target/release/scanbist \
        --json noise s953 --patterns 64 --faults 50 --flip 0.02 --seed 7 --threads "$T" \
        > "$SMOKE_DIR/noise_threads_$T.json" 2>> "$SMOKE_DIR/summary.txt"
done
cmp -s "$SMOKE_DIR/noise_threads_1.json" "$SMOKE_DIR/noise_threads_4.json" || {
    echo "noise campaign summaries diverged between 1 and 4 threads"; exit 1;
}

echo "==> noisy-campaign smoke (scanbist noise --audit-out)"
./target/release/scanbist \
    --json --audit-out "$SMOKE_DIR/noise_audit.ndjson" \
    noise s953 --patterns 64 --faults 50 --flip 0.02 --seed 7 \
    > "$SMOKE_DIR/noise_summary.json" 2>> "$SMOKE_DIR/summary.txt"
./target/release/obs-check "$SMOKE_DIR/noise_audit.ndjson"
# The robust engine must keep the smoke campaign diagnosable: every
# fault Exact or Degraded, none Inconclusive.
grep -q '"inconclusive":0' "$SMOKE_DIR/noise_summary.json" || {
    echo "noisy smoke left faults inconclusive:"; cat "$SMOKE_DIR/noise_summary.json"; exit 1;
}

echo "==> smoke outputs byte-identical to the checked-in goldens"
GOLDEN=crates/cli/tests/golden
# The instrumented run stamps each audit record with its (random) trace
# id; strip it so the audit content itself is compared.
sed 's/^{"trace":"[0-9a-f]*",/{/' "$SMOKE_DIR/audit.ndjson" | cmp - "$GOLDEN/audit.ndjson" || {
    echo "audit.ndjson differs from $GOLDEN/audit.ndjson"; exit 1;
}
for F in noise_audit.ndjson noise_summary.json; do
    cmp "$SMOKE_DIR/$F" "$GOLDEN/$F" || { echo "$F differs from $GOLDEN/$F"; exit 1; }
done

echo "==> quick bench smoke (scanbist bench --quick)"
./target/release/scanbist \
    bench --quick --out "$SMOKE_DIR/BENCH_quick.json" \
    > "$SMOKE_DIR/bench_table.txt" 2> "$SMOKE_DIR/bench_progress.txt"
./target/release/obs-check "$SMOKE_DIR/BENCH_quick.json"

echo "==> live metrics smoke (--serve-metrics, scraped mid-campaign)"
./target/release/scanbist \
    --serve-metrics 127.0.0.1:0 \
    --trace-out "$SMOKE_DIR/serve_trace.ndjson" \
    diagnose s13207 --patterns 256 --faults 120 \
    > /dev/null 2> "$SMOKE_DIR/serve_stderr.txt" &
SERVE_PID=$!
# The ephemeral bound address is announced on stderr; poll for it.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^obs: serving metrics on http://##p' "$SMOKE_DIR/serve_stderr.txt")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve-metrics never announced an address"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/obs-check --scrape "$ADDR" || {
    echo "live /metrics scrape failed"; kill "$SERVE_PID" 2>/dev/null; exit 1;
}
wait "$SERVE_PID" || { echo "instrumented serve campaign failed"; exit 1; }
./target/release/obs-check "$SMOKE_DIR/serve_trace.ndjson"

echo "==> multi-process trace-join smoke (all_experiments + obs-check --join)"
rm -f "$SMOKE_DIR"/join/trace_*.ndjson
mkdir -p "$SMOKE_DIR/join"
./target/release/all_experiments \
    --trace-out "$SMOKE_DIR/join/trace_all_experiments.ndjson" \
    --only table1,table2 "$SMOKE_DIR/join" \
    > /dev/null 2>> "$SMOKE_DIR/summary.txt"
./target/release/obs-check --join "$SMOKE_DIR"/join/trace_*.ndjson

echo "==> SLO alert smoke (tight burn-rate rule: exactly one fire/resolve pair)"
cat > "$SMOKE_DIR/tight_slo.toml" <<'SLO'
# Deliberately tight: the per-core sweep folds diagnosis.cases in
# bursts far above 100/s, so the rule fires early in the sweep; the
# linger window keeps the sampler ticking through the quiet tail so
# the short window drains and the rule resolves exactly once.
[rule.sweep-burn]
series = "diagnosis.cases"
kind = "burn_rate"
rate_max = 100.0
long_ms = 2000
short_ms = 2000
SLO
SCANBIST_SLO_LINGER_MS=3000 ./target/release/table4 \
    --slo "$SMOKE_DIR/tight_slo.toml" \
    --trace-out "$SMOKE_DIR/alert_trace.ndjson" "$SMOKE_DIR" \
    > /dev/null 2>> "$SMOKE_DIR/summary.txt"
./target/release/obs-check "$SMOKE_DIR/alert_trace.ndjson"
FIRING=$(grep -c '"type":"alert".*"state":"firing"' "$SMOKE_DIR/alert_trace.ndjson" || true)
RESOLVED=$(grep -c '"type":"alert".*"state":"resolved"' "$SMOKE_DIR/alert_trace.ndjson" || true)
[ "$FIRING" = 1 ] && [ "$RESOLVED" = 1 ] || {
    echo "alert smoke expected exactly one fire/resolve pair, got $FIRING firing / $RESOLVED resolved:"
    grep '"type":"alert"' "$SMOKE_DIR/alert_trace.ndjson" || true
    exit 1
}

echo "==> flight-recorder crash smoke (forced panic, dump joins the parent trace)"
rm -rf "$SMOKE_DIR/crash"
mkdir -p "$SMOKE_DIR/crash"
if SCANBIST_CRASH_EXPERIMENT=table1 ./target/release/all_experiments \
    --trace-out "$SMOKE_DIR/crash/trace_all_experiments.ndjson" \
    --flight-recorder "$SMOKE_DIR/crash/flight_all_experiments.ndjson" \
    --only table1,table2 "$SMOKE_DIR/crash" \
    > /dev/null 2>> "$SMOKE_DIR/summary.txt"; then
    echo "crash smoke: all_experiments should exit nonzero when a child panics"
    exit 1
fi
[ -f "$SMOKE_DIR/crash/flight_table1.ndjson" ] || {
    echo "crash smoke left no flight dump for the panicked child"; exit 1;
}
grep -q '"type":"flight".*"reason":"panic"' "$SMOKE_DIR/crash/flight_table1.ndjson" || {
    echo "flight dump is missing its panic header record"; exit 1;
}
grep -q '^reason:  panic$' "$SMOKE_DIR/crash/flight_table1.txt" || {
    echo "flight dump is missing its human-readable summary"; exit 1;
}
./target/release/obs-check --join \
    "$SMOKE_DIR/crash/trace_all_experiments.ndjson" \
    "$SMOKE_DIR/crash/trace_table2.ndjson" \
    "$SMOKE_DIR/crash/flight_table1.ndjson"

echo "==> dashboard smoke (scanbist report, self-contained HTML + alert panel)"
./target/release/scanbist report "$SMOKE_DIR"/join/trace_*.ndjson \
    "$SMOKE_DIR/alert_trace.ndjson" \
    --out "$SMOKE_DIR/report.html" --title "verify smoke" \
    2>> "$SMOKE_DIR/summary.txt"
grep -q '<!doctype html>' "$SMOKE_DIR/report.html" || {
    echo "report smoke did not render an HTML document"; exit 1;
}
grep -q '<h2>SLO alerts</h2>' "$SMOKE_DIR/report.html" || {
    echo "report smoke did not render the SLO alert panel"; exit 1;
}
# Self-contained means self-contained: no external asset references.
if grep -Eq 'src="https?://|href="https?://|@import' "$SMOKE_DIR/report.html"; then
    echo "report.html references external assets"; exit 1;
fi

echo "==> scanbistd smoke (chaos-on load burst, live scrape, clean drain)"
rm -f "$SMOKE_DIR/daemon_stdout.txt"
SCANBIST_CHAOS="seed=5,slow_read=0.05,slow_read_ms=20,malformed=0.05,panic=0.05,latency=0.1,latency_ms=10,truncate=0.05" \
    ./target/release/scanbist --slo slo.toml serve \
    --addr 127.0.0.1:0 --queue 32 --deadline-ms 2000 --drain-ms 5000 \
    > "$SMOKE_DIR/daemon_stdout.txt" 2> "$SMOKE_DIR/daemon_stderr.txt" &
DAEMON_PID=$!
DADDR=""
for _ in $(seq 1 100); do
    DADDR=$(sed -n 's#^scanbistd: listening on http://##p' "$SMOKE_DIR/daemon_stdout.txt")
    [ -n "$DADDR" ] && break
    sleep 0.1
done
[ -n "$DADDR" ] || { echo "scanbistd never announced an address"; kill "$DAEMON_PID" 2>/dev/null; exit 1; }
# Overload burst with chaos injected: the loadgen exits nonzero if any
# response carries a status outside the daemon's graceful-degradation
# contract (i.e. any non-injected failure).
./target/release/scanbistd-loadgen --addr "$DADDR" \
    --rates 30,120 --duration-ms 1500 --deadline-ms 2000 --seed 3 \
    --out "$SMOKE_DIR/BENCH_daemon_smoke.json" \
    > "$SMOKE_DIR/loadgen.txt" || {
    echo "loadgen saw non-injected failures:"; cat "$SMOKE_DIR/loadgen.txt";
    kill "$DAEMON_PID" 2>/dev/null; exit 1;
}
./target/release/obs-check "$SMOKE_DIR/BENCH_daemon_smoke.json"
# The daemon serves the obs endpoints itself; scrape it live.
./target/release/obs-check --scrape "$DADDR" || {
    echo "live scanbistd /metrics scrape failed"; kill "$DAEMON_PID" 2>/dev/null; exit 1;
}
# Drain and require a clean exit.
./target/release/scanbistd-loadgen --addr "$DADDR" --drain >> "$SMOKE_DIR/loadgen.txt"
wait "$DAEMON_PID" || { echo "scanbistd did not drain cleanly"; exit 1; }
grep -q "scanbistd: drained" "$SMOKE_DIR/daemon_stdout.txt" || {
    echo "scanbistd never logged its drain"; exit 1;
}

echo "==> verify OK"
