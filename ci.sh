#!/usr/bin/env sh
# Offline CI gate for the workspace. Mirrors .github/workflows/ci.yml so the
# same checks run locally and in automation; everything resolves against the
# vendored shim crates under crates/shims/, so no network access is needed.
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

# The root manifest is both a package and a workspace; `default-members`
# lists every member, so a bare `cargo build` / `cargo test` already covers
# the whole workspace. --workspace keeps that explicit here.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# crates/jobs/clippy.toml's disallowed-methods list makes this step fail on
# any direct std::fs mutation in the jobs crate outside the SpoolFs seam
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> rustdoc gate (RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps)"
# Any rustdoc warning fails, so an intra-doc link left pointing at a
# deleted or private item cannot land.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> trace export smoke test"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo run --release -p harness --bin trace -- --n 256 --plan all --out "$out/trace.json"
cargo run --release -p harness --bin trace -- --n 256 --plan jw --out "$out/trace.csv"
for f in trace.json trace.csv; do
    test -s "$out/$f" || { echo "FAIL: $f is empty"; exit 1; }
done
grep -q '"traceEvents"' "$out/trace.json" || { echo "FAIL: not a Chrome trace"; exit 1; }
# A sharded host-tree run is the same shard loop as an unsharded one: one
# force-eval marker per shard, every label the plan's own (the
# `tree-pipeline:` labels belong to the device-tree path only).
cargo run --release -p harness --bin trace -- --n 1024 --plan jw --shards 3 --out "$out/sharded.csv"
evals="$(grep -c ',jw-parallel: force-eval,' "$out/sharded.csv" || true)"
test "$evals" -eq 3 || { echo "FAIL: sharded trace has $evals force-eval markers, want 3"; exit 1; }
if grep -q 'tree-pipeline:' "$out/sharded.csv"; then
    echo "FAIL: host-tree sharded trace carries a tree-pipeline label"; exit 1
fi
# A traced launch under faults: seed 3 at N = 1024 corrupts one launch,
# which runs on the traced device and is rolled back, so the trace must
# carry a result-corruption fault row beside its launch rows.
cargo run --release -p harness --bin trace -- --n 1024 --plan all --faults 3 --out "$out/faulted.csv"
grep -q ',fault,[0-9]*,result-corruption,' "$out/faulted.csv" || {
    echo "FAIL: faulted trace has no result-corruption row"; exit 1; }
grep -q ',launch,' "$out/faulted.csv" || { echo "FAIL: faulted trace has no launch row"; exit 1; }

echo "==> float writer identity test (release, 10^7 random bit patterns)"
# serde_json's Ryu-style writer must print every finite f64 exactly as
# format!("{:?}") does (that is what keeps every spool file byte-identical);
# the 10^7-pattern sweep is #[ignore]d in debug builds.
cargo test --release -q -p serde_json -- --include-ignored

echo "==> submit out-of-core flags smoke test"
# --shards must reach the submitted record, not be silently dropped
sspool="$out/shards-spool"
./target/release/submit --spool "$sspool" --n 256 --steps 1 --shards 3 > "$out/submit-shards.log"
grep -q '"shards": 3' "$sspool"/submitted/*.json || {
    echo "FAIL: submit --shards 3 did not reach the record"; exit 1; }

echo "==> fault-injection smoke test"
cargo run --release -p harness --bin faults -- --seed 7 --dir "$out/faults" | tee "$out/faults.log"
grep -q 'FAULTS OK' "$out/faults.log" || { echo "FAIL: fault recovery smoke did not pass"; exit 1; }

echo "==> quickstart example run (evolves on the host w-parallel engine)"
# clippy only compiles the examples; run one so its engine wiring is
# exercised end to end, and require the final energy-drift line
cargo run --release --example quickstart | tee "$out/quickstart.log"
tail -n 1 "$out/quickstart.log" | grep -Eq 'relative energy drift [0-9.]+e-[0-9]+$' || {
    echo "FAIL: quickstart did not end with its relative energy drift line"; exit 1; }

echo "==> threaded repro smoke test (--threads 4, small N)"
cargo run --release -p harness --bin repro-all -- --quick --max-n 1024 --threads 4 \
    > "$out/repro-threaded.log"
grep -q 'jw-parallel' "$out/repro-threaded.log" || { echo "FAIL: threaded repro produced no tables"; exit 1; }

echo "==> repro-all subcommand smoke test (every table once, small N)"
# Each table is a repro-all subcommand; run every one at small N and grep a
# row it must print.
repro() { # <row pattern> <subcommand> [flags]
    pattern="$1"
    shift
    ./target/release/repro-all "$@" > "$out/repro-$1.log"
    grep -Eq "$pattern" "$out/repro-$1.log" || {
        echo "FAIL: repro-all $1 printed no row matching '$pattern'"; exit 1; }
}
repro '^256 +65536 ' fig4 --quick --max-n 256
repro '^256 .*x$' fig5 --quick --max-n 256
repro '^256 .* ms .*x$' table1 --quick --max-n 256
repro '^256 .*-parallel$' table2 --quick --max-n 256
repro '^256 .* µs$' table3 --quick --max-n 256
repro '^256 +jw-parallel ' ptpm-report --quick --max-n 256
repro '^clustered +512 ' imbalance 512
repro '^0\.0025 ' drift 64
repro 'HD 5870 .*x$' whatif 512

echo "==> million-body out-of-core test (release)"
# Device-built tree and 16 Morton shards reproduce the in-core forces
# bit-for-bit at N = 2^20, sharding shrinks the peak device bytes, the PTPM
# pipeline forecast agrees with the simulated clock within (0.8, 1.25), and
# the device pipeline beats the modeled host tree path by >= 1.5x. The
# test is ignored in debug builds, hence --include-ignored.
cargo test --release -q --test shard_invariance -- --include-ignored

echo "==> benchmark self-test (perfbench, every workload, with negative controls)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> autotuner smoke test (forecast/measured, then db-hit, then --plan auto provenance)"
# First resolution on a fresh spool must come from the model or a
# measurement; the second must replay the persisted winner from tuning.json.
# Then a --plan auto submission must carry the db-hit provenance through the
# server into the job's bench.json artifact.
aspool="$out/tune-spool"
./target/release/autotune --spool "$aspool" --n 256 --seed 3 | tee "$out/autotune-cold.log"
grep -Eq 'AUTOTUNE OK plan=.* source=(forecast|measured)' "$out/autotune-cold.log" || {
    echo "FAIL: cold autotune did not resolve via forecast/measured"; exit 1; }
./target/release/autotune --spool "$aspool" --n 256 --seed 3 | tee "$out/autotune-warm.log"
grep -q 'AUTOTUNE OK.*source=db-hit' "$out/autotune-warm.log" || {
    echo "FAIL: warm autotune did not hit the tuning DB"; exit 1; }
./target/release/submit --spool "$aspool" --plan auto --n 256 --seed 3 --steps 2 --every 2 \
    | tee "$out/submit-auto.log"
grep -q 'plan auto: .*source=db-hit' "$out/submit-auto.log" || {
    echo "FAIL: submit --plan auto did not hit the tuning DB"; exit 1; }
./target/release/serve --spool "$aspool" | tee "$out/serve-auto.log"
grep -q 'JOBS OK' "$out/serve-auto.log" || { echo "FAIL: auto-plan job did not complete"; exit 1; }
grep -rq '"plan_source": *"auto:db-hit"' "$aspool/jobs" || {
    echo "FAIL: bench.json artifact does not record the auto resolution path"; exit 1; }

echo "==> job-server crash-recovery smoke test (SIGKILL mid-job)"
# Submit a small batch, kill the server with SIGKILL mid-job as soon as a
# job has written its first checkpoint (failing if none appears within
# 10 s), restart it, and require the summary's JOBS OK tail: the
# interrupted job must resume from its checkpoint and verify bit-exact
# against an uninterrupted reference run (resumed-jobs and
# verified-bitexact both nonzero on the recovery line), and no finished
# job may keep a ckpt-* file. The server binary is exec'd directly (not
# via cargo run) so the SIGKILL hits the server process itself.
spool="$out/spool"
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 1 --every 2
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 2 --every 2 --priority high
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 3 --every 2 --fault-seed 7
./target/release/serve --spool "$spool" --throttle-ms 80 > "$out/serve-killed.log" 2>&1 &
serve_pid=$!
# poll for a durable checkpoint (a renamed .snap, not its .tmp sibling)
# every 50 ms, for at most 10 s
polls=0
until ls "$spool"/jobs/*/ckpt-*.snap >/dev/null 2>&1; do
    polls=$((polls + 1))
    if [ "$polls" -gt 200 ]; then
        kill -9 "$serve_pid" 2>/dev/null || true
        echo "FAIL: no job checkpoint appeared within 10 s"; exit 1
    fi
    sleep 0.05
done
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
test "$(ls "$spool/running" "$spool/submitted" 2>/dev/null | grep -c json || true)" -gt 0 || {
    echo "FAIL: SIGKILL landed after the drain finished; nothing left to recover"; exit 1; }
./target/release/serve --spool "$spool" | tee "$out/serve-restart.log"
grep -q 'JOBS OK' "$out/serve-restart.log" || { echo "FAIL: restarted server did not report JOBS OK"; exit 1; }
grep -q 'requeued=[1-9]' "$out/serve-restart.log" || { echo "FAIL: no killed job was requeued"; exit 1; }
grep -q 'resumed-jobs=[1-9]' "$out/serve-restart.log" || {
    echo "FAIL: no killed job resumed from a checkpoint"; exit 1; }
grep -q 'verified-bitexact=[1-9]' "$out/serve-restart.log" || {
    echo "FAIL: no resumed job was verified bit-exact"; exit 1; }
# checkpoints live only while a job is unfinished: every job is done now,
# so no work dir may keep a ckpt-* file
if ls "$spool"/jobs/*/ckpt-* >/dev/null 2>&1; then
    echo "FAIL: finished jobs kept checkpoints:"; ls "$spool"/jobs/*/ckpt-*; exit 1
fi
# one-pass artifacts across the kill: each of the three computed jobs left
# a bench.json beside the trace.csv of its own priming evaluation, and all
# three specs run on the sim backend, so every trace has launch rows
test "$(ls "$spool"/jobs/*/bench.json 2>/dev/null | wc -l)" -eq 3 || {
    echo "FAIL: want exactly 3 bench.json artifacts after the restart"; exit 1; }
for bench in "$spool"/jobs/*/bench.json; do
    grep -q '^launch,' "$(dirname "$bench")/trace.csv" || {
        echo "FAIL: $(dirname "$bench")/trace.csv has no launch row"; exit 1; }
done

# identical resubmission of the full batch must be served 100% from cache
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 1 --every 2
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 2 --every 2 --priority high
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 3 --every 2 --fault-seed 7
./target/release/serve --spool "$spool" | tee "$out/serve-cached.log"
grep -q 'completed=3 computed=0 cache-hits=3' "$out/serve-cached.log" || {
    echo "FAIL: resubmitted batch was not served entirely from cache"; exit 1; }

echo "==> supervised daemon smoke test (SIGKILL mid-wave, restart, poison, SIGTERM drain)"
# Typed exit codes first: missing --spool is a configuration error (2),
# distinct from degradation (1) and spool corruption (3).
set +e
./target/release/serve >/dev/null 2>&1
usage_code=$?
set -e
test "$usage_code" -eq 2 || { echo "FAIL: serve without --spool exited $usage_code, want 2"; exit 1; }

dspool="$out/daemon-spool"
# a deliberately-unrunnable tenant: every compute unit dies on first touch,
# so supervision must requeue it until the attempt budget poisons it
./target/release/submit --spool "$dspool" --n 64 --steps 6 --every 2 --priority batch \
    --fault-seed 1 --fault-prob 0.2 --fault-loss-prob 1.0
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 4 --every 2 --priority batch
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 5 --every 2
./target/release/serve --spool "$dspool" --daemon --throttle-ms 60 > "$out/daemon-killed.log" 2>&1 &
daemon_pid=$!
sleep 1
# a high-priority job lands mid-wave (the daemon preempts batch for it),
# then SIGKILL the daemon exactly as a crashed host would
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 6 --every 2 --priority high
sleep 0.3
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
test "$(ls "$dspool/running" "$dspool/submitted" 2>/dev/null | grep -c json || true)" -gt 0 || {
    echo "FAIL: SIGKILL landed after the daemon drained; nothing left to recover"; exit 1; }

# restart in daemon mode: recovery requeues, supervision poisons the doomed
# tenant; submit --wait mirrors outcomes into exit codes (0 done, 3 poisoned)
./target/release/serve --spool "$dspool" --daemon > "$out/daemon-drain.log" 2>&1 &
daemon_pid=$!
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 8 --every 2 --wait \
    | tee "$out/wait-done.log"
grep -q 'outcome: .* done' "$out/wait-done.log" || { echo "FAIL: submit --wait did not report done"; exit 1; }
set +e
./target/release/submit --spool "$dspool" --n 64 --steps 6 --seed 9 --every 2 --priority batch \
    --fault-seed 2 --fault-prob 0.2 --fault-loss-prob 1.0 --wait > "$out/wait-poisoned.log" 2>&1
wait_code=$?
set -e
test "$wait_code" -eq 3 || { echo "FAIL: submit --wait on a poisoned job exited $wait_code, want 3"; exit 1; }
# let the queue drain fully, then SIGTERM: the daemon must exit 0 cleanly
for _ in $(seq 1 120); do
    test "$(ls "$dspool/running" "$dspool/submitted" 2>/dev/null | grep -c json || true)" -eq 0 && break
    sleep 0.5
done
kill -TERM "$daemon_pid"
set +e
wait "$daemon_pid"
daemon_code=$?
set -e
test "$daemon_code" -eq 0 || { echo "FAIL: SIGTERM drain exited $daemon_code, want 0"; exit 1; }
grep -q 'JOBS OK' "$out/daemon-drain.log" || { echo "FAIL: daemon did not report JOBS OK"; exit 1; }
grep -q 'poisoned=[1-9]' "$out/daemon-drain.log" || { echo "FAIL: daemon never poisoned the doomed tenant"; exit 1; }
test "$(ls "$dspool/poisoned" 2>/dev/null | grep -c json || true)" -gt 0 || {
    echo "FAIL: poisoned/ is empty; the unrunnable tenant was not quarantined"; exit 1; }
test -s "$dspool/daemon.json" || { echo "FAIL: daemon heartbeat was never written"; exit 1; }

echo "==> crash-point fuzz gate (every durable mutation prefix must recover)"
cargo test --release -q --test crashpoint_fuzz -- --nocapture | tee "$out/crashpoint.log"
grep -q 'CRASHPOINT OK' "$out/crashpoint.log" || {
    echo "FAIL: crash-point fuzz gate did not pass"; exit 1; }

echo "==> cross-backend conformance gate (sim / host / f32 matrix)"
# The full differential matrix (workloads x N x all four plans x {1,2,4}
# threads across the three backends, DESIGN.md section 11) runs in well
# under a second in release mode, so CI takes the non---quick sweep. The
# bin exits 1 on any contract violation; grep the verdict line anyway so a
# silent early exit can never pass.
cargo run --release -p harness --bin conformance | tee "$out/conformance.log"
grep -q 'CONFORMANCE OK' "$out/conformance.log" || {
    echo "FAIL: cross-backend conformance matrix did not pass"; exit 1; }

echo "==> allocation-regression gate (zero allocs per steady-state step)"
# tests/alloc_steady_state.rs installs the counting global allocator and
# asserts the serial PP/treecode/walk/Morton steps allocate nothing after
# warmup; run it in release so the gate matches shipping codegen.
cargo test --release -q --test alloc_steady_state

echo "==> release exactness gate (walk lanes, PP tiles, sim work-group lanes and memory phases, golden traces, race reports, snapshot formats)"
# The lane kernels only auto-vectorize in optimized builds, so the debug
# test run cannot catch a lane-order bug: rerun the bitwise property
# matrices against their scalar references in release. The golden traces
# and the race-checking tests pin the simulated costs and race reports the
# sim kernels' group-level loads and stores must reproduce, under the same
# codegen. The snapshot-format tests pin checkpoint bits and cache-entry
# bytes.
cargo test --release -q --test walk_lane_exactness --test tiled_exactness \
    --test sim_lane_exactness --test golden_trace --test race_checking \
    --test snapshot_format

echo "CI OK"
