#!/usr/bin/env bash
# Local CI gate — the same checks the GitHub Actions workflow runs.
# Fully offline: every dependency is a path dependency under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

# `./ci.sh bless` regenerates the golden snapshots under tests/golden/
# from a fresh release `run_all --quick` run. Review the resulting diff
# like any other code change before committing it.
if [[ "${1:-}" == "bless" ]]; then
  echo "==> bless: regenerating tests/golden/ from run_all --quick"
  cargo build --release -p relsim-bench --bin run_all
  out=target/golden-bless
  rm -rf "$out"
  mkdir -p "$out"
  RELSIM_OUT="$out" target/release/run_all --quick >/dev/null
  mkdir -p tests/golden
  rm -f tests/golden/fig*.json
  cp "$out"/fig*.json tests/golden/
  ls tests/golden
  echo "==> bless: done — review 'git diff tests/golden' before committing"
  exit 0
fi

# `./ci.sh bench` refreshes the perf trajectory: it times the canonical
# workload (skip vs --no-skip, detailed and sampled) and rewrites
# BENCH_perf.json at the repo root, printing the delta against the
# committed snapshot. Non-gating — regressions are reviewed, not
# rejected; commit the refreshed JSON alongside perf-relevant changes.
if [[ "${1:-}" == "bench" ]]; then
  echo "==> bench: timing the canonical workload (BENCH_perf.json)"
  cargo build --release -p relsim-bench --bin bench_perf
  target/release/bench_perf
  echo "==> bench: done — review 'git diff BENCH_perf.json'"
  exit 0
fi

# `./ci.sh bench-check` re-times the canonical workload and compares it
# against the committed BENCH_perf.json with noise-aware thresholds
# (max of a 10% floor and 2x the larger low-half jitter). Gating for the
# detailed-engine rows: a -detailed-/-membound- slowdown beyond the
# tolerance exits 1 and blocks the merge, because those rows time the
# deterministic core tick loop where best-of-5 wall time tracks real
# cost. Sampled rows stay warn-only (fast-forward-dominated, noisier).
# `./ci.sh bench` refreshes the snapshot after intentional perf changes.
if [[ "${1:-}" == "bench-check" ]]; then
  echo "==> bench-check: fresh timings vs committed BENCH_perf.json"
  cargo build --release -p relsim-bench --bin bench_perf
  target/release/bench_perf --check
  exit $?
fi

# `./ci.sh serve` is the relsim-serve smoke gate: start the daemon at a
# quick scale, prove wire-level byte-identity against the batch CLI
# (simulate --result-out, plain and under --profile, whose manifest must
# carry the stage profile), drive a mixed hot/cold load profile with
# loadgen (zero drops, >90% warm-hit rate on repeats, zero shed), and
# drain cleanly via POST /shutdown.
if [[ "${1:-}" == "serve" ]]; then
  echo "==> serve gate: daemon + loadgen quick profile"
  cargo build --release -p relsim-bench --bin serve --bin loadgen --bin simulate
  out=target/ci-serve
  rm -rf "$out"
  mkdir -p "$out"
  RELSIM_OUT="$out" RELSIM_CACHE_DIR="$out/cache" target/release/serve --quick \
    --addr 127.0.0.1:0 --port-file "$out/port" &
  serve_pid=$!
  trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 150); do [[ -s "$out/port" ]] && break; sleep 0.2; done
  [[ -s "$out/port" ]] || { echo "    serve never wrote its port file"; exit 1; }
  addr=$(cat "$out/port")
  echo "    daemon up at $addr"
  # Byte-identity: the same request through the batch CLI and through
  # the live daemon — cold, then warm — must produce identical bytes.
  cat > "$out/req.json" <<'EOF'
{"benchmarks":["milc","hmmer"],"big":1,"small":1,"scheduler":"reliability","ticks":60000,"quantum":10000,"half_freq_small":false,"rob_only":false}
EOF
  RELSIM_OUT="$out" RELSIM_CACHE_DIR="$out/cli-cache" target/release/simulate --quick \
    --benchmarks milc,hmmer --big 1 --small 1 --scheduler reliability \
    --ticks 60000 --quantum 10000 --result-out "$out/batch.json" >/dev/null
  target/release/loadgen --addr "$addr" --one "$out/req.json" --out "$out/served-cold.json"
  target/release/loadgen --addr "$addr" --one "$out/req.json" --out "$out/served-warm.json"
  diff "$out/batch.json" "$out/served-cold.json"
  diff "$out/batch.json" "$out/served-warm.json"
  echo "    served responses byte-identical to the batch artifact"
  # The same request again under the span profiler: profiling must not
  # move a byte of the artifact, and the run manifest must carry the
  # stage profile (set-up through metrics), not the removed host_profile.
  RELSIM_OUT="$out" RELSIM_CACHE_DIR="$out/cli-cache" target/release/simulate --quick \
    --benchmarks milc,hmmer --big 1 --small 1 --scheduler reliability \
    --ticks 60000 --quantum 10000 --profile --metrics-out "$out/cli-metrics.json" \
    --result-out "$out/batch-profiled.json" >/dev/null
  diff "$out/batch.json" "$out/batch-profiled.json"
  cli_manifest="$out/cli-metrics.manifest.json"
  for stage in setup metrics; do
    grep -q "\"stage\": *\"$stage\"" "$cli_manifest" \
      || { echo "    $cli_manifest names no $stage stage"; exit 1; }
  done
  if grep -q '"host_profile"' "$cli_manifest"; then
    echo "    $cli_manifest still has a host_profile key"
    exit 1
  fi
  echo "    profiled CLI run byte-identical; its manifest names the setup and metrics stages"
  # Mixed hot/cold load: >=1000 requests, zero dropped, repeats >90%
  # warm, nothing shed at this depth, responses byte-identical per
  # request (loadgen enforces all of this and exits nonzero otherwise).
  target/release/loadgen --addr "$addr" --quick --requests 1000 --clients 8 \
    --distinct 25 --min-warm-rate 0.9 --max-shed 0
  target/release/loadgen --addr "$addr" --shutdown
  wait "$serve_pid"
  trap - EXIT
  echo "==> serve gate: passed (byte-identity + load profile + clean shutdown)"
  exit 0
fi

# `./ci.sh faults` is the reliability-mode gate: the fault-masking
# recovery suite in release (zero SDCs across >=1000 faults under
# checkpoint and DMR while the unprotected baseline leaks SDCs on the
# same seeds, plus bit-identical rollback state on a live core), then a
# quick fig13_modes determinism check — the Pareto artifact and stdout
# must be byte-identical at -j1 (cold cache) vs -j4 (warm cache).
if [[ "${1:-}" == "faults" ]]; then
  echo "==> faults gate: fault_recovery suite in release"
  cargo test --release -q -p relsim-integration-tests --test fault_recovery
  echo "==> faults gate: fig13_modes -j1 cold vs -j4 warm"
  cargo build --release -p relsim-bench --bin fig13_modes
  out=target/ci-faults
  rm -rf "$out"
  mkdir -p "$out/j1" "$out/j4"
  RELSIM_OUT="$out/j1" RELSIM_CACHE_DIR="$out/cache" \
    target/release/fig13_modes --quick --jobs 1 >"$out/stdout-j1.txt"
  RELSIM_OUT="$out/j4" RELSIM_CACHE_DIR="$out/cache" \
    target/release/fig13_modes --quick --jobs 4 >"$out/stdout-j4.txt"
  diff "$out/j1/fig13_modes.json" "$out/j4/fig13_modes.json"
  diff "$out/stdout-j1.txt" "$out/stdout-j4.txt"
  echo "    fig13_modes.json byte-identical at -j1 (cold) vs -j4 (warm cache)"
  echo "==> faults gate: passed"
  exit 0
fi

# `./ci.sh pins` gates the benchmark package under perfbench/ (its own
# cargo workspace over the program's public API): perfbench's tests, then
# every output digest `perfbench --pin` prints for the default seed 2017
# and the held-out seed 4242 (the 2B2S grid, the sampled memory-bound
# replicas and the served hot-set catalog) must appear verbatim in
# perfbench/pins.txt. A change to any output the benchmark pins fails
# here instead of in a timed run.
if [[ "${1:-}" == "pins" ]]; then
  echo "==> pins gate: perfbench tests + output digests vs perfbench/pins.txt"
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
  bench=perfbench/target/release/perfbench
  out=target/ci-pins
  rm -rf "$out"
  mkdir -p "$out"
  for w in grid-2b2s sampled-membound; do
    "$bench" --pin --workload "$w" --seeds 2017,4242 >"$out/$w.txt"
  done
  "$bench" --pin --workload serve-hotcold >"$out/serve-hotcold.txt"
  for f in "$out"/*.txt; do
    w=$(basename "$f" .txt)
    [[ -s "$f" ]] || { echo "    $w printed no pin lines"; exit 1; }
    if grep -vxF -f perfbench/pins.txt "$f"; then
      echo "    the $w lines above are not in perfbench/pins.txt"
      exit 1
    fi
  done
  echo "==> pins gate: passed ($(cat "$out"/*.txt | wc -l) digests found in perfbench/pins.txt)"
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Broken or private intra-doc links fail the build. Per package, not
# --workspace: the vendored proptest fails rustdoc on its own.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p relsim -p relsim-ace -p relsim-bench -p relsim-cache -p relsim-cpu -p relsim-mem -p relsim-metrics -p relsim-obs -p relsim-power -p relsim-serve -p relsim-trace

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> sampled-accuracy gate: sampling_accuracy in release"
# The interval-sampling engine's acceptance bound (sampled SSER/STP
# within 3% geomean of full runs at >=5x fewer detailed cycles) plus
# sampled -j1/-j4 byte-identity. Debug builds ignore the heavy test, so
# this runs the release binary where it takes a few seconds.
cargo test --release -q -p relsim-integration-tests --test sampling_accuracy

echo "==> horizon-equivalence gate: horizon_equivalence in release"
# Event-horizon cycle skipping must be byte-identical to the plain tick
# loop: same results and event streams across schedulers, job counts and
# sampling configurations, plus core-level horizon/skip proptests. The
# quick-scale differential grid is ignored in debug builds, so this runs
# the release binary.
cargo test --release -q -p relsim-integration-tests --test horizon_equivalence

echo "==> span-tracing gate: span_tracing in release"
# Hierarchical span tracing and the stage profiler: trace structure must
# be byte-identical across job counts, the profiler must attribute the
# detailed engine's wall time, Chrome-trace exports must be well-formed
# and strictly nested, and the disabled path must cost <1% of a real
# tick. The overhead-budget test is ignored in debug builds, so this
# runs the release binary where the budget holds. It times a loop, so it
# runs alone on one test thread, after the others: the binary's other
# tests would otherwise share the CPUs while it times.
span_budget=disabled_span_path_is_under_one_percent_of_tick_cost
cargo test --release -q -p relsim-integration-tests --test span_tracing -- --skip "$span_budget"
cargo test --release -q -p relsim-integration-tests --test span_tracing -- \
  --exact "$span_budget" --test-threads=1

echo "==> faults gate: recovery suite + fig13_modes determinism"
"$0" faults

echo "==> golden snapshots: run_all --quick vs tests/golden/"
cargo test --release -q -p relsim-bench --test golden

echo "==> parallel determinism: run_all --quick at -j1 vs -j2"
# Same grid, different worker counts: every artifact (result JSON, the
# result cache directory, the event trace) and stdout must be
# byte-identical. Progress and timing go to stderr, which is the one
# stream allowed to differ.
for j in 1 2; do
  out="target/ci-determinism/j$j"
  rm -rf "$out"
  mkdir -p "$out"
  RELSIM_OUT="$out" target/release/run_all --quick --jobs "$j" \
    --trace-out "$out/events.jsonl" >"target/ci-determinism/stdout-j$j.txt"
done
diff -r target/ci-determinism/j1 target/ci-determinism/j2
diff target/ci-determinism/stdout-j1.txt target/ci-determinism/stdout-j2.txt
echo "    -j1 and -j2 outputs are byte-identical"

echo "==> span-export determinism: --trace-spans at -j1 vs -j2"
# The Chrome-trace export must have identical structure (thread names,
# span names, counts, ordering) at any worker count; only wall-clock
# timestamps and durations may differ, so those are normalised away
# before the diff. Cache hits replay no spans, hence --no-cache: every
# job must actually execute for the traces to be comparable.
for j in 1 2; do
  out="target/ci-spans/j$j"
  rm -rf "$out"
  mkdir -p "$out"
  RELSIM_OUT="$out" target/release/run_all --quick --no-cache --jobs "$j" \
    --trace-spans "$out/spans.json" >/dev/null
  sed -E 's/"(ts|dur)":[0-9]+(\.[0-9]+)?/"\1":0/g' "$out/spans.json" \
    >"target/ci-spans/normalized-j$j.json"
done
diff target/ci-spans/normalized-j1.json target/ci-spans/normalized-j2.json
echo "    -j1 and -j2 span traces are structurally identical"

echo "==> warm-cache gate: run_all --quick cold vs warm vs --no-cache"
# The content-addressed result cache must be invisible in the output and
# pay for itself: a warm rerun against the same cache directory must be
# strictly faster than the cold run, and every fig*.json must be
# byte-identical across cold, warm, and --no-cache runs.
out=target/ci-cache
rm -rf "$out"
mkdir -p "$out/out" "$out/figs-cold"
t0=$(date +%s%N)
RELSIM_OUT="$out/out" target/release/run_all --quick >"$out/stdout-cold.txt"
t1=$(date +%s%N)
cp "$out/out"/fig*.json "$out/figs-cold/"
t2=$(date +%s%N)
RELSIM_OUT="$out/out" target/release/run_all --quick >"$out/stdout-warm.txt"
t3=$(date +%s%N)
for f in "$out/figs-cold"/fig*.json; do
  diff "$f" "$out/out/$(basename "$f")"
done
diff "$out/stdout-cold.txt" "$out/stdout-warm.txt"
RELSIM_OUT="$out/out" target/release/run_all --quick --no-cache >"$out/stdout-nocache.txt"
for f in "$out/figs-cold"/fig*.json; do
  diff "$f" "$out/out/$(basename "$f")"
done
diff "$out/stdout-cold.txt" "$out/stdout-nocache.txt"
cold_ms=$(( (t1 - t0) / 1000000 ))
warm_ms=$(( (t3 - t2) / 1000000 ))
if (( warm_ms >= cold_ms )); then
  echo "    warm run (${warm_ms}ms) is not faster than cold (${cold_ms}ms)"
  exit 1
fi
echo "    cold ${cold_ms}ms -> warm ${warm_ms}ms; fig*.json byte-identical (warm and --no-cache)"

echo "==> serve smoke gate: daemon + loadgen + byte-identity"
"$0" serve

echo "==> benchmark pins gate: perfbench tests + pinned digests"
"$0" pins

echo "==> ci.sh: all checks passed"
