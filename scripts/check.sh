#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the test suite, then run the
# simulation-engine and datapath microbenches and validate the schema (and
# speedup gates) of their JSON output (so perf-tracking tooling downstream
# never silently breaks).
#
# SANITIZE=address,undefined ./scripts/check.sh
#   builds the suite under the given sanitizers in a separate build tree
#   (build-san/) and runs ctest there instead; benches are skipped (their
#   timings are meaningless under instrumentation). The chaos fault-injection
#   sweep still runs (it hunts memory bugs, not timings).
#
# SANITIZE=thread ./scripts/check.sh
#   builds under ThreadSanitizer and runs the parallel-subsystem subset (task
#   pool, netsim solver, collectives, determinism regressions, trimmed
#   property/chaos sweeps) with the pool forced wide (MCCS_THREADS=8) so every
#   cross-thread access pattern actually runs threaded. The full suite is
#   deliberately not run: TSan's ~10x slowdown makes the 1000-seed sweeps
#   prohibitive, and the single-threaded tests have no data races to find.
#
# CHAOS_SEEDS=N (default 100) sizes the seeded random fault-schedule sweep of
# tests/test_chaos_fuzz.cpp run in both modes. CHAOS_CHURN_SEEDS=N (default
# 100) sizes the chaos-under-churn invariant sweep of tests/test_chaos_churn.cpp
# (faults + kills composed with tenant churn; termination, exactly-once,
# zero-orphan quiesce and assignment-identity invariants per seed), which runs
# at MCCS_THREADS=1 and 8 — the seed-parallel sweep must be thread-count
# independent.
set -euo pipefail

# The JSON gates below are python3 programs; without python3 they cannot run,
# and a gate that cannot run must fail the check, not pass it.
command -v python3 >/dev/null 2>&1 || { echo "FAIL: python3 required" >&2; exit 1; }

cd "$(dirname "$0")/.."

chaos_sweep() {
  local tests_bin="$1"
  local seeds="${CHAOS_SEEDS:-100}"
  echo "== chaos sweep (${seeds} seeds) =="
  MCCS_CHAOS_SEEDS="${seeds}" "$tests_bin" \
    --gtest_filter='*ChaosFuzz*' --gtest_brief=1
}

chaos_churn_sweep() {
  local tests_bin="$1"
  local seeds="${CHAOS_CHURN_SEEDS:-100}"
  for threads in 1 8; do
    echo "== chaos-under-churn sweep (${seeds} seeds, MCCS_THREADS=${threads}) =="
    MCCS_THREADS="${threads}" MCCS_CHAOS_CHURN_SEEDS="${seeds}" "$tests_bin" \
      --gtest_filter='*ChaosChurn*:*LinkChangeLog*:*ControllerRestart*:*IncrementalAssignAudit*' \
      --gtest_brief=1
  done
}

if [[ "${SANITIZE:-}" == "thread" ]]; then
  echo "== sanitizer build: thread =="
  cmake -B build-tsan -S . -DMCCS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target mccs_tests
  echo "== parallel-subsystem tests (TSan, MCCS_THREADS=8) =="
  MCCS_THREADS=8 MCCS_NETSIM_PROPERTY_SEEDS=40 MCCS_CHAOS_SEEDS=6 \
    MCCS_NETSIM_8K_SEEDS=1 MCCS_CHAOS_CHURN_SEEDS=8 \
    MCCS_NETSIM_BATCH_SEEDS=40 \
    build-tsan/tests/mccs_tests \
    --gtest_filter='*Parallel*:*ChaosFuzz*:*ChaosChurnFuzz*:*NetworkProperties*:*FuzzFixture*:*ReduceBytes*:*Collective*:*NetworkSlab*:*NetsimBatch*' \
    --gtest_brief=1
  echo "ALL CHECKS PASSED (sanitized: thread)"
  exit 0
fi

if [[ -n "${SANITIZE:-}" ]]; then
  echo "== sanitizer build: ${SANITIZE} =="
  cmake -B build-san -S . -DMCCS_SANITIZE="${SANITIZE}" >/dev/null
  cmake --build build-san -j "$(nproc)" --target mccs_tests
  (cd build-san && ctest --output-on-failure -j "$(nproc)")
  chaos_sweep build-san/tests/mccs_tests
  # The telemetry recording path is pointer-heavy (string literals retained
  # by pointer, one shared argument arena): run its tests explicitly under
  # the sanitizers so an arena overrun or dangling key fails loudly here.
  echo "== telemetry tests (sanitized) =="
  build-san/tests/mccs_tests --gtest_filter='*Telemetry*' --gtest_brief=1
  # The warm-started control plane reuses per-link scratch across solves and
  # evicts per-comm metrics on teardown — exactly the lifetime bugs ASan/UBSan
  # catch. Run the churn smoke + the incremental-vs-full property sweep
  # explicitly (seconds-scale even under instrumentation), together with the
  # placement tests: compact placement's per-rack free index is index
  # arithmetic, fuzzed against the map-based reference.
  echo "== control-plane churn smoke (sanitized) =="
  MCCS_ASSIGN_SEEDS=40 build-san/tests/mccs_tests \
    --gtest_filter='*ClusterChurn*:*IncrementalAssign*:*Placement*' --gtest_brief=1
  # The chaos composition (faults + kills + backpressure + audit fallback +
  # restart recovery) stresses exactly the teardown/rebuild lifetimes the
  # sanitizers exist for; a trimmed sweep is seconds-scale even instrumented.
  echo "== chaos-under-churn (sanitized) =="
  MCCS_CHAOS_CHURN_SEEDS=20 build-san/tests/mccs_tests \
    --gtest_filter='*ChaosChurn*:*LinkChangeLog*:*ControllerRestart*' \
    --gtest_brief=1
  # The flow slab recycles slots and hands out interned path views — exactly
  # the use-after-free shapes ASan exists for. Run the slab suite explicitly
  # (it is also in the full ctest pass above; this keeps it visible).
  echo "== flow-slab tests (sanitized) =="
  build-san/tests/mccs_tests --gtest_filter='*NetworkSlab*' --gtest_brief=1
  # Solve coalescing cancels and re-derives completion events wholesale at
  # batch close and recycles cohort records — run the batched-vs-unbatched
  # identity sweep explicitly so a dangling event handle fails loudly here.
  echo "== solve-coalescing tests (sanitized) =="
  MCCS_NETSIM_BATCH_SEEDS=100 build-san/tests/mccs_tests \
    --gtest_filter='*NetsimBatch*' --gtest_brief=1
  echo "ALL CHECKS PASSED (sanitized: ${SANITIZE})"
  exit 0
fi

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "== micro_flowsim =="
(cd build/bench && ./micro_flowsim)

json=build/bench/BENCH_flowsim.json
[[ -s "$json" ]] || { echo "FAIL: $json missing or empty" >&2; exit 1; }

# Every line must be a JSON object with exactly the expected keys; fail on
# drift so the bench's consumers (EXPERIMENTS.md, trend dashboards) notice.
python3 - "$json" <<'EOF'
import json, sys

expected = {"bench", "gpus", "mode", "events", "sim_s", "wall_s",
            "events_per_sec", "speedup_vs_reference"}
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("FAIL: no records in BENCH_flowsim.json")
for i, line in enumerate(lines, 1):
    rec = json.loads(line)
    if set(rec) != expected:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != {sorted(expected)}")
    if rec["mode"] not in ("reference", "incremental"):
        sys.exit(f"FAIL: line {i} unknown mode {rec['mode']!r}")
print(f"BENCH_flowsim.json schema OK ({len(lines)} records)")
EOF

# Scale points (arena-backed slab at 768/8k/32k endpoints): schema, the
# bit-reproducibility flags, an events/s floor at 8k, and 768-GPU
# non-regression against the BENCH_flowsim incremental row from the same run.
sjson=build/bench/BENCH_scale.json
[[ -s "$sjson" ]] || { echo "FAIL: $sjson missing or empty" >&2; exit 1; }
python3 - "$sjson" "$json" <<'EOF'
import json, sys

perf_keys = {"bench", "kind", "gpus", "threads", "events", "sim_s", "wall_s",
             "events_per_sec", "digest", "solves_per_event",
             "mean_batch_width"}
id_keys = {"bench", "kind", "gpus", "threads_identical",
           "identical_to_reference", "verify_events", "hot_bytes",
           "param_bytes", "cold_bytes", "bytes_per_flow_state"}
co_keys = {"bench", "kind", "gpus", "events", "solves_batched",
           "solves_unbatched", "solves_per_event_batched",
           "solves_per_event_unbatched", "mean_batch_width", "reduction",
           "wall_s_batched", "wall_s_unbatched", "digest_identical"}
perf, ident, coal = {}, {}, {}
for i, line in enumerate((l for l in open(sys.argv[1]) if l.strip()), 1):
    rec = json.loads(line)
    if rec.get("kind") == "perf":
        if set(rec) != perf_keys:
            sys.exit(f"FAIL: perf line {i} keys {sorted(rec)}")
        perf[(rec["gpus"], rec["threads"])] = rec
    elif rec.get("kind") == "identity":
        if set(rec) != id_keys:
            sys.exit(f"FAIL: identity line {i} keys {sorted(rec)}")
        ident[rec["gpus"]] = rec
    elif rec.get("kind") == "coalesce":
        if set(rec) != co_keys:
            sys.exit(f"FAIL: coalesce line {i} keys {sorted(rec)}")
        coal[rec["gpus"]] = rec
    else:
        sys.exit(f"FAIL: line {i} unknown kind {rec.get('kind')!r}")

scales = {768, 8192, 32768}
if set(ident) != scales or {g for g, _ in perf} != scales:
    sys.exit(f"FAIL: scale points missing (perf {sorted(perf)}, "
             f"identity {sorted(ident)})")
if set(coal) != scales:
    sys.exit(f"FAIL: coalesce rows missing (have {sorted(coal)})")
for gpus, rec in sorted(ident.items()):
    if not rec["threads_identical"]:
        sys.exit(f"FAIL: {gpus}-GPU completion stream differs across threads")
    if not rec["identical_to_reference"]:
        sys.exit(f"FAIL: {gpus}-GPU incremental drifted from reference oracle")
for (gpus, threads), rec in sorted(perf.items()):
    other = perf[(gpus, 1 if threads == 8 else 8)]
    if rec["digest"] != other["digest"]:
        sys.exit(f"FAIL: {gpus}-GPU digests differ between thread counts")
# The netsim solve is serial (DESIGN.md §10): a wide task pool must not make
# a scale point slower than the inline run beyond noise.
for gpus in sorted(scales):
    w1, w8 = perf[(gpus, 1)]["wall_s"], perf[(gpus, 8)]["wall_s"]
    if w8 > 1.2 * w1:
        sys.exit(f"FAIL: {gpus}-GPU threads=8 wall {w8:.3f}s > 1.2x "
                 f"threads=1 wall {w1:.3f}s")

# Solve coalescing (DESIGN.md §15): batched and unbatched runs must complete
# every flow at the bitwise-identical virtual time, and batching must pay for
# itself — at the 8k scale the per-event solve count must drop >= 3x.
for gpus, rec in sorted(coal.items()):
    if not rec["digest_identical"]:
        sys.exit(f"FAIL: {gpus}-GPU batched completion stream diverged from "
                 f"the per-event solve baseline")
    if rec["solves_batched"] > rec["solves_unbatched"]:
        sys.exit(f"FAIL: {gpus}-GPU batching increased solves "
                 f"({rec['solves_batched']} > {rec['solves_unbatched']})")
if coal[8192]["reduction"] < 3.0:
    sys.exit(f"FAIL: 8k solve coalescing reduction "
             f"{coal[8192]['reduction']:.2f}x < 3.0x floor")

# Conservative floors (measured ~86k/s at 8k, ~1.1M/s at 768 on the CI
# class of machine): catch order-of-magnitude regressions, not noise.
if perf[(8192, 1)]["events_per_sec"] < 20000:
    sys.exit(f"FAIL: 8k events/s floor: {perf[(8192, 1)]['events_per_sec']}")
flow768 = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
flow768 = [r for r in flow768 if r["gpus"] == 768 and r["mode"] == "incremental"]
if flow768 and perf[(768, 1)]["events_per_sec"] < 0.5 * flow768[0]["events_per_sec"]:
    sys.exit(f"FAIL: 768-GPU scale row regressed vs BENCH_flowsim "
             f"({perf[(768, 1)]['events_per_sec']} vs {flow768[0]['events_per_sec']})")
print(f"BENCH_scale.json OK ({len(perf)} perf + {len(ident)} identity + "
      f"{len(coal)} coalesce rows)")
EOF

echo "== micro_datapath =="
(cd build/bench && ./micro_datapath)

dpjson=build/bench/BENCH_datapath.json
[[ -s "$dpjson" ]] || { echo "FAIL: $dpjson missing or empty" >&2; exit 1; }

# Schema per section plus the PR's perf gates: a cache hit must be >= 3x
# cheaper than building the plan, and the vectorized float32-sum reduce must
# be >= 2x the scalar reference.
python3 - "$dpjson" <<'EOF'
import json, sys

expected = {
    "plan": {"bench", "section", "kind", "count", "channels",
             "cold_ns", "warm_ns", "speedup"},
    "reduce": {"bench", "section", "dtype", "op", "bytes",
               "scalar_gbps", "vector_gbps", "speedup"},
    "e2e": {"bench", "section", "plan_cache", "host_ns_per_collective",
            "hit_rate"},
}
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("FAIL: no records in BENCH_datapath.json")
seen = set()
for i, line in enumerate(lines, 1):
    rec = json.loads(line)
    sec = rec.get("section")
    if sec not in expected:
        sys.exit(f"FAIL: line {i} unknown section {sec!r}")
    if set(rec) != expected[sec]:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != "
                 f"{sorted(expected[sec])}")
    seen.add(sec)
    if sec == "plan" and rec["speedup"] < 3.0:
        sys.exit(f"FAIL: plan cache speedup {rec['speedup']:.2f} < 3x "
                 f"for {rec['kind']}")
    if (sec == "reduce" and rec["dtype"] == "f32" and rec["op"] == "sum"
            and rec["speedup"] < 2.0):
        sys.exit(f"FAIL: f32-sum reduce speedup {rec['speedup']:.2f} < 2x")
if seen != set(expected):
    sys.exit(f"FAIL: sections {sorted(seen)} != {sorted(expected)}")
print(f"BENCH_datapath.json schema + gates OK ({len(lines)} records)")
EOF

chaos_sweep build/tests/mccs_tests
chaos_churn_sweep build/tests/mccs_tests

echo "== micro_recovery =="
(cd build/bench && ./micro_recovery)

rcjson=build/bench/BENCH_recovery.json
[[ -s "$rcjson" ]] || { echo "FAIL: $rcjson missing or empty" >&2; exit 1; }

# Schema plus the robustness gates: both recovery modes must end bit-correct
# with a finite detection + recovery time, and the full pipeline (transport
# escalation -> controller reconfiguration) must retain >= 50% goodput on the
# degraded topology.
python3 - "$rcjson" <<'EOF'
import json, math, sys

expected = {"bench", "mode", "gpus", "bytes", "healthy_iter_s",
            "disrupted_iter_s", "degraded_iter_s", "time_to_detect_s",
            "time_to_recover_s", "goodput_retained", "retries",
            "escalations", "comms_reconfigured", "bit_correct"}
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("FAIL: no records in BENCH_recovery.json")
modes = set()
for i, line in enumerate(lines, 1):
    rec = json.loads(line)
    if set(rec) != expected:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != {sorted(expected)}")
    mode = rec["mode"]
    if mode not in ("rehash", "reconfig"):
        sys.exit(f"FAIL: line {i} unknown mode {mode!r}")
    modes.add(mode)
    if rec["bit_correct"] is not True:
        sys.exit(f"FAIL: {mode} result not bit-correct after recovery")
    for key in ("time_to_detect_s", "time_to_recover_s"):
        if not (0.0 < rec[key] < math.inf):
            sys.exit(f"FAIL: {mode} {key} = {rec[key]} not finite-positive")
    if mode == "reconfig":
        if rec["goodput_retained"] < 0.5:
            sys.exit(f"FAIL: reconfig goodput_retained "
                     f"{rec['goodput_retained']:.3f} < 0.5")
        if rec["comms_reconfigured"] < 1:
            sys.exit("FAIL: reconfig mode reconfigured no communicators")
if modes != {"rehash", "reconfig"}:
    sys.exit(f"FAIL: modes {sorted(modes)} != ['reconfig', 'rehash']")
print(f"BENCH_recovery.json schema + gates OK ({len(lines)} records)")
EOF

# With telemetry disabled (the default), every simulated result must stay
# byte-identical to the checked-in goldens: the telemetry subsystem observes
# the simulation and must never perturb it. Wall-clock output (micro_overhead)
# is compared on its virtual counters only.
#
# The loop runs once with the task pool off (MCCS_THREADS=1) and once with it
# forced wide (MCCS_THREADS=8): the pool's determinism contract says the
# thread count may never change a simulated result, so BOTH runs must match
# the same goldens byte for byte.
for threads in 1 8; do
  export MCCS_THREADS="$threads"
  echo "== telemetry-disabled golden outputs (MCCS_THREADS=${threads}) =="
  for fig in fig06_single_app fig07_reconfig fig08_multi_app fig09_qos_jct \
             fig10_dynamic_policy fig11_sim_cdf; do
    golden="bench/goldens/${fig}.txt"
    [[ -s "$golden" ]] || { echo "FAIL: $golden missing" >&2; exit 1; }
    (cd build/bench && "./${fig}") > "build/bench/${fig}.out"
    diff -u "$golden" "build/bench/${fig}.out" || {
      echo "FAIL: ${fig} output drifted from ${golden}" \
           "(MCCS_THREADS=${threads})" >&2; exit 1;
    }
    echo "${fig} matches golden (MCCS_THREADS=${threads})"
  done
  (cd build/bench && ./micro_overhead) 2>/dev/null \
    | grep -o 'BM_[A-Za-z_]*\|VirtualLatencyUs=[0-9.e+-]*\|OverheadUs=[0-9.e+-]*' \
    | paste -d' ' - - > build/bench/micro_overhead_virtual.out
  diff -u bench/goldens/micro_overhead_virtual.txt \
          build/bench/micro_overhead_virtual.out || {
    echo "FAIL: micro_overhead virtual latencies drifted" \
         "(MCCS_THREADS=${threads})" >&2; exit 1;
  }
  echo "micro_overhead virtual latencies match golden (MCCS_THREADS=${threads})"
done
unset MCCS_THREADS

echo "== micro_telemetry =="
(cd build/bench && ./micro_telemetry)

tljson=build/bench/BENCH_telemetry.json
[[ -s "$tljson" ]] || { echo "FAIL: $tljson missing or empty" >&2; exit 1; }

# Schema plus the PR's gates: enabled-mode telemetry must not perturb the
# simulation (virtual_identical) and must cost <= 10% host wall overhead.
python3 - "$tljson" <<'EOF'
import json, sys

expected = {
    "mode": {"bench", "mode", "reps", "collectives", "min_wall_s",
             "mean_wall_s", "timeline_events", "timeline_bytes",
             "metrics_instruments"},
    "summary": {"bench", "mode", "overhead_frac", "virtual_identical",
                "chrome_trace_bytes"},
}
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("FAIL: no records in BENCH_telemetry.json")
seen = set()
for i, line in enumerate(lines, 1):
    rec = json.loads(line)
    mode = rec.get("mode")
    kind = "summary" if mode == "summary" else "mode"
    if mode not in ("off", "on", "summary"):
        sys.exit(f"FAIL: line {i} unknown mode {mode!r}")
    if set(rec) != expected[kind]:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != "
                 f"{sorted(expected[kind])}")
    seen.add(mode)
    if mode == "off" and rec["timeline_events"] != 0:
        sys.exit(f"FAIL: disabled mode recorded "
                 f"{rec['timeline_events']} timeline events")
    if mode == "on" and rec["timeline_events"] == 0:
        sys.exit("FAIL: enabled mode recorded no timeline events")
    if mode == "summary":
        if rec["virtual_identical"] is not True:
            sys.exit("FAIL: telemetry perturbed the simulated latencies")
        if rec["overhead_frac"] > 0.10:
            sys.exit(f"FAIL: telemetry overhead "
                     f"{rec['overhead_frac']:.4f} > 0.10")
        if rec["chrome_trace_bytes"] <= 0:
            sys.exit("FAIL: enabled mode exported an empty Chrome trace")
if seen != {"off", "on", "summary"}:
    sys.exit(f"FAIL: modes {sorted(seen)} != ['off', 'on', 'summary']")
print(f"BENCH_telemetry.json schema + gates OK ({len(lines)} records)")
EOF

echo "== micro_parallel =="
(cd build/bench && ./micro_parallel)

pljson=build/bench/BENCH_parallel.json
[[ -s "$pljson" ]] || { echo "FAIL: $pljson missing or empty" >&2; exit 1; }

# Schema per section plus the scaling gate: on a machine with >= 4 cores, at
# least two of the sweep sections (sharded_reduce, seed_sweep) must reach
# >= 2x speedup at the max thread count. On smaller machines the records are
# still schema-checked but the speedup gate is skipped — a 1-core container
# cannot speed anything up. Every record also carries effective_cores (a
# fixed spin timed on N threads), which shows when `cores` overstates the
# parallelism the host actually delivers.
python3 - "$pljson" <<'EOF'
import json, sys

expected = {
    "dispatch": {"bench", "section", "threads", "cores", "effective_cores",
                 "ns_per_dispatch"},
    "sharded_reduce": {"bench", "section", "threads", "cores",
                       "effective_cores", "buffer_mib", "gbytes_per_sec",
                       "speedup_vs_1thread"},
    "seed_sweep": {"bench", "section", "threads", "cores", "effective_cores",
                   "seeds", "wall_s", "speedup_vs_1thread"},
}
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("FAIL: no records in BENCH_parallel.json")
seen = set()
cores = 1
best = {}  # sweep section -> speedup at the highest thread count
for i, line in enumerate(lines, 1):
    rec = json.loads(line)
    sec = rec.get("section")
    if sec not in expected:
        sys.exit(f"FAIL: line {i} unknown section {sec!r}")
    if set(rec) != expected[sec]:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != "
                 f"{sorted(expected[sec])}")
    seen.add(sec)
    cores = rec["cores"]
    if "speedup_vs_1thread" in rec:
        prev = best.get(sec, (0, 0.0))
        if rec["threads"] >= prev[0]:
            best[sec] = (rec["threads"], rec["speedup_vs_1thread"])
if seen != set(expected):
    sys.exit(f"FAIL: sections {sorted(seen)} != {sorted(expected)}")
if cores >= 4:
    scaled = [s for s, (_, sp) in best.items() if sp >= 2.0]
    if len(scaled) < 2:
        sys.exit(f"FAIL: only {scaled} reached >= 2x on {cores} cores "
                 f"(best: { {s: round(sp, 2) for s, (_, sp) in best.items()} })")
    print(f"BENCH_parallel.json schema + scaling gate OK "
          f"({len(lines)} records, >=2x on {sorted(scaled)})")
else:
    print(f"BENCH_parallel.json schema OK ({len(lines)} records; "
          f"speedup gate skipped on {cores} core(s))")
EOF

echo "== cluster_day =="
(cd build/bench && ./cluster_day)

cljson=build/bench/BENCH_cluster.json
[[ -s "$cljson" ]] || { echo "FAIL: $cljson missing or empty" >&2; exit 1; }

# Schema plus the PR's perf gates: at every scale the incremental control
# plane must produce assignments bitwise identical to the full re-solve, and
# at >= 1024 GPUs its p99 decision latency must be >= 3x better.
python3 - "$cljson" <<'EOF'
import json, sys

expected = {"bench", "scale", "gpus", "mode", "seed", "events", "jobs",
            "admitted", "queued_peak", "goodput", "mean_closure_items",
            "solves_per_event", "mean_batch_width",
            "p50_us", "p99_us", "p999_us", "mean_us", "speedup_p99_vs_full",
            "admit_us_p50", "admit_us_p99", "assignments_identical"}
lines = [l for l in open(sys.argv[1]) if l.strip()]
if not lines:
    sys.exit("FAIL: no records in BENCH_cluster.json")
modes = set()
for i, line in enumerate(lines, 1):
    rec = json.loads(line)
    if set(rec) != expected:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != {sorted(expected)}")
    mode = rec["mode"]
    if mode not in ("full", "incremental"):
        sys.exit(f"FAIL: line {i} unknown mode {mode!r}")
    modes.add(mode)
    if not (rec["p50_us"] <= rec["p99_us"] <= rec["p999_us"]):
        sys.exit(f"FAIL: {rec['scale']}/{mode} percentile ladder not "
                 f"monotone: {rec['p50_us']}/{rec['p99_us']}/{rec['p999_us']}")
    if mode == "incremental":
        if rec["assignments_identical"] is not True:
            sys.exit(f"FAIL: {rec['scale']} incremental assignment diverged "
                     "from the full re-solve")
        if rec["gpus"] >= 1024 and rec["speedup_p99_vs_full"] < 3.0:
            sys.exit(f"FAIL: {rec['scale']} p99 speedup "
                     f"{rec['speedup_p99_vs_full']:.2f} < 3x at "
                     f"{rec['gpus']} GPUs")
if modes != {"full", "incremental"}:
    sys.exit(f"FAIL: modes {sorted(modes)} != ['full', 'incremental']")
print(f"BENCH_cluster.json schema + gates OK ({len(lines)} records)")
EOF

# Chaos-under-churn robustness gates (cluster_day writes BENCH_chaos.json in
# the same run): the fault-steering control plane must retain goodput — the
# rehash-only baseline must lose >= 2x as much — with ZERO invariant
# violations across the seed sweep, and the 4k soak must hold memory and
# telemetry-registry growth flat across 16 virtual hours while every injected
# warm-state poison heals.
chjson=build/bench/BENCH_chaos.json
[[ -s "$chjson" ]] || { echo "FAIL: $chjson missing or empty" >&2; exit 1; }
python3 - "$chjson" <<'EOF'
import json, sys

expected = {
    "chaos_churn": {"bench", "mode", "gpus", "seeds", "events",
                    "retention_mean", "violations", "divergent_events",
                    "audits", "audit_mismatches", "fallbacks", "kills",
                    "rejected", "deferred", "duplicate_departures"},
    "chaos_summary": {"bench", "retention_reconfig", "retention_rehash",
                      "loss_ratio_rehash_vs_reconfig", "violations"},
    "chaos_soak": {"bench", "gpus", "quarters", "virtual_hours", "events",
                   "violations", "divergent_events", "audits",
                   "audit_mismatches", "fallbacks", "poisons_engaged",
                   "poisons_healed", "rss_q1_mib", "rss_end_mib",
                   "rss_growth_frac", "registry_size", "registry_growth"},
}
recs = {}
modes = set()
for i, line in enumerate((l for l in open(sys.argv[1]) if l.strip()), 1):
    rec = json.loads(line)
    bench = rec.get("bench")
    if bench not in expected:
        sys.exit(f"FAIL: line {i} unknown bench {bench!r}")
    if set(rec) != expected[bench]:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != "
                 f"{sorted(expected[bench])}")
    recs.setdefault(bench, []).append(rec)
    if bench == "chaos_churn":
        modes.add(rec["mode"])
        if rec["violations"] != 0:
            sys.exit(f"FAIL: {rec['mode']} sweep has "
                     f"{rec['violations']} invariant violations")
if modes != {"reconfig", "rehash"}:
    sys.exit(f"FAIL: sweep modes {sorted(modes)} != ['reconfig', 'rehash']")
summary = recs.get("chaos_summary", [None])[0]
if summary is None:
    sys.exit("FAIL: chaos_summary record missing")
if summary["violations"] != 0:
    sys.exit(f"FAIL: {summary['violations']} invariant violations in sweep")
if summary["loss_ratio_rehash_vs_reconfig"] < 2.0:
    sys.exit(f"FAIL: goodput-loss ratio "
             f"{summary['loss_ratio_rehash_vs_reconfig']:.2f} < 2x — "
             "fault steering is not earning its keep")
soak = recs.get("chaos_soak", [None])[0]
if soak is None:
    sys.exit("FAIL: chaos_soak record missing")
if soak["violations"] != 0:
    sys.exit(f"FAIL: soak has {soak['violations']} invariant violations")
if soak["poisons_engaged"] < 1:
    sys.exit("FAIL: soak never engaged a warm-state poison (vacuous)")
if soak["poisons_healed"] is not True:
    sys.exit("FAIL: a soak poison window never healed")
if soak["rss_growth_frac"] > 0.25:
    sys.exit(f"FAIL: soak RSS grew {soak['rss_growth_frac']:.1%} past "
             "quarter-1 steady state — control plane is leaking")
if soak["registry_size"] > 8:
    sys.exit(f"FAIL: soak registry holds {soak['registry_size']} "
             "instruments — must stay O(1), not O(tenants)")
if soak["registry_growth"] != 0:
    sys.exit(f"FAIL: soak registry grew by {soak['registry_growth']} "
             "instruments after quarter 1")
print(f"BENCH_chaos.json schema + gates OK "
      f"(loss ratio {summary['loss_ratio_rehash_vs_reconfig']:.1f}x, "
      f"soak rss {soak['rss_growth_frac']:+.1%}, "
      f"{soak['poisons_engaged']} poisons healed)")
EOF

echo "== ext_collectives (plan compiler) =="
(cd build/bench && ./ext_collectives)

# Compiler gates: every selectable AllReduce algorithm must have been
# measured, and the algorithm-choice pass must pick a non-ring algorithm for
# at least one payload size AND that pick must win in the measured
# simulation — the selection pass is vacuous otherwise.
cpjson=build/bench/BENCH_compiler.json
[[ -s "$cpjson" ]] || { echo "FAIL: $cpjson missing or empty" >&2; exit 1; }
python3 - "$cpjson" <<'EOF'
import json, sys

expected = {
    "algo": {"bench", "section", "kind", "algo", "bytes", "sim_us",
             "busbw_gbps"},
    "selection": {"bench", "section", "kind", "bytes", "selected",
                  "model_selected_us", "model_ring_us", "sim_selected_us",
                  "sim_ring_us"},
}
algo_rows, sel_rows = [], []
for i, line in enumerate((l for l in open(sys.argv[1]) if l.strip()), 1):
    rec = json.loads(line)
    sec = rec.get("section")
    if sec not in expected:
        sys.exit(f"FAIL: line {i} unknown section {sec!r}")
    if set(rec) != expected[sec]:
        sys.exit(f"FAIL: line {i} keys {sorted(rec)} != "
                 f"{sorted(expected[sec])}")
    (algo_rows if sec == "algo" else sel_rows).append(rec)
if not algo_rows or not sel_rows:
    sys.exit("FAIL: BENCH_compiler.json missing a section")
algos = {"ring", "tree", "dbtree", "pairwise"}
for size in {r["bytes"] for r in algo_rows}:
    seen = {r["algo"] for r in algo_rows if r["bytes"] == size}
    if seen != algos:
        sys.exit(f"FAIL: algorithms {sorted(seen)} measured at {size}B, "
                 f"want {sorted(algos)}")
for r in algo_rows + sel_rows:
    for key in r:
        if key.endswith("_us") or key == "sim_us":
            if not r[key] > 0:
                sys.exit(f"FAIL: non-positive time {key}={r[key]} at "
                         f"{r['bytes']}B")
for r in sel_rows:
    if r["model_selected_us"] > r["model_ring_us"]:
        sys.exit(f"FAIL: selection at {r['bytes']}B is not the model argmin")
wins = [r for r in sel_rows
        if r["selected"] != "ring" and r["sim_selected_us"] < r["sim_ring_us"]]
if not wins:
    sys.exit("FAIL: the compiler never selected a non-ring algorithm with a "
             "measured simulated-time win")
print(f"BENCH_compiler.json schema + gates OK ({len(algo_rows)} algo + "
      f"{len(sel_rows)} selection rows; non-ring wins at "
      f"{sorted(r['bytes'] for r in wins)})")
EOF

# Fail loudly if any BENCH_*.json this script gates went missing: a bench
# that silently stopped writing its file must fail the run, not skip its
# gates on the next one.
bench_manifest=(BENCH_flowsim.json BENCH_scale.json BENCH_datapath.json
                BENCH_recovery.json BENCH_telemetry.json BENCH_parallel.json
                BENCH_cluster.json BENCH_chaos.json BENCH_compiler.json)
for f in "${bench_manifest[@]}"; do
  [[ -s "build/bench/$f" ]] || {
    echo "FAIL: build/bench/$f missing or empty after the bench pass" >&2
    exit 1
  }
done
echo "BENCH manifest complete (${#bench_manifest[@]} files)"

echo "ALL CHECKS PASSED"
