#!/usr/bin/env bash
# CI entry point: tier-1 correctness, the ThreadSanitizer concurrency lane,
# and the service-throughput benchmark JSON.
#
#   scripts/ci.sh            # tier-1 + tsan + faults + params + net
#                            #   + tracing + flavors + morsel + soak + bench
#   scripts/ci.sh tier1      # knob-table check + build + full ctest
#   scripts/ci.sh tsan       # Debug + -fsanitize=thread,
#                            #   `ctest -L 'service|obs'`
#   scripts/ci.sh faults     # TSan build, `ctest -L 'fuzz|fault'` with
#                            #   extended fuzz seeds (CI_FUZZ_SEEDS=64)
#   scripts/ci.sh params     # TSan build, `ctest -L 'fuzz|service'` with
#                            #   extended fuzz seeds: the parameterized-plan
#                            #   differential fuzzers (randomized literals
#                            #   rebound on one compiled artifact) plus the
#                            #   shape-cache suites, racing threads under TSan
#   scripts/ci.sh net        # TSan build, `ctest -L net`: the epoll loop,
#                            #   worker handoff, and drain under TSan
#   scripts/ci.sh tracing    # TSan build, `ctest -L 'obs|trace|net'`: the
#                            #   flight recorder's lock-free drop path and
#                            #   per-worker rings racing 8 writers against
#                            #   a snapshotting reader, plus every consumer
#                            #   of the timestamped span model
#   scripts/ci.sh flavors    # TSan build, `ctest -L 'flavor|fuzz'` with
#                            #   extended fuzz seeds: the codegen-flavor
#                            #   differential matrix ({data-centric,
#                            #   vectorized, blended} x {1,4} threads vs two
#                            #   oracles) plus the explorer/profiling suites
#   scripts/ci.sh morsel     # TSan build, `ctest -L 'morsel|fuzz|tpch'`
#                            #   with extended fuzz seeds: the switch-point
#                            #   sweep (forced interpreted->compiled switch
#                            #   at every morsel boundary vs two oracles),
#                            #   the claim-bitmap exactly-once chaos matrix,
#                            #   the work-stealing stress, the DAG-shape
#                            #   fuzzers, and all 22 TPC-H plans through a
#                            #   default service with forced handoffs (the
#                            #   scalar-subquery plans Q11/Q22 included),
#                            #   all under TSan — two engines share one
#                            #   atomic dispenser, so a claim race is
#                            #   exactly what TSan is for
#   scripts/ci.sh soak       # ~10s chaos soak: lb2_served armed with
#                            #   LB2_FAULTS=chaos:<seed> + a tight admission
#                            #   gate vs bench_net_load (8 procs x 4 conns,
#                            #   pipelined); asserts zero protocol
#                            #   violations, mid-load admin scrapes of both
#                            #   /metrics and /traces (>= 1 kept slow/error
#                            #   trace whose decode->exec span tree shows
#                            #   true overlap), a clean SIGTERM drain, and
#                            #   that the drain flushed the kept traces to
#                            #   --trace-out; the switch path runs live
#                            #   (LB2_MIDQUERY_SWITCH=1, small morsels) and
#                            #   lb2_midquery_switches_total >= 1 is
#                            #   asserted post-load, and the post-drain
#                            #   stats line must read in-flight=0
#   scripts/ci.sh bench      # same-entry scaling + cold-process disk win
#                            #   -> BENCH_service.json, plus the obs
#                            #   overhead gate (metrics on vs off, faults
#                            #   compiled in but disarmed, and the flight
#                            #   recorder armed; the median ratio over
#                            #   5 interleaved rounds), plus the
#                            #   codegen-flavor gate -> BENCH_flavors.json
#                            #   (vec >= 1.3x dc on the scan shape; blended
#                            #   never worse than the better pure flavor;
#                            #   the explorer's pick within noise of the
#                            #   best measured candidate), plus the morsel
#                            #   gate -> BENCH_morsel.json (cold request
#                            #   with the mid-query switch >= 1.2x the
#                            #   wait-for-cc cold path; work stealing
#                            #   >= 1.5x static split when the machine has
#                            #   >= 4 hardware threads)
#
# The tsan lane exists because the service runs compiled queries with NO
# per-entry lock: generated entries are reentrant (per-call lb2_exec_ctx),
# and only TSan proves that claim on every change. It runs the `service`
# and `obs` labels (service, persistence, drift, and metrics tests), which
# hammer one cached entry — and one shared artifact directory, and the
# lock-free metric registry — from many threads.
#
# tier1 first checks that README's "Environment knobs" table and the code
# agree: the set of LB2_* names passed as the first argument of getenv,
# EnvNumber or EnvFlag anywhere in src/, examples/ and bench/ must equal
# the set of names in the table's rows. A knob added without a row, or a
# row left behind by a deleted knob, fails the lane before anything
# builds. (String literals that are not read from the environment, such
# as the staging sentinel "LB2_UNDEF", are not variables and stay out.)
#
# Both test lanes export LB2_CACHE_DIR to a throwaway tmpdir so the whole
# suite exercises the persistent artifact tier: every test process shares
# one directory, concurrently, exactly like server processes sharing a
# cache volume. The tests are written to pass with the tier on or off.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

with_cache_dir() {
  local dir
  dir="$(mktemp -d)"
  # set -e aborts the lane on failure; the tmpdir only outlives a failed
  # run, where it is useful for debugging anyway.
  LB2_CACHE_DIR="$dir" "$@"
  rm -rf "$dir"
}

knob_table() {
  python3 - <<'EOF'
import pathlib
import re

call = re.compile(
    r'(?:getenv|EnvNumber(?:<[^>]*>)?|EnvFlag)\(\s*"(LB2_[A-Z0-9_]+)"')
read = set()
for top in ("src", "examples", "bench"):
    for path in sorted(pathlib.Path(top).rglob("*")):
        if path.suffix in (".h", ".cc", ".cpp"):
            read.update(call.findall(path.read_text()))

section = pathlib.Path("README.md").read_text().split(
    "### Environment knobs\n", 1)[1].split("\n#", 1)[0]
rows = set()
for line in section.splitlines():
    if line.startswith("| `LB2_"):
        rows.update(re.findall(r"LB2_[A-Z0-9_]+", line.split("|")[1]))

missing = sorted(read - rows)
stale = sorted(rows - read)
for name in missing:
    print(f"knob-table: {name} is read by the code but has no README row")
for name in stale:
    print(f"knob-table: {name} has a README row but nothing reads it")
if missing or stale:
    raise SystemExit("README's Environment knobs table is out of date")
print(f"knob-table: README lists exactly the {len(read)} LB2_* variables "
      "the code reads")
EOF
}

tier1() {
  knob_table
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)"
  with_cache_dir ctest --test-dir build --output-on-failure -j"$(nproc)"
}

tsan() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DLB2_SANITIZE=thread \
    >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  with_cache_dir \
    ctest --test-dir build-tsan -L 'service|obs' --output-on-failure \
    -j"$(nproc)"
}

# Fault/degrade lane: the differential fuzzers (extended seed budget) and
# the fault-injection matrix, under ThreadSanitizer — injected failures
# race against 8 serving threads, which is exactly where a degrade-path
# data race would hide. Shares the tsan build tree.
faults() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DLB2_SANITIZE=thread \
    >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  with_cache_dir env CI_FUZZ_SEEDS="${CI_FUZZ_SEEDS:-64}" \
    ctest --test-dir build-tsan -L 'fuzz|fault' --output-on-failure \
    -j"$(nproc)"
}

# Parameterized-plan lane: the ParamFuzz differential fuzzers (randomized
# literals bound at Run() on one compiled artifact, checked against the
# interpreter and the Volcano oracle) with an elevated seed budget, plus
# every `service`-labelled suite — params_test's one-slot/disk-restart/edge
# -case proofs and the existing cache/concurrency tests — under
# ThreadSanitizer, because literal binding happens on the lock-free warm
# path that many threads share. Shares the tsan build tree.
params() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DLB2_SANITIZE=thread \
    >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  with_cache_dir env CI_FUZZ_SEEDS="${CI_FUZZ_SEEDS:-64}" \
    ctest --test-dir build-tsan -L 'fuzz|service' --output-on-failure \
    -j"$(nproc)"
}

# Network lane: the codec fuzzers plus the loopback integration tests (the
# epoll loop's worker handoff, backpressure stalls, BUSY shedding, and the
# drain state machine) under ThreadSanitizer. The server's claim is that
# all connection state is loop-private and everything cross-thread moves
# through two guarded queues — TSan on the `net` label is what proves it.
net() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DLB2_SANITIZE=thread \
    >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  with_cache_dir \
    ctest --test-dir build-tsan -L net --output-on-failure -j"$(nproc)"
}

# Tracing lane: the flight recorder and every span consumer under TSan.
# The recorder's claim is that the drop path is one relaxed atomic and the
# per-worker rings only lock on a keep — trace_test's 8-writers-vs-reader
# stress plus the net suite's mid-flight /traces scrapes are where a
# snapshot/record race would surface. Shares the tsan build tree.
tracing() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DLB2_SANITIZE=thread \
    >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  with_cache_dir \
    ctest --test-dir build-tsan -L 'obs|trace|net' --output-on-failure \
    -j"$(nproc)"
}

# Morsel lane: the switch-point differential harness under TSan. The
# mid-query switch's claim is that two engine builds of one fingerprint can
# consume the SAME atomic dispenser — the interpreter claims a prefix of
# morsels, the fresh compiled artifact claims the suffix, and every morsel
# is claimed exactly once. morsel_test forces the switch at every boundary
# (LB2_SWITCH_AT sweep) against the Volcano and pure-interpreted oracles,
# chaos-schedules the handoff point across 64 seeds, and stresses work
# stealing on skewed morsel costs; the fuzz label rides along because the
# property suite exercises the same engines the dispenser interleaves
# (including DAG plans that share a subtree between the spine and a build
# side or scalar subquery), and the tpch label runs every TPC-H plan
# through a default service, forcing handoffs wherever a spine exists.
morsel() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DLB2_SANITIZE=thread \
    >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  with_cache_dir env CI_FUZZ_SEEDS="${CI_FUZZ_SEEDS:-64}" \
    ctest --test-dir build-tsan -L 'morsel|fuzz|tpch' --output-on-failure \
    -j"$(nproc)"
}

# Chaos soak: a real lb2_served process armed with seeded-random fault
# injection over every registered point, a tight admission gate so BUSY
# shedding actually happens, and the multi-process load harness hammering
# it with pipelined connections. The harness exits non-zero on any protocol
# violation (dropped connection, wrong/missing/duplicate response, ERROR on
# valid SQL) and ends with a sequential verify pass, so `wait` + set -e is
# the whole assertion. Mid-load, the admin port must still answer a
# Prometheus scrape; at the end, SIGTERM must drain cleanly to exit 0.
soak() {
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target lb2_served bench_net_load
  local dir port_file seed port admin_port server_pid load_pid
  dir="$(mktemp -d)"
  mkdir -p "$dir/cache"
  port_file="$dir/ports"
  seed="${CI_CHAOS_SEED:-20260809}"
  # LB2_SLOW_MS=5 guarantees slow keeps (cold compiles take far longer);
  # chaos + the tight gate supply error/busy/fault keeps on top.
  # LB2_MIDQUERY_SWITCH + small morsels put the live switch path in the
  # storm: cold eligible shapes start interpreted off the shared dispenser,
  # and chaos's midquery_switch point forces some of them to wait for the
  # background build and finish compiled.
  LB2_FAULTS="chaos:$seed" LB2_MAX_INFLIGHT=8 LB2_QUEUE_TIMEOUT_MS=5 \
    LB2_SLOW_MS=5 LB2_CACHE_DIR="$dir/cache" \
    LB2_MIDQUERY_SWITCH=1 LB2_MORSEL_ROWS=1024 \
    ./build/examples/lb2_served --port=0 --admin-port=0 --sf=0.005 \
    --threads=16 --port-file="$port_file" --trace-out="$dir/traces.json" \
    >"$dir/server.log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 300); do
    [ -s "$port_file" ] && break
    sleep 0.1
  done
  if ! [ -s "$port_file" ]; then
    echo "lb2_served never wrote its port file:" >&2
    cat "$dir/server.log" >&2
    exit 1
  fi
  read -r port admin_port <"$port_file"
  ./build/bench/bench_net_load --port="$port" --procs=8 --conns=4 \
    --pipeline=8 --seconds=8 &
  load_pid=$!
  sleep 2
  # The admin plane must answer while the data plane is saturated.
  python3 - "$admin_port" <<'EOF'
import sys
import urllib.request
port = sys.argv[1]
body = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
assert "lb2_net_accepted_total" in body, body[:400]
assert "lb2_requests_total" in body, body[:400]
print("admin /metrics answered mid-load")
EOF
  # The flight recorder must already hold kept traces mid-storm, and at
  # least one slow/error/busy/fault keep must carry a decode->exec span
  # tree with true timestamps: the queue child starts at the same instant
  # as its request root (both begin at decode) — overlap only real
  # begin/end pairs can express.
  python3 - "$admin_port" <<'EOF'
import json
import sys
import urllib.request
port = sys.argv[1]
traces = json.loads(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/traces", timeout=10).read().decode())
kept = [t for t in traces if t["keep"] in
        ("slow", "error", "busy", "fault", "breaker", "switch")]
assert kept, f"no slow/error keeps among {len(traces)} traces"
deep = 0
for t in kept:
    spans = {s["name"]: s for s in t["spans"]}
    if "request" not in spans or "queue" not in spans:
        continue
    req, q = spans["request"], spans["queue"]
    assert req["parent"] == -1 and q["parent"] == 0, t
    # True overlap: the queue span runs inside the still-open request span.
    assert q["begin_us"] >= req["begin_us"], t
    assert q["begin_us"] + q["dur_us"] <= req["begin_us"] + req["dur_us"] + 1, t
    deep += 1
assert deep, f"no kept trace carried a decode->exec span tree: {kept[:2]}"
print(f"admin /traces answered mid-load: {len(traces)} kept "
      f"({len(kept)} slow/error/busy/fault), {deep} with full span trees")
EOF
  wait "$load_pid"       # non-zero on any protocol violation
  # After eight seconds of load over agg-rooted shapes with 1024-row
  # morsels, at least one request must have started interpreted and
  # finished compiled (chaos stops the interp poll ~1/8 per boundary and
  # the load mix re-colds shapes through cache churn).
  python3 - "$admin_port" <<'EOF'
import sys
import urllib.request
port = sys.argv[1]
body = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
switches = 0
for line in body.splitlines():
    if line.startswith("lb2_midquery_switches_total"):
        switches = int(float(line.split()[-1]))
assert switches >= 1, \
    f"no mid-query switches observed under soak:\n{body[:800]}"
print(f"soak observed {switches} mid-query interpreted->compiled switches")
EOF
  kill -TERM "$server_pid"
  wait "$server_pid"     # non-zero if the drain was not clean
  grep -q "drained." "$dir/server.log"
  # Every flight was published, repairs that chaos made fail included: the
  # post-drain stats line reads in-flight=0 (the field itself, not
  # exec-in-flight=).
  if ! grep -Eq '^service: .* in-flight=0 ' "$dir/server.log"; then
    echo "flights still open after the drain:" >&2
    grep '^service: ' "$dir/server.log" >&2
    exit 1
  fi
  # The SIGTERM drain must have flushed the kept traces to --trace-out.
  [ -s "$dir/traces.json" ]
  grep -q '"traceEvents"' "$dir/traces.json"
  echo "chaos soak passed (seed $seed): zero violations, kept traces" \
    "scraped mid-load and flushed on drain"
  rm -rf "$dir"
}

# Codegen-flavor lane: the differential flavor matrix under TSan. The
# blended flavor's claim is that the vectorized prefix hands batches to the
# SAME data-centric tail the pure flavor uses — so a race introduced by the
# batch path (shared selection buffers, context reuse) would surface here,
# where the fuzz matrix runs every flavor at 4 threads against the
# interpreter and Volcano oracles. The explorer tests also run: the sweep
# mutates the winner registry while serving threads read it.
flavors() {
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DLB2_SANITIZE=thread \
    >/dev/null
  cmake --build build-tsan -j"$(nproc)"
  with_cache_dir env CI_FUZZ_SEEDS="${CI_FUZZ_SEEDS:-64}" \
    ctest --test-dir build-tsan -L 'flavor|fuzz' --output-on-failure \
    -j"$(nproc)"
}

bench() {
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target bench_service_throughput
  # Small scale factor keeps CI fast; the scaling *ratio* is what matters.
  # BM_ColdProcessWarmDisk compares a cold process's first request with and
  # without a warm artifact dir (disk=1 must show cc_invocations == 0).
  LB2_SF="${LB2_SF:-0.01}" ./build/bench/bench_service_throughput \
    --benchmark_filter='BM_WarmSameEntry|BM_ColdProcessWarmDisk' \
    --benchmark_min_time=0.05 \
    --benchmark_out=BENCH_service.json \
    --benchmark_out_format=json
  echo "wrote BENCH_service.json (same-entry scaling + cold-process disk win)"
  # Parameterized-plan economics: a same-shape/different-literal family
  # round-robined warm, params on vs off. The JSON's counters carry the
  # claim — params=1 must show cc_invocations == 1 and cache_entries == 1
  # for the whole family.
  LB2_SF="${LB2_SF:-0.01}" ./build/bench/bench_service_throughput \
    --benchmark_filter='BM_ParamFamilyWarm' \
    --benchmark_min_time=0.05 \
    --benchmark_out=BENCH_params.json \
    --benchmark_out_format=json
  python3 - <<'EOF'
import json
with open("BENCH_params.json") as f:
    data = json.load(f)
for b in data.get("benchmarks", []):
    if "params:1" in b["name"]:
        assert b["cc_invocations"] == 1, b
        assert b["cache_entries"] == 1, b
        print(f"{b['name']}: one artifact served the family "
              f"(cc_invocations=1, param_hits={b['param_hits']:.0f})")
EOF
  echo "wrote BENCH_params.json (per-shape cache-hit economics)"
  bench_flavors
  bench_morsel
  obs_overhead
}

# Morsel perf gate: a cold request with the mid-query switch on (interp
# serves off the shared dispenser while the JIT builds) must beat the
# wait-for-cc cold path by >= 1.2x end to end; the same 8-thread artifact
# run off small morsels must beat one morsel per thread (the static-split
# baseline) by >= 1.5x on skewed morsel costs. The stealing gate is vacuous
# below 4 hardware threads — parallel speedups don't exist on a 1-core
# runner — and the bench JSON carries hardware_concurrency so the gate can
# tell.
bench_morsel() {
  cmake --build build -j"$(nproc)" --target bench_morsel
  LB2_SF="${LB2_SF:-0.01}" ./build/bench/bench_morsel > BENCH_morsel.json
  python3 - <<'EOF'
import json

with open("BENCH_morsel.json") as f:
    b = json.load(f)

failed = False
ratio = b["cold_ratio"]
status = "ok" if ratio >= 1.2 else "FAIL"
failed |= ratio < 1.2
print(f"morsel-gate cold switch-on/off = {ratio:.2f}x (need >= 1.2) "
      f"[{status}] (interp_win={b['cold_interp_win']}, "
      f"switched={b['cold_switched']})")

hw = b["hardware_concurrency"]
ratio = b["steal_ratio"]
if hw >= 4:
    status = "ok" if ratio >= 1.5 else "FAIL"
    failed |= ratio < 1.5
    print(f"morsel-gate steal/static = {ratio:.2f}x (need >= 1.5, hw={hw}) "
          f"[{status}]")
else:
    print(f"morsel-gate steal/static = {ratio:.2f}x — vacuous pass, "
          f"only {hw} hardware thread(s); correctness still checked")

if failed:
    raise SystemExit("morsel perf gate failed")
print("morsel gate passed (switch-on cold wins; stealing beats static "
      "split where parallelism exists)")
EOF
  echo "wrote BENCH_morsel.json (cold-start switch win + work stealing)"
}

# Codegen-flavor perf gate: warm single-thread throughput per flavor on a
# scan-heavy (Q6-style) and a join-heavy shape, plus the explorer's pick.
# Medians are overkill here — the asserted ratios (2x+ observed for vec on
# the scan shape against a 1.3x gate) leave plenty of noise headroom, and
# the explorer comparison uses best-of-N raw Run() times on both sides.
bench_flavors() {
  cmake --build build -j"$(nproc)" --target bench_flavors
  LB2_SF="${LB2_SF:-0.01}" ./build/bench/bench_flavors \
    --benchmark_min_time=0.1 \
    --benchmark_out=BENCH_flavors.json \
    --benchmark_out_format=json
  python3 - <<'EOF'
import json

with open("BENCH_flavors.json") as f:
    data = json.load(f)

warm = {}    # (shape, flavor) -> items/s
explore = {}  # shape -> counters
for b in data.get("benchmarks", []):
    name = b["name"]
    if name.startswith("BM_FlavorWarm/"):
        shape = int(name.split("shape:")[1].split("/")[0])
        flavor = int(name.split("flavor:")[1].split("/")[0])
        warm[(shape, flavor)] = b["items_per_second"]
    elif name.startswith("BM_ExplorerPick/"):
        shape = int(name.split("shape:")[1].split("/")[0])
        explore[shape] = b

failed = False
# Gate 1: vectorized >= 1.3x data-centric on the scan-heavy shape.
ratio = warm[(0, 1)] / warm[(0, 0)]
status = "ok" if ratio >= 1.3 else "FAIL"
failed |= ratio < 1.3
print(f"flavor-gate scan vec/dc = {ratio:.2f}x (need >= 1.3) [{status}]")

# Gate 2: the best blend is never worse than the better pure flavor
# (5% tolerance: at these sizes that is measurement noise, not a regression).
for shape, label in ((0, "scan"), (1, "join")):
    pure = max(warm[(shape, 0)], warm[(shape, 1)])
    blend = max(warm[(shape, 2)], warm[(shape, 3)])
    ratio = blend / pure
    status = "ok" if ratio >= 0.95 else "FAIL"
    failed |= ratio < 0.95
    print(f"flavor-gate {label} blend/pure = {ratio:.2f}x "
          f"(need >= 0.95) [{status}]")

# Gate 3: the explorer recorded a winner and its pick is within noise of
# the best pure flavor, measured through the same raw Run() path (15%
# tolerance: the sweep and the check are separate timing passes).
for shape, label in ((0, "scan"), (1, "join")):
    b = explore[shape]
    ok = b.get("have_winner") == 1 and \
        b["picked_ms"] <= b["best_pure_ms"] * 1.15
    status = "ok" if ok else "FAIL"
    failed |= not ok
    print(f"flavor-gate {label} explorer pick flavor={b['picked_flavor']:.0f}"
          f" blend={b['picked_blend']:.0f}: picked={b['picked_ms']:.3f} ms"
          f" best-pure={b['best_pure_ms']:.3f} ms [{status}]")

if failed:
    raise SystemExit("codegen-flavor perf gate failed")
print("flavor gate passed (vec >= 1.3x dc, blend >= pure, explorer picks "
      "the measured winner)")
EOF
  echo "wrote BENCH_flavors.json (per-flavor warm throughput + explorer pick)"
}

# Observability must stay off the warm hot path: run the same-entry warm
# benchmark with metrics recording off and on, and fail if the instrumented
# build loses more than 5% throughput on any matching benchmark.
#
# A third mode arms a fault plan that can never fire on the warm path
# (cc_exec has no warm-path site; every=1000000 keeps it inert even during
# warmup) and holds it to the same 5% gate against metrics-off: fault
# injection is compiled in always, so its disarmed/armed-but-idle cost must
# be indistinguishable from zero.
#
# A fourth mode arms the flight recorder (LB2_BENCH_RECORDER=1): every warm
# request assembles a RecordedTrace and runs the tail-sampling keep
# decision exactly as the socketed server's workers do. Warm requests are
# fast, so almost everything takes the drop path — one relaxed atomic —
# which is precisely the cost the gate must bound.
#
# On a shared host one back-to-back run per mode cannot resolve 5%: single
# on/off ratios spread over 0.7-1.7 between identical builds. So the four
# modes run in 5 interleaved rounds, the mode order rotating by one each
# round so no mode always runs first or last, each benchmark for 0.5 s.
# Every round's per-mode ratio to that round's metrics-off rate is
# printed, and the gate reads the median of those ratios across rounds.
obs_overhead() {
  local rounds=5
  local modes=(off on faults recorder)
  local r k mode
  rm -f BENCH_obs_*.json
  for ((r = 0; r < rounds; r++)); do
    for ((k = 0; k < ${#modes[@]}; k++)); do
      mode="${modes[$(((r + k) % ${#modes[@]}))]}"
      local env=(LB2_SF="${LB2_SF:-0.01}" LB2_METRICS=0)
      case "$mode" in
        on) env+=(LB2_METRICS=1) ;;
        faults) env+=(LB2_FAULTS='cc_exec:fail:every=1000000') ;;
        recorder) env+=(LB2_METRICS=1 LB2_BENCH_RECORDER=1) ;;
      esac
      env "${env[@]}" ./build/bench/bench_service_throughput \
        --benchmark_filter='BM_WarmSameEntry' \
        --benchmark_min_time=0.5 \
        --benchmark_out="BENCH_obs_${mode}_${r}.json" \
        --benchmark_out_format=json >/dev/null
    done
  done
  python3 - "$rounds" <<'EOF'
import json
import statistics
import sys

def rates(mode, r):
    with open(f"BENCH_obs_{mode}_{r}.json") as f:
        data = json.load(f)
    return {b["name"]: b["items_per_second"]
            for b in data.get("benchmarks", []) if b.get("items_per_second")}

rounds = int(sys.argv[1])
labels = (("on", "on"), ("faults", "faults-armed"),
          ("recorder", "recorder-armed"))
ratios = {}  # (label, benchmark) -> per-round ratios to metrics-off
for r in range(rounds):
    off = rates("off", r)
    for mode, label in labels:
        other = rates(mode, r)
        for name, off_rate in sorted(off.items()):
            rate = other.get(name)
            if rate is None:
                continue
            ratio = rate / off_rate
            ratios.setdefault((label, name), []).append(ratio)
            print(f"obs-overhead round {r} {name}: off={off_rate:.0f}/s "
                  f"{label}={rate:.0f}/s ratio={ratio:.3f}")
failed = False
for (label, name), rs in sorted(ratios.items()):
    med = statistics.median(rs)
    status = "ok" if med >= 0.95 else "FAIL"
    failed |= med < 0.95
    print(f"obs-overhead {name} {label}: median ratio over {len(rs)} "
          f"rounds = {med:.3f} (rounds {min(rs):.3f}-{max(rs):.3f}) "
          f"[{status}]")
if failed:
    raise SystemExit("warm throughput regressed more than 5% "
                     "(metrics, fault sites, or the flight recorder)")
print("obs-overhead gate passed (metrics + armed-idle faults + armed "
      "recorder each cost < 5% on the warm path)")
EOF
}

case "$stage" in
  tier1) tier1 ;;
  tsan) tsan ;;
  faults) faults ;;
  params) params ;;
  net) net ;;
  tracing) tracing ;;
  flavors) flavors ;;
  morsel) morsel ;;
  soak) soak ;;
  bench) bench ;;
  all)
    tier1 && tsan && faults && params && net && tracing && flavors \
      && morsel && soak && bench
    ;;
  *)
    echo "usage: scripts/ci.sh [tier1|tsan|faults|params|net|tracing|flavors|morsel|soak|bench|all]" >&2
    exit 2
    ;;
esac
