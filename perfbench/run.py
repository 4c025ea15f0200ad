#!/usr/bin/env python3
"""Builds and runs the lb2 benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (the lb2 library from src/
plus the benchmark program) under $CARGO_TARGET_DIR, else .bench_build/;
later runs only check the build is current. Each run clears every LB2_*
variable, points generated code and the C compiler's temporary files at a
private directory inside the build tree, and removes that directory when
it ends. The last line of stdout is the benchmark's JSON result.

--selftest checks the benchmark's own logic: exact quantiles and the oracle
check on known inputs, then a smoke run of every workload, traced and
untraced, whose metric names and units must match BENCHMARK.json exactly.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# One run may take up to 180 s; leave room to report a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the benchmark; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no lb2 source tree next to perfbench/; nothing to build")
        return None
    bdir = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "lb2_perfbench",
                  "-j", "4"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "lb2_perfbench")


def run(binary, args, capture=False):
    """Runs the benchmark with a pinned environment; returns (code, stdout)."""
    tmp_parent = os.path.join(build_root(), "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    jit_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LB2_")}
    env["LB2_JIT_DIR"] = jit_dir
    env["TMPDIR"] = jit_dir
    try:
        done = subprocess.run([binary] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
        left = os.listdir(jit_dir)
        if left:
            log("%d generated files were left behind: %s"
                % (len(left), ", ".join(sorted(left)[:5])))
        return done.returncode, done.stdout or ""
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1, ""
    finally:
        shutil.rmtree(jit_dir, ignore_errors=True)


def selftest(binary):
    code, _ = run(binary, ["--selftest"])
    if code != 0:
        return code
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        # A traced run repeats every workload, so one of them suffices.
        names = [w["name"] for w in spec["workloads"]]
        for name in names if trace == 0 else names[:1]:
            code, out = run(binary, ["--workload", name, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke"], capture=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append("%s trace %d: no JSON result" % (name, trace))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or got != want or not result["correct"]:
                failures.append("%s trace %d: exit %d, correct %s, missing %s, "
                                "unexpected %s" % (
                                    name, trace, code, result["correct"],
                                    sorted(set(want.items()) - set(got.items())),
                                    sorted(set(got.items()) - set(want.items()))))
            log("smoke %s trace %d: %d metrics" % (name, trace, len(got)))
    for f in failures:
        print("selftest FAILED: " + f)
    if not failures:
        print("selftest ok: every metric of BENCHMARK.json printed with its unit")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the private directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if binary is None:
        return 2
    if a.selftest:
        return selftest(binary)
    spans = os.path.join(build_root(), "spans-%s.json" % a.workload)
    code, _ = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", str(a.trace),
                           "--spans-out", spans])
    return code


if __name__ == "__main__":
    sys.exit(main())
