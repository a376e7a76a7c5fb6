#!/usr/bin/env python3
"""Build and run the Nimble benchmark.

    python3 perfbench/run.py --workload fed_analytics --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The first call builds the benchmark
executable with dune from the sources in the tree.  The executable's
standard output is forwarded; its last line is the result object
{"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload at a tenth of the data size, checks the
result schema, and asserts the determinism guard: every count-type
metric is identical across two runs of one seed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "nimble_bench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ["fed_analytics", "lens_serve", "lens_churn"]

# Metrics that come from the seeded virtual clock and the system's own
# counters: one seed must reproduce them exactly.  They are read from the
# detail line, which carries every metric, including those the result
# line leaves out.
COUNT_METRICS = {
    0: ["op_virtual_ms.mean", "op_virtual_ms.p50", "op_virtual_ms.p90",
        "op_virtual_ms.p99", "shipped_rows_per_op", "source_calls_per_op",
        "failed_frac", "incomplete_frac"],
    1: ["srv_plancache.hit_ratio", "srv_plancache.invalidations",
        "srv_plancache.fallbacks", "srv_admit.queue_wait_virtual_ms.p99",
        "srv_admit.rejected", "src.calls_per_op", "src.rows_per_op", "src.failed",
        "net_sim.virtual_ms_per_op", "frag_cache.hit_ratio", "frag_cache.evictions",
        "frag_cache.invalidations", "frag_cache.stale_serves", "sem_cache.hit_ratio",
        "sem_cache.local_row_ratio", "sem_cache.evictions", "sem_cache.bytes_used",
        "mat_cache.hit_ratio", "src_retry.retries", "src_retry.give_ups",
        "src_retry.breaker_fast_fails", "alg_exec.rows_per_op",
        "construct.trees_per_op", "idx.guide_probes", "idx.value_probes",
        "idx.walker_fallbacks", "idx.bytes", "failed_frac", "incomplete_frac"],
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("dune-project", os.path.join("lib", "core", "nimble.mli")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a Nimble source tree: %s is missing" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/nimble_bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if proc.returncode != 0:
        fail("build failed")


def commit():
    """The git revision, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_exe(args, timeout=170):
    """Run the executable; return (exit code, stdout lines)."""
    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout.splitlines()


def parse_detail(lines):
    for line in lines:
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])["metrics"]
    raise ValueError("no detail line")


def parse_result(lines):
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            raise ValueError("%s is not an integer" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, m in result["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            raise ValueError("metric %s is malformed: %s" % (name, m))
    return result


def smoke():
    """Small-size runs of every workload: schema plus determinism guard."""
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    small = ["--scale", "0.1", "--seconds", "1", "--setups", "2"]
    problems = []
    for wl in WORKLOADS:
        prefix = ["--prefix", "60" if wl == "fed_analytics" else "600"]
        for trace in (0, 1):
            runs = {}
            for seed, attempt in ((1, "a"), (1, "b"), (2, "a")):
                args = ["--workload", wl, "--seed", str(seed), "--trace", str(trace)]
                code, lines = run_exe(args + small + prefix)
                try:
                    if code != 0:
                        raise ValueError("exit code %d" % code)
                    result = parse_result(lines)
                    detail = parse_detail(lines)
                except ValueError as e:
                    problems.append("%s trace=%d seed=%d: %s" % (wl, trace, seed, e))
                    continue
                got = set(result["metrics"])
                if got != expected[trace]:
                    problems.append("%s trace=%d: metrics differ from BENCHMARK.json: %s"
                                    % (wl, trace, sorted(got ^ expected[trace])))
                if not result["correct"] or result["failed"]:
                    problems.append("%s trace=%d seed=%d: correct=%s failed=%d"
                                    % (wl, trace, seed, result["correct"], result["failed"]))
                runs[(seed, attempt)] = detail
            a, b = runs.get((1, "a")), runs.get((1, "b"))
            if a and b:
                for name in COUNT_METRICS[trace]:
                    if a[name]["value"] != b[name]["value"]:
                        problems.append("%s trace=%d: %s differs across runs of seed 1: %s vs %s"
                                        % (wl, trace, name, a[name]["value"], b[name]["value"]))
            print("smoke %-14s trace=%d: %d runs" % (wl, trace, len(runs)))
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print("smoke: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    build()
    if args.smoke:
        smoke()
        return
    if args.workload is None:
        fail("--workload is required")
    exe_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", commit()]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        exe_args += ["--spans-out",
                     os.path.join(OUT, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    code, lines = run_exe(exe_args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    try:
        parse_result(lines)
    except ValueError as e:
        fail("malformed result: %s" % e)


if __name__ == "__main__":
    main()
