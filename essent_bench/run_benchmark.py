#!/usr/bin/env python3
"""The essent end-to-end benchmark: FIRRTL text to simulated cycles.

Builds the benchmark binary from source into .bench_build/ (first run only),
then runs each workload in its own process, one after another, and checks
its outputs. Prints `workload metric value unit` lines and, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.

    python3 essent_bench/run_benchmark.py --workload boom-pchase --seed 3
    python3 essent_bench/run_benchmark.py --seed 1                # every workload
    python3 essent_bench/run_benchmark.py --trace 1               # per-layer metrics
    python3 essent_bench/run_benchmark.py --passes 2 --out BENCH_essent.json

With --trace 0 (the default) the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, and a span file
per workload is written to .bench_build/trace/. Exit code 0 means every
check passed (and, with --passes 2, every median gap stayed in its bound).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "essent_bench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "essent_bench", "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its JSON result or None."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", str(BUILD / "trace")]
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # scratch directories stay in the checkout
    t0 = time.monotonic()
    # Its own process group, so a timeout also stops the compilers it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"{workload}: essent_bench exited {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    for f in result["failures"]:
        log(f"{workload}: check failed: {f}")
    return result


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def run_pass(workloads, seed, seconds, trace, spec):
    """One pass over `workloads`; returns {workload: result}, or None on a hard failure."""
    results = {}
    for w in workloads:
        r = run_workload(w, seed, seconds, trace)
        if r is None:
            return None
        missing = [m["name"] for m in expected_metrics(spec, trace) if m["name"] not in r["metrics"]]
        if missing:
            log(f"{w}: metrics missing from the run: {missing}")
            return None
        for name, m in r["metrics"].items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
        print(f"{w} failed_frac {r['failed']}/{r['attempted']} (wall {r['wall_s']:.1f} s)")
        sys.stdout.flush()
        results[w] = r
    return results


def compare_passes(passes, spec, trace):
    """Prints both medians, their gap and the bound; True when every gap is in bound."""
    ok = True
    print("workload metric pass1 pass2 gap bound")
    for m in expected_metrics(spec, trace):
        bound = m.get("bound")
        for w in passes[0]:
            a = passes[0][w]["metrics"][m["name"]]["value"]
            b = passes[1][w]["metrics"][m["name"]]["value"]
            gap = abs(b - a) / abs(a) if a else 0.0
            flag = ""
            if bound is not None and gap > bound:
                ok = False
                flag = "  EXCEEDS BOUND"
            print(f"{w} {m['name']} {a:.6g} {b:.6g} {gap:.2%} "
                  f"{'-' if bound is None else f'{bound:.0%}'}{flag}")
    return ok


def meta(seed, seconds, trace):
    def out(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    compiler = out(["c++", "--version"]).splitlines()
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "compiler": compiler[0] if compiler else "",
            "seed": seed, "seconds": seconds, "trace": bool(trace),
            "git_commit": out(["git", "rev-parse", "HEAD"]) or "unknown"}


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"run_benchmark: cannot read BENCHMARK.json: {e}")
        return 1
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--passes", type=int, choices=[1, 2], default=1,
                    help="2: a second pass in reverse order, compared against the first")
    ap.add_argument("--out", help="write the combined JSON of every pass here")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run_benchmark: build failed: {e}")
        return 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [args.workload] if args.workload else names

    passes = []
    try:
        for p in range(args.passes):
            order = workloads if p == 0 else list(reversed(workloads))
            results = run_pass(order, args.seed, seconds, args.trace, spec)
            if results is None:
                return 1
            passes.append({w: results[w] for w in workloads})
    except subprocess.TimeoutExpired as e:
        log(f"run_benchmark: timed out: {e}")
        return 1

    attempted = sum(r["attempted"] for p in passes for r in p.values())
    failed = sum(r["failed"] for p in passes for r in p.values())
    gaps_ok = compare_passes(passes, spec, args.trace) if len(passes) == 2 else True

    if args.out:
        doc = {"bench": "essent", "meta": meta(args.seed, seconds, args.trace),
               "passes": [{w: {k: r[k] for k in ("attempted", "failed", "failures", "metrics", "info")}
                           for w, r in p.items()} for p in passes]}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    metric_names = [m["name"] for m in expected_metrics(spec, args.trace)]
    if len(workloads) == 1:
        metrics = {k: passes[0][workloads[0]]["metrics"][k] for k in metric_names}
    else:
        metrics = {f"{w}/{k}": r["metrics"][k] for w, r in passes[0].items() for k in metric_names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and gaps_ok else 1


if __name__ == "__main__":
    sys.exit(main())
