#!/usr/bin/env python3
"""Build and run the kylix_bench benchmark (see README.md).

One run of one workload, as the benchmark contract calls it (the last
stdout line is the result object):

    python3 kylix_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, both passes, with a results file and one Chrome trace per
workload (prints one `workload metric value unit` line per metric):

    python3 kylix_bench/run.py [--seed S] [--seconds S] [--out DIR]

Toy-size check of every workload against BENCHMARK.json's metric names:

    python3 kylix_bench/run.py --smoke

The benchmark binary is compiled from this checkout's sources into
.bench_build/kylix_bench (Release) on first use; later runs only re-make it.
Exit status is non-zero on a failed build, a failed or unverified op, or a
metric BENCHMARK.json names that a run did not emit.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "kylix_bench"
BINARY = BUILD / "kylix_bench"
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and make the binary; build output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "kylix_bench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("error: building kylix_bench failed")


def run_binary(args):
    """Run the binary to completion; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines, key=None):
    for line in reversed(lines):
        if line.startswith("{"):
            obj = json.loads(line)
            if key is None or key in obj:
                return obj
    return None


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def missing_metrics(result, names):
    return [n for n in names if n not in result.get("metrics", {})]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def one_run(argv):
    """One workload, one pass; the binary's output verbatim."""
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args(argv)
    build()
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds",
            a.seconds, "--trace", a.trace]
    if a.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{a.workload}.trace.json")]
    code, lines = run_binary(args)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


def suite(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="per pass (default: BENCHMARK.json run_seconds)")
    p.add_argument("--out", default=str(ROOT / ".bench_build" / "results"))
    a = p.parse_args(argv)
    spec = benchmark_spec()
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    out = Path(a.out)
    out.mkdir(parents=True, exist_ok=True)
    build()
    results = {"seed": a.seed, "seconds": seconds, "git_commit": git_commit(),
               "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        entry = results["workloads"].setdefault(name, {})
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", name, "--seed", str(a.seed), "--seconds",
                    str(seconds), "--trace", trace]
            if trace == "1":
                args += ["--trace-out", str(out / f"{name}.trace.json")]
            code, lines = run_binary(args)
            result = last_json(lines) or {}
            env = last_json(lines, "env")
            if env:
                entry["env"] = env["env"]
            missing = missing_metrics(result, [m["name"] for m in spec[group]])
            good = (code == 0 and result.get("correct") is True
                    and result.get("failed") == 0 and not missing)
            ok = ok and good
            entry[group] = result
            for metric, v in result.get("metrics", {}).items():
                print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
            if not good:
                print(f"error: {name} --trace {trace}: exit {code}, "
                      f"correct={result.get('correct')}, "
                      f"failed={result.get('failed')}, missing={missing}",
                      file=sys.stderr)
    with open(out / "results.json", "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"wrote {out / 'results.json'}")
    return 0 if ok else 1


def smoke():
    spec = benchmark_spec()
    build()
    code, lines = run_binary(["--smoke"])
    print("\n".join(line for line in lines if line.startswith("smoke")))
    ok = code == 0
    for w in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            rc, out = run_binary(["--workload", w["name"], "--seed", "1",
                                  "--seconds", "0", "--trace", trace,
                                  "--smoke"])
            missing = missing_metrics(last_json(out) or {},
                                      [m["name"] for m in spec[group]])
            if rc != 0 or missing:
                ok = False
                print(f"error: {w['name']} --trace {trace}: exit {rc}, "
                      f"missing {missing}", file=sys.stderr)
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    if "--smoke" in argv:
        return smoke()
    if "--workload" in argv:
        return one_run(argv)
    return suite(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
