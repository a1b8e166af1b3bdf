#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nwlb control loop.

Builds perfbench_cli (the nwlb libraries plus the benchmark binary,
optimized) from the sources of the checkout it runs in, runs one workload,
checks the binary's output against the metrics BENCHMARK.json declares,
prints every metric by name with its unit, and ends with one JSON result line:

    python3 perfbench/run.py --workload dp-realistic --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of the untraced control loop;
--trace 1 reports the per-layer metrics of a separate traced run.  Without
--workload, every workload runs in both modes and the combined record
(metrics, checks, provenance) is written to <build dir>/perfbench_report.json.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, relative
to the checkout root.  Exit status: 0 when every output check passed, 1 when
one failed (the result line says correct: false), 2 when the benchmark could
not build or run (no result line).  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not build or run: no result is reported."""


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(declaration, trace):
    """{name: unit} of the metrics a run in this trace mode must report."""
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in declaration[section]}


def check_metrics(metrics, declared):
    """Problems with perfbench_cli's metrics against the declared ones; [] = ok."""
    problems = []
    for name, metric in metrics.items():
        if name not in declared:
            problems.append("undeclared metric %s" % name)
        elif metric.get("unit") != declared[name]:
            problems.append("metric %s has unit %r, declared %r"
                            % (name, metric.get("unit"), declared[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s is not a finite number" % name)
    for name in declared:
        if name not in metrics:
            problems.append("declared metric %s missing" % name)
    return problems


def check_provenance(provenance):
    if not (provenance.get("optimized") and provenance.get("ndebug")):
        return ["perfbench_cli built without optimization and NDEBUG"]
    return []


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    """Configures (once) and builds perfbench_cli; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("nwlb sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "--target", "perfbench_cli", "-j", jobs])
    return os.path.join(out, "perfbench_cli")


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench_cli exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("perfbench_cli failed with exit status %d" % proc.returncode)
    return json.loads(lines[-1])


def run_one(binary, declaration, workload, seed, seconds, trace):
    """Runs and checks one invocation; returns the perfbench_cli record plus checks."""
    record = run_binary(binary, workload, seed, seconds, trace)
    problems = list(record.get("violations", []))
    problems += check_metrics(record["metrics"], declared_metrics(declaration, trace))
    problems += check_provenance(record["provenance"])
    record["violations"] = problems
    record["correct"] = bool(record["correct"]) and not problems
    return record


def print_record(record):
    print("workload %s  trace %d  intervals %d  failed %d  correct %s"
          % (record["workload"], record["trace"], record["attempted"],
             record["failed"], str(record["correct"]).lower()))
    for name, metric in record["metrics"].items():
        print("  %-28s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print("  details    " + json.dumps(record["details"], sort_keys=True))
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))
    for problem in record["violations"]:
        print("  CHECK FAILED: " + problem)


def write_report(name, payload):
    path = os.path.join(build_dir(), name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    return path


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, both modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declaration = load_declaration()
        seconds = args.seconds or declaration["run_seconds"]
        workloads = [w["name"] for w in declaration["workloads"]]
        if args.workload is not None and args.workload not in workloads:
            raise BenchError("unknown workload %s (declared: %s)"
                             % (args.workload, ", ".join(workloads)))
        binary = build()
        if args.workload is not None:
            record = run_one(binary, declaration, args.workload, args.seed, seconds,
                             args.trace)
            print_record(record)
            write_report("report-%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace), record)
            print(json.dumps({"correct": record["correct"],
                              "attempted": record["attempted"],
                              "failed": record["failed"],
                              "metrics": record["metrics"]}))
            return 0 if record["correct"] else 1

        records = []
        for workload in workloads:
            for trace in (0, 1):
                records.append(run_one(binary, declaration, workload, args.seed,
                                       seconds, trace))
                print_record(records[-1])
        path = write_report("perfbench_report.json", {"runs": records})
        print("report written to " + os.path.relpath(path, ROOT))
        correct = all(r["correct"] for r in records)
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in records),
                          "failed": sum(r["failed"] for r in records),
                          "metrics": {}}))
        return 0 if correct else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
