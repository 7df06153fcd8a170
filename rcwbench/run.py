#!/usr/bin/env python3
"""Runs one rcwbench workload and prints its result.

    python3 rcwbench/run.py --workload explain|maintain|serve --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark binary from the
sources (Release, with the CMake file in this directory), makes the seed's
inputs once, runs the workload in its own process and prints that process's
notes, a note with the digest of the inputs, one "# name value unit" line
per metric, and last the one-line JSON result. Metric names and units come
from BENCHMARK.json: end_to_end untraced, per_layer traced. Build and
generator output go to standard error.

Everything it writes lands in the build directory ($CARGO_TARGET_DIR when
set, else .bench_build): the CMake tree, inputs/<generator>/seed-N/,
traces/ (span files of traced runs) and per-run working directories under
work/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("explain", "maintain", "serve")
# A run measures --seconds (at most 60) plus set-up and checks; anything
# near this is a hang.
RUN_TIMEOUT_S = 160


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the rcwbench binary; returns its path."""
    tree = os.path.join(build_dir(), "cmake")
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(tree, "build.ninja")) and not os.path.exists(
        os.path.join(tree, "Makefile")
    ):
        cmd = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", tree, "--target", "rcwbench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
        env=env,
    )
    return os.path.join(tree, "rcwbench")


def sha1_of(paths):
    h = hashlib.sha1()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def inputs(binary, seed):
    """The directory of the seed's inputs, generated on first use.

    Keyed by the generator's source (src/inputs.cc), not by the binary: a
    change to the library under test reuses the inputs made before it, so
    both sides of a comparison measure the same work. The digest note of
    each run shows whether two builds made the same inputs.
    """
    key = sha1_of([os.path.join(HERE, "src", "inputs.cc")])
    root = os.path.join(build_dir(), "inputs", key)
    final = os.path.join(root, "seed-%d" % seed)
    if os.path.isdir(final):
        return final
    os.makedirs(root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".seed-%d-" % seed, dir=root)
    try:
        subprocess.run(
            [binary, "gen", "--seed", str(seed), "--out", tmp],
            check=True,
            stdout=sys.stderr,
        )
        os.rename(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def result_line(values, trace):
    """The run's metrics, named and united as BENCHMARK.json lists them.

    Raises ValueError on a value BENCHMARK.json does not name or a missing
    end-to-end metric. A per-layer metric the run did not measure is a
    layer the workload never calls, and reads 0.
    """
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValueError("values not in BENCHMARK.json: %s" % ", ".join(unknown))
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values and not trace:
            raise ValueError("missing end-to-end metric %s" % m["name"])
        value = values.get(m["name"], 0)
        if m["unit"] == "count":
            value = int(round(value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    try:
        binary = build()
        data = inputs(binary, args.seed)
        digest = sha1_of(
            os.path.join(data, name) for name in sorted(os.listdir(data))
        )
        os.makedirs(os.path.join(build_dir(), "work"), exist_ok=True)
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print("rcwbench: %s" % e, file=sys.stderr)
        return 1

    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(build_dir(), "work"))
    spans = os.path.join(
        build_dir(), "traces", "%s-seed%d.jsonl" % (args.workload, args.seed)
    )
    cmd = [
        binary, "run",
        "--workload", args.workload,
        "--inputs", data,
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work", work,
        "--spans", spans,
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("rcwbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("rcwbench: run exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
        metrics = result_line(run["values"], args.trace)
    except (IndexError, KeyError, TypeError, ValueError) as e:
        sys.stderr.write(proc.stdout)
        print("rcwbench: bad result line: %s" % e, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("# inputs seed-%d sha1 %s" % (args.seed, digest))
    for name, m in metrics.items():
        print("# %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
