#!/usr/bin/env python3
"""Fixed-work synthesis benchmark of the ftdes optimizer.

Builds the `synthbench` package (release, offline) and runs each
requested workload as a closed loop in a child process of its own:

    python3 synthbench/run.py --workload paper_4n --seed 1 --seconds 24 --trace 0
    python3 synthbench/run.py --workload all --seed 1          # one row per workload

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones (BENCHMARK.json names both sets; README.md defines them). The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. It exits non-zero without a
result when the build or a workload process fails; a workload process
refuses to run while an engine knob (`FTDES_THREADS`,
`FTDES_NO_SPLICE`, ...) is set.

Exact per-instance counts are kept under the build directory and
compared with the previous run of the same workload and seed: a
difference on the same build is nondeterminism and fails the run; a
difference after a rebuild is reported as a trajectory change.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper_4n", "paper_12n", "comm_stress", "cruise_deadline"]
# Every workload process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
# Workload-specific figures printed in the row table next to the
# gated end-to-end metrics.
ROW_EXTRAS = [
    ("repair_s", "s"),
    ("repair_length_ms", "ms"),
    ("time_to_schedulable_s", "s"),
    ("time_to_schedulable_tail_s", "s"),
    ("failed_share", "ratio"),
    ("rounds", "count"),
    ("host_factor", "x"),
]


def fail(message):
    print(f"synthbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    # Cargo's progress goes to stderr; stdout carries only results.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    exe = target / "release" / "synthbench"
    if done.returncode != 0 or not exe.is_file():
        fail("build failed")
    return exe, target


def run_child(exe, workload, seed, seconds, trace):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: unreadable result line")


def check_metrics(record, expected):
    """The child must report exactly the metrics BENCHMARK.json names,
    each a finite number, with the unit BENCHMARK.json gives."""
    got = record["metrics"]
    if set(got) != {m["name"] for m in expected}:
        fail(f"{record['workload']}: metrics {sorted(got)} do not match BENCHMARK.json")
    for m in expected:
        value = got[m["name"]]["value"]
        if value is None or not math.isfinite(value):
            fail(f"{record['workload']}: {m['name']} is not a finite number")
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{record['workload']}: {m['name']} has unit {got[m['name']]['unit']}")


def counts_guard(record, exe, target):
    """Compares the exact counts with the previous run of this workload
    and seed. Returns False on nondeterminism (same build, different
    counts)."""
    store = target / "synthbench-counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{record['workload']}-{record['seed']}.json"
    build_id = hashlib.sha256(exe.read_bytes()).hexdigest()
    current = {"build": build_id, "counts": record["counts"]}
    ok = True
    if path.is_file():
        previous = json.loads(path.read_text())
        same_counts = previous["counts"] == current["counts"]
        if previous["build"] == build_id:
            verdict = "repeat the previous run" if same_counts else \
                "DIFFER from the previous run of this build: nondeterminism"
            ok = same_counts
        else:
            verdict = "repeat the previous build's" if same_counts else \
                "changed since the previous build: a trajectory change, not noise"
    else:
        verdict = "recorded (no previous run of this workload and seed)"
    print(f"  exact counts ({len(current['counts'])} records): {verdict}")
    path.write_text(json.dumps(current))
    return ok


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def print_rows(records, spec):
    columns = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + ROW_EXTRAS
    header = ["workload"] + [f"{n} [{u}]" for n, u in columns]
    rows = []
    for r in records:
        values = {**r["metrics"], **r["extra"]}
        rows.append([r["workload"]] + [fmt(values.get(n, {}).get("value")) for n, _ in columns])
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def print_layers(records):
    for r in records:
        print(f"{r['workload']} per-layer metrics:")
        for name, m in {**r["metrics"], **r["extra"]}.items():
            print(f"  {name:30s} {fmt(m['value']):>12s} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        fail(f"unknown workload {args.workload!r}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe, target = build()
    records = []
    correct = True
    for w in workloads:
        record = run_child(exe, w, args.seed, args.seconds, args.trace)
        check_metrics(record, expected)
        env = record["env"]
        print(f"{w}: seed {args.seed}, nproc {env['nproc']}, threads {env['threads']}, "
              f"FTDES_* {env['ftdes_vars'] or 'none'}")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        if not args.trace and not counts_guard(record, exe, target):
            correct = False
            record["failed"] += 1
        correct = correct and record["failed"] == 0
        records.append(record)

    if args.trace:
        print_layers(records)
    else:
        print_rows(records, spec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
