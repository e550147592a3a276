"""Alternating parent/change pairs of the benchmark, written as BENCH_*.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --first-seed S \
        --out BENCH_name.json [--note TEXT]

Each side is ``git archive``d once into a tar; every run extracts its side's
tar into a fresh directory and runs

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0

there with PYTHONDONTWRITEBYTECODE=1 and T the ``run_seconds`` of
BENCHMARK.json, one process at a time, so both sides run the benchmark
code of their own commit.  Every workload of BENCHMARK.json runs
``PAIRS`` pairs, in the file's order.  Pair j of a workload uses one seed
for both sides, and the parent runs first in even-numbered pairs, counting
from 0.  Workload i takes the seeds S + i * PAIRS .. S + (i + 1) * PAIRS - 1.
After the timed pairs, one traced pair per workload (``--seconds 0
--trace 1``, parent first) runs at seed S + (number of workloads) * PAIRS
+ 10.  ``run.py``'s traced loop always completes its first round and
starts another only if it should end within ``--seconds``, so at 0 each
run completes exactly one traced round, and both sides count the same
inputs.

Last, every workload runs ``SETUP_PAIRS`` alternating pairs of the set-up
alone: perfbench's hidden ``--setup-only`` child, timed as ``run.py``
times it for ``setup_s``, from spawn to its ``ready`` line, in one tree
per side extracted once for this phase.  Pair j uses the workload's seed
j mod ``PAIRS``, and the parent starts even-numbered pairs.  A benchmark
run takes the median of only a few such spawns, so ``setup_only`` gives a
``setup_s`` reading its own re-measure.

For each end-to-end metric that BENCHMARK.json names, the file records every
run, each side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the relative change of the medians and
``change_better_pairs``, the pairs where the change reads strictly better in
the metric's direction (ties count for neither).  ``kernel_s`` is each
run's median calibration kernel time.  A run that exits nonzero stops the
script.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
SETUP_PAIRS = 40


def archive(rev: str, tar: Path) -> Path:
    """Write a tar of ``rev``'s tree to ``tar``."""
    with open(tar, "wb") as handle:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       stdout=handle, check=True)
    return tar


def run_once(tar: Path, scratch: Path, workload: str, seed: int,
             seconds: float, trace: int) -> tuple:
    """``(context, result)``: the last two stdout lines of one run, made in a
    fresh directory extracted from ``tar`` and removed afterwards."""
    tree = Path(tempfile.mkdtemp(dir=scratch))
    try:
        with tarfile.open(tar) as handle:
            handle.extractall(tree, filter="data")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(tree)
    if done.returncode:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    context, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(context)["context"], json.loads(result)


def extract(tar: Path, scratch: Path) -> Path:
    tree = Path(tempfile.mkdtemp(dir=scratch))
    with tarfile.open(tar) as handle:
        handle.extractall(tree, filter="data")
    return tree


def setup_once(tree: Path, workload: str, seed: int) -> float:
    """Seconds from spawning ``run.py --setup-only`` in ``tree`` to its
    ``ready`` line."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--setup-only"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != b"ready" or code:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} set-up child failed")
    return elapsed


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def metric_record(unit: str, better: str, runs: dict) -> dict:
    parent, change = runs["parent"], runs["change"]
    base = statistics.median(parent)
    wins = sum(
        (c < p) if better == "lower" else (c > p) for p, c in zip(parent, change)
    )
    return {
        "unit": unit,
        "parent": summary(parent),
        "change": summary(change),
        "change_vs_parent": round(statistics.median(change) / base - 1, 4) if base else 0.0,
        "change_better_pairs": wins,
        "runs": {side: [round(v, 6) for v in runs[side]] for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    revs = {"parent": args.parent, "change": args.change}
    commits = {
        side: subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        for side, rev in revs.items()
    }

    out = {"workloads": {}, "traced": {"pairs": []}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        scratch = Path(scratch)
        tars = {side: archive(rev, scratch / f"{side}.tar") for side, rev in revs.items()}
        seeds = {}
        host = None
        for i, workload in enumerate(workloads):
            seeds[workload] = [args.first_seed + i * PAIRS + j for j in range(PAIRS)]
            values = {m["name"]: {side: [] for side in SIDES} for m in metrics}
            kernel = {side: [] for side in SIDES}
            failed = dict.fromkeys(SIDES, 0)
            for j, seed in enumerate(seeds[workload]):
                order = SIDES if j % 2 == 0 else SIDES[::-1]
                for side in order:
                    context, result = run_once(tars[side], scratch, workload, seed,
                                               seconds, 0)
                    host = host or (f"Python {context['python']}, {context['nproc']} "
                                    f"vCPU, {context['cpu_model']}")
                    failed[side] += result["failed"]
                    kernel[side].append(context["kernel_s"])
                    for name, runs in values.items():
                        runs[side].append(result["metrics"][name]["value"])
                    print(f"{workload} pair {j} seed {seed} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            out["workloads"][workload] = {
                "pairs": PAIRS,
                "seeds": seeds[workload],
                "failed_items": failed,
                "metrics": {
                    m["name"]: metric_record(m["unit"], m["better"], values[m["name"]])
                    for m in metrics
                },
                "kernel_s": kernel,
            }
        traced_seed = args.first_seed + len(workloads) * PAIRS + 10
        for workload in workloads:
            pair = {"workload": workload, "seed": traced_seed, "first": "parent"}
            for side in SIDES:
                context, result = run_once(tars[side], scratch, workload, traced_seed,
                                           0, 1)
                pair[side] = {"traced_rounds": context["traced_rounds"],
                              "failed": result["failed"], **result["metrics"]}
            out["traced"]["pairs"].append(pair)
        trees = {side: extract(tars[side], scratch) for side in SIDES}
        out["setup_only"] = {}
        for workload in workloads:
            times = {side: [] for side in SIDES}
            for j in range(SETUP_PAIRS):
                seed = seeds[workload][j % PAIRS]
                for side in SIDES if j % 2 == 0 else SIDES[::-1]:
                    times[side].append(setup_once(trees[side], workload, seed))
            out["setup_only"][workload] = {
                "pairs": SETUP_PAIRS, "setup_s": metric_record("s", "lower", times),
            }

    description = (
        f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
        f"--seed S --seconds {seconds:g} --trace 0`, one process at a time, each "
        f"run in its own fresh directory extracted from a `git archive` tar of its "
        f"commit (parent: {commits['parent']}; change: {commits['change']}), with "
        f"PYTHONDONTWRITEBYTECODE=1; the parent runs first in even-numbered pairs, "
        f"counting from 0. Workloads ran in the order {', '.join(workloads)}. "
        f"Quartiles: statistics.quantiles(n=4, method='inclusive'). "
        f"change_better_pairs counts pairs where the change reads strictly better "
        f"(ties count for neither). kernel_s is each run's median calibration kernel "
        f"time. `traced` holds one pair per workload of `--seconds 0 --trace 1` "
        f"(seed {traced_seed}, parent first). `setup_only` holds {SETUP_PAIRS} "
        f"alternating pairs per workload of the `--setup-only` child, timed from "
        f"spawn to `ready` in one extracted tree per side, at the workload's seed "
        f"j mod {PAIRS}. Made by tools/bench_pairs.py."
    )
    document = {"description": f"{description} {args.note}".strip(), "host": host, **out}
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    for workload, record in out["workloads"].items():
        for name, metric in record["metrics"].items():
            print(f"{workload:8} {name:12} {metric['parent']['median']:.6g} -> "
                  f"{metric['change']['median']:.6g} ({metric['change_vs_parent']:+.2%}), "
                  f"change better in {metric['change_better_pairs']}/{PAIRS}")
    for workload, record in out["setup_only"].items():
        metric = record["setup_s"]
        print(f"{workload:8} setup-only   {metric['parent']['median']:.6g} -> "
              f"{metric['change']['median']:.6g} ({metric['change_vs_parent']:+.2%}), "
              f"change better in {metric['change_better_pairs']}/{SETUP_PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
