"""Benchmark for the planargca batch verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {closure,search,sweep} \
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one caller, in one process and one
thread: the next item starts only after the previous one returned.  Items
come in rounds (see ``workloads.py``); the loop keeps starting items until
``--seconds`` have passed, at least ``MIN_ITEMS`` items ran and at least
``MIN_ROUNDS`` rounds completed.  There is no warm-up pass, because every
CLI invocation of the verifier starts cold.

``--trace 0`` reports the end-to-end metrics.  Item and round times are
wall times scaled to a reference machine speed (see
``REFERENCE_KERNEL_S``); unscaled item times are on the context line.

- ``setup_s``: median over ``SETUP_REPEATS`` fresh interpreters of the time
  from process spawn to the point where the first item could start
  (importing ``planargca``, generating and validating the first round);
- ``wall_s``: median wall time of one complete round;
- ``item_p50_s``: median time of one item;
- ``item_tail_s``: over the first ``MIN_ITEMS`` items, which every run
  completes and which get the same inputs for the same seed, the time at
  the highest percentile that has ten items beyond it (the eleventh
  slowest); the percentile is printed on the context line with the item
  count;
- ``passed_frac``: 1 - failed/attempted, so that it is never 0; an item
  fails when a check reports ``ok: false``, a pinned verdict differs, or
  the call raises;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs rounds in pairs on the same inputs, once instrumented
and once plain (alternating which goes first), requires byte-identical
reports from both, and reports the per-layer metrics of ``tracing.py``
averaged per traced round, plus the tracing overhead and the share of
item time attributed to layer spans.  Spans are written to
``perfbench/out/<workload>.spans``.

The last line of standard output is the result object; the line before it
records the Python version, CPU count and CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Items a run always completes.  item_tail_s is taken over exactly these
# first items, so it reads the same order statistic of the same inputs
# whatever number of items a run or a version completes in --seconds.
# Closure runs three whole rounds: its five delta items are by far the
# fastest, and at 15 items the tail rank lies past the three of them.
MIN_ITEMS = {"closure": 15, "search": 11, "sweep": 200}
MIN_ROUNDS = 2
SETUP_REPEATS = 9
# Stop starting items well inside the 180 s limit whatever --seconds says.
HARD_STOP_S = 150.0
# Item times are scaled to a reference machine speed.  Right after each
# item the run times a fixed integer kernel for about CALIBRATION_SHARE of
# the item's time (at least CALIBRATION_MIN samples), and scales the item
# by REFERENCE_KERNEL_S over the median of those samples.  REFERENCE_KERNEL_S
# is the kernel's median on a 2-vCPU Intel Xeon under Python 3.11.7, where
# the benchmark was defined.  On shared machines the same item varies by
# a fifth or more between minutes; the kernel timed next to it follows the
# machine's speed at that moment, so the scaled times vary less.  Set-up
# time is measured in other processes and stays unscaled.
REFERENCE_KERNEL_S = 0.0016
CALIBRATION_MIN = 3
CALIBRATION_SHARE = 0.05


def load_program():
    """Import ``planargca`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "planargca"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import planargca
    from planargca import cli

    if Path(planargca.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported planargca from {planargca.__file__}")
    return cli


def context() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


# -- set-up -------------------------------------------------------------------


def setup_only(workload: str, seed: int) -> None:
    cli = load_program()
    workloads.make_round(workload, seed, 0, cli)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(workload: str, seed: int) -> float:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise SystemExit("perfbench: set-up child failed")
        samples.append(elapsed)
    return statistics.median(samples)


# -- the closed loop -------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, item, call=None):
        """Time one item, through ``call`` if given; return (seconds,
        report bytes or None)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            report = (call or item.call)()
        except Exception:
            elapsed = time.perf_counter() - started
            self.fail(item, traceback.format_exc())
            return elapsed, None
        elapsed = time.perf_counter() - started
        try:
            passed = item.verdict(report)
        except (KeyError, IndexError, TypeError):
            passed = False
        if not passed:
            self.fail(item, "pinned verdict differs")
        return elapsed, workloads.report_bytes(report)

    def fail(self, item, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: {item.label} failed: {why}", file=sys.stderr)


def tail(times, guaranteed: int):
    """The eleventh slowest of the first ``guaranteed`` items: the value at
    the highest percentile with ten items beyond it.  Returns (value,
    percentile)."""
    ordered = sorted(times[:guaranteed])
    return ordered[guaranteed - 11], 100.0 * (guaranteed - 10) / guaranteed


def speed_sample() -> float:
    """Seconds for a fixed pure-Python integer kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - started


def machine_scale(elapsed: float, kernel: list) -> float:
    """Factor taking an item's time to the reference speed; appends the
    kernel samples it takes to ``kernel``."""
    samples = []
    while len(samples) < CALIBRATION_MIN or sum(samples) < CALIBRATION_SHARE * elapsed:
        samples.append(speed_sample())
    kernel.extend(samples)
    return REFERENCE_KERNEL_S / statistics.median(samples)


def run_plain(cli, workload: str, seed: int, seconds: float, tally: Tally):
    began = time.perf_counter()
    item_times, round_times, raw_times, kernel = [], [], [], []

    def done() -> bool:
        elapsed = time.perf_counter() - began
        return elapsed >= HARD_STOP_S or (
            elapsed >= seconds
            and len(item_times) >= MIN_ITEMS[workload]
            and len(round_times) >= MIN_ROUNDS
        )

    round_index = 0
    while not done():
        items = workloads.make_round(workload, seed, round_index, cli)
        spent = 0.0
        for item in items:
            if done():
                break
            elapsed, _ = tally.run(item)
            raw_times.append(elapsed)
            item_times.append(elapsed * machine_scale(elapsed, kernel))
            spent += item_times[-1]
        else:
            round_times.append(spent)
        round_index += 1
    return item_times, round_times, raw_times, kernel


def run_traced(cli, workload: str, seed: int, seconds: float, tally: Tally):
    recorder = tracing.Recorder()
    instrumentation = tracing.Instrumentation(recorder)
    began = time.perf_counter()
    traced_s = plain_s = 0.0
    rounds = 0
    # Pairs are long, so start another only if it should end in time.
    while rounds == 0 or (
        (time.perf_counter() - began) * (rounds + 1) / rounds
        <= min(seconds, HARD_STOP_S)
    ):
        items = workloads.make_round(workload, seed, rounds, cli)
        outputs = {}
        for traced in ((True, False) if rounds % 2 == 0 else (False, True)):
            if traced:
                instrumentation.install()
            try:
                outputs[traced] = [
                    tally.run(item, recorder.spanned(tracing.ITEM, item.call) if traced else None)
                    for item in items
                ]
            finally:
                if traced:
                    instrumentation.restore()
        for item, (t_on, bytes_on), (t_off, bytes_off) in zip(
            items, outputs[True], outputs[False]
        ):
            traced_s += t_on
            plain_s += t_off
            if None not in (bytes_on, bytes_off) and bytes_on != bytes_off:
                tally.fail(item, "traced report differs from the plain one")
        rounds += 1

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}.spans"
    recorder.write(str(spans_path), dict(context(), workload=workload, seed=seed))
    metrics = layer_metrics(recorder, instrumentation, rounds)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    covered, roots = recorder.attributed()
    metrics["trace.attributed_frac"] = (covered / roots if roots else 0.0, "ratio")
    return metrics, rounds, spans_path


def layer_metrics(recorder, instrumentation, rounds: int) -> dict:
    """Per-layer metrics, averaged per traced round."""
    spans = recorder.summary()
    counters = recorder.counters

    def field(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0) / rounds

    def counter(name: str) -> float:
        return counters.get(name, 0) / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for op, calls in instrumentation.scalar_counts().items():
        out[f"scalars.{op}.calls"] = (calls / rounds, "count/round")
    for layer, span in (("poly.shift", "poly.shift"), ("poly.mul", "poly.mul"),
                        ("linalg.echelon_insert", "linalg.echelon_insert"),
                        ("linalg.dense", "linalg.dense"),
                        ("algebra.bracket_basis", "algebra.bracket_basis"),
                        ("pbw.straighten", "pbw.straighten"),
                        ("omega.act", "omega.act"),
                        ("whittaker.act", "whittaker.act"),
                        ("tensor.act", "tensor.act")):
        out[f"{layer}.calls"] = (field(span, "calls"), "count/round")
        out[f"{layer}.self_s"] = (field(span, "self_s"), "s/round")
    inserts = field("linalg.echelon_insert", "calls")
    independent = counter("linalg.echelon_insert.independent")
    out["linalg.echelon_insert.independent"] = (independent, "count/round")
    out["linalg.echelon_insert.useful_ratio"] = (ratio(independent, inserts), "ratio")
    out["linalg.echelon_contains.calls"] = (field("linalg.echelon_contains", "calls"), "count/round")
    out["linalg.row_bits_max"] = (instrumentation.row_bits_max, "bits")
    out["pbw.straighten.terms_out"] = (counter("pbw.straighten.terms_out"), "count/round")
    terms_in = counter("omega.act.terms_in")
    misses = recorder.child_count("omega.omega_act", "omega.act") / rounds
    out["omega.act.terms_in"] = (terms_in, "count/round")
    out["omega.image_misses"] = (misses, "count/round")
    out["omega.image_hit_ratio"] = (1.0 - misses / terms_in if terms_in else 0.0, "ratio")
    out["whittaker.act.terms_out"] = (counter("whittaker.act.terms_out"), "count/round")
    out["whittaker.search.basis_columns"] = (counter("whittaker.search.basis_columns"), "count/round")
    for layer, span in (("algebra.verify_structure", "algebra.verify_structure"),
                        ("omega.closure_probe", "omega.closure_probe"),
                        ("omega.axioms", "omega.axioms"),
                        ("whittaker.search", "whittaker.search"),
                        ("whittaker.degree_check", "whittaker.degree_check"),
                        ("tensor.probe", "tensor.probe"),
                        ("sampling", "sampling")):
        out[f"{layer}.busy_s"] = (field(span, "busy_s"), "s/round")
    out["cli.self_s"] = (field("cli.run_command", "self_s"), "s/round")
    return out


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0

    cli = load_program()
    tally = Tally()
    info = dict(context(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    if args.trace:
        metrics, rounds, spans_path = run_traced(cli, args.workload, args.seed,
                                                 args.seconds, tally)
        info.update(traced_rounds=rounds, spans=str(spans_path.relative_to(ROOT)),
                    peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        item_times, round_times, raw_times, kernel = run_plain(
            cli, args.workload, args.seed, args.seconds, tally)
        if len(item_times) < MIN_ITEMS[args.workload] or not round_times:
            print("perfbench: too few items for the tail metric", file=sys.stderr)
            return 1
        tail_s, percentile = tail(item_times, MIN_ITEMS[args.workload])
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(round_times), "s"),
            "item_p50_s": (statistics.median(item_times), "s"),
            "item_tail_s": (tail_s, "s"),
            "passed_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        info.update(items=len(item_times), rounds=len(round_times),
                    item_tail_percentile=round(percentile, 2),
                    item_tail_items=MIN_ITEMS[args.workload],
                    kernel_s=statistics.median(kernel), kernel_samples=len(kernel),
                    unscaled={"item_p50_s": statistics.median(raw_times),
                              "item_tail_s": tail(raw_times, MIN_ITEMS[args.workload])[0]})
    print(json.dumps({"context": info}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
