"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

For one small item of each workload it checks that

- the instrumented and the plain call return byte-identical reports, and
  both reproduce the item's pinned verdicts;
- every span's self time is non-negative, and the self times of the spans
  under an item sum to no more than the item's root span;
- the closure probe itself never calls ``bracket_basis`` (the axiom check
  that ``verify-omega`` runs alongside it does);
- after the traced call every patched module global and class attribute
  is the original object again.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import sys

from run import load_program

import tracing
import workloads

SMALL_ITEMS = {
    "closure": "closure/delta",
    "search": "search/11",
    "sweep": "sweep/tensor-sigma_zero",
}
TOLERANCE_S = 1e-9


def pick(cli, workload: str):
    for item in workloads.make_round(workload, 0, 0, cli):
        if item.label == SMALL_ITEMS[workload]:
            return item
    raise LookupError(SMALL_ITEMS[workload])


def snapshot():
    from planargca import linalg, omega, poly, scalars

    owners = tracing.package_modules() + [
        scalars.Scalar, poly.Poly, linalg.SparseEchelon, omega.CachedAction,
    ]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def check_spans(recorder, failures, workload: str) -> None:
    own = recorder.self_times()
    n = recorder.span_count()
    root = [0] * n
    in_probe = [False] * n
    for i in range(n):
        parent = recorder.parent[i]
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            in_probe[i] = in_probe[parent] or (
                recorder.span_name(parent) == "omega.closure_probe"
            )
    totals = {}
    for i in range(n):
        if own[i] < -TOLERANCE_S:
            failures.append(f"{workload}: span {recorder.span_name(i)} has negative self time")
        totals[root[i]] = totals.get(root[i], 0.0) + own[i]
        if in_probe[i] and recorder.span_name(i) == "algebra.bracket_basis":
            failures.append(f"{workload}: closure probe called bracket_basis")
    for r, total in totals.items():
        duration = recorder.end[r] - recorder.start[r]
        if recorder.span_name(r) != tracing.ITEM:
            failures.append(f"{workload}: root span is {recorder.span_name(r)}")
        if total > duration + TOLERANCE_S:
            failures.append(f"{workload}: self times {total} exceed root {duration}")


def main() -> int:
    cli = load_program()
    failures = []
    for workload in workloads.WORKLOADS:
        item = pick(cli, workload)
        already = len(failures)
        plain = item.call()
        recorder = tracing.Recorder()
        instrumentation = tracing.Instrumentation(recorder)
        before = snapshot()
        instrumentation.install()
        try:
            traced = recorder.spanned(tracing.ITEM, item.call)()
        finally:
            instrumentation.restore()
        for owner, attrs in before.values():
            now = vars(owner)
            if any(now.get(key) is not value for key, value in attrs.items()):
                failures.append(f"{workload}: {owner!r} not restored")
        if workloads.report_bytes(plain) != workloads.report_bytes(traced):
            failures.append(f"{workload}: traced report differs from the plain one")
        if not (item.verdict(plain) and item.verdict(traced)):
            failures.append(f"{workload}: pinned verdict differs")
        if recorder.span_count() < 2:
            failures.append(f"{workload}: no layer spans recorded")
        check_spans(recorder, failures, workload)
        print(f"{'FAIL' if len(failures) > already else 'PASS'} {item.label}: "
              f"{recorder.span_count()} spans")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
