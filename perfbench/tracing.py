"""Span and counter tracing around the public functions of ``planargca``.

Nothing here is imported by the package: the benchmark installs wrappers
for the duration of a traced run and restores the originals afterwards.

- A *span* is one call of a wrapped function: name, start, end and the
  span that was open when it began.  Spans live in flat arrays (24 bytes
  each) until the run ends, then ``write`` stores them.
- Scalar arithmetic gets counting wrappers only.  A timing span on every
  ``Scalar`` operation would cost more than the work it measures and swamp
  every other span; counting alone already adds roughly 15% to a closure
  campaign.
- A function imported by name into several modules (``bracket_basis`` sits
  in ``algebra``, ``omega``, ``pbw`` and ``whittaker``) is replaced in every
  module that holds it, so calls through any of those names are seen.
  Module-level lookups such as ``CachedAction.act`` calling ``omega_act``
  go through the replaced global, and recursion through a replaced global
  (``bracket_basis`` calls itself) opens nested spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

ITEM = "bench.item"
ENTRY = "cli.run_command"


class Recorder:
    """In-memory store of spans and named counters for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # Per span: name id (bit-inverted when a span of the same name is
        # already open, so "outermost" needs no tree walk), parent index,
        # start and end.
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.depth: List[int] = []
        self.counters: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self._ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def spanned(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span; ``after(args, result)`` runs
        once the span has closed."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, depth = self.stack, self.depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid if not depth[nid] else ~nid)
            parents.append(stack[-1])
            ends.append(0.0)
            depth[nid] += 1
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                depth[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and outermost-busy seconds."""
        n = len(self.start)
        child = [0.0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {
            name: {"calls": 0, "self_s": 0.0, "busy_s": 0.0}
            for name in self.names
        }
        names = self.names
        for i in range(n):
            raw = self.name[i]
            entry = out[names[raw if raw >= 0 else ~raw]]
            duration = ends[i] - starts[i]
            entry["calls"] += 1
            entry["self_s"] += duration - child[i]
            if raw >= 0:
                entry["busy_s"] += duration
        return out

    def self_times(self) -> List[float]:
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def span_name(self, index: int) -> str:
        raw = self.name[index]
        return self.names[raw if raw >= 0 else ~raw]

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        nid, pid = self._ids[name], self._ids[parent_name]
        count = 0
        for i in range(len(self.start)):
            raw = self.name[i]
            p = self.parent[i]
            if (raw if raw >= 0 else ~raw) == nid and p >= 0:
                praw = self.name[p]
                count += (praw if praw >= 0 else ~praw) == pid
        return count

    def attributed(self) -> Tuple[float, float]:
        """(seconds inside layer spans, seconds inside item roots).

        Layer spans are the children of an item root other than the CLI
        entry span, plus the children of the entry span: the entry span's
        own time (config validation, report assembly) is not attributed.
        """
        item, entry = self._ids.get(ITEM), self._ids.get(ENTRY)
        covered = roots = 0.0
        for i in range(len(self.start)):
            raw = self.name[i]
            nid = raw if raw >= 0 else ~raw
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                if nid == item:
                    roots += duration
                continue
            praw = self.name[p]
            pid = praw if praw >= 0 else ~praw
            if (pid == item and nid != entry) or pid == entry:
                covered += duration
        return covered, roots

    def write(self, path: str, context: dict) -> None:
        """Header line of JSON, then the four arrays in native byte order."""
        header = {
            "context": context,
            "names": self.names,
            "spans": len(self.start),
            "layout": ["name:int32 (~id when nested)", "parent:int32",
                       "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
            "counters": self.counters,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def _counted_binary(cell: List[int], fn: Callable) -> Callable:
    def wrapper(self, other):
        cell[0] += 1
        return fn(self, other)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted_unary(cell: List[int], fn: Callable) -> Callable:
    def wrapper(self):
        cell[0] += 1
        return fn(self)

    wrapper.__wrapped__ = fn
    return wrapper


def _row_bits(row) -> int:
    best = 0
    for coeff in row.values():
        for part in (coeff.re, coeff.im):
            best = max(best, part.numerator.bit_length(),
                       part.denominator.bit_length())
    return best


class Instrumentation:
    """Installs every wrapper on ``install`` and undoes them on ``restore``."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._undo: List[Tuple[object, str, object]] = []
        self.scalar_cells = {"mul": [0], "add": [0], "inverse": [0]}
        self.row_bits_max = 0

    # -- patch helpers --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _function(self, home, attr: str, name: str, after=None) -> None:
        """Wrap a module-level function in every planargca module holding it."""
        original = getattr(home, attr)
        wrapped = self.rec.spanned(name, original, after)
        for module in package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self.rec.spanned(name, cls.__dict__[attr], after))

    # -- the instrumented layers ---------------------------------------------

    def install(self) -> None:
        from planargca import (
            algebra, cli, linalg, omega, pbw, poly, sampling, scalars,
            tensor, whittaker,
        )

        rec = self.rec
        cells = self.scalar_cells
        scalar = scalars.Scalar
        for attr in ("__mul__", "__rmul__"):
            self._set(scalar, attr, _counted_binary(cells["mul"], scalar.__dict__[attr]))
        # __rsub__ delegates to __sub__, so counting it too would count twice.
        for attr in ("__add__", "__radd__", "__sub__"):
            self._set(scalar, attr, _counted_binary(cells["add"], scalar.__dict__[attr]))
        self._set(scalar, "inverse", _counted_unary(cells["inverse"], scalar.__dict__["inverse"]))

        self._method(poly.Poly, "shift", "poly.shift")
        self._method(poly.Poly, "__mul__", "poly.mul")

        echelon = linalg.SparseEchelon

        def note_insert(args, independent):
            if independent:
                rec.count("linalg.echelon_insert.independent")
                self.row_bits_max = max(
                    self.row_bits_max, _row_bits(args[0].pivots[_last_key(args[0].pivots)])
                )

        def note_all_rows(args, _result):
            for row in args[0].pivots.values():
                self.row_bits_max = max(self.row_bits_max, _row_bits(row))

        self._method(echelon, "insert", "linalg.echelon_insert", note_insert)
        self._method(echelon, "contains", "linalg.echelon_contains")
        self._method(echelon, "rows_sorted", "linalg.echelon_rows", note_all_rows)
        self._method(
            echelon, "kernel_vector_at_first_free_column", "linalg.echelon_rows",
            note_all_rows,
        )
        for attr in ("matrix_solve", "matrix_nullspace", "determinant", "matrix_inverse"):
            self._function(linalg, attr, "linalg.dense")

        self._function(algebra, "bracket_basis", "algebra.bracket_basis")
        self._function(algebra, "verify_structure", "algebra.verify_structure")

        self._function(
            pbw, "straighten", "pbw.straighten",
            lambda args, result: rec.count("pbw.straighten.terms_out", len(result.terms)),
        )

        self._method(
            omega.CachedAction, "act", "omega.act",
            lambda args, result: rec.count("omega.act.terms_in", len(args[2].terms)),
        )
        self._function(omega, "omega_act", "omega.omega_act")
        self._function(omega, "submodule_closure_probe", "omega.closure_probe")
        self._function(omega, "verify_omega_axioms", "omega.axioms")

        self._function(
            whittaker, "whittaker_act", "whittaker.act",
            lambda args, result: rec.count("whittaker.act.terms_out", len(result.terms)),
        )
        self._function(
            whittaker, "singular_vector_search", "whittaker.search",
            lambda args, result: rec.count("whittaker.search.basis_columns", result.basis_size),
        )
        self._function(whittaker, "check_degree_reduction", "whittaker.degree_check")
        self._function(whittaker, "solve_twist", "whittaker.twist")
        self._function(whittaker, "example_psi14_witness", "whittaker.psi14")

        self._function(tensor, "tensor_act", "tensor.act")
        self._function(tensor, "tensor_closure_probe", "tensor.probe")
        self._function(tensor, "j_nilpotency_witness", "tensor.j_witness")

        for attr in sampling.__all__:
            self._function(sampling, attr, "sampling")

        self._function(cli, "run_command", ENTRY)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def scalar_counts(self) -> Dict[str, int]:
        return {name: cell[0] for name, cell in self.scalar_cells.items()}


def _last_key(mapping: dict):
    # Dicts keep insertion order; SparseEchelon.insert stores the new pivot
    # row last.
    return next(reversed(mapping))


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "planargca" or name.startswith("planargca."))
    ]
