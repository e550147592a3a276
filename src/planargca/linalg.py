"""Exact linear algebra over Gaussian rationals.

All elimination but the determinant's runs through one kernel,
``SparseEchelon``: an incrementally maintained reduced row echelon form
over sparse rows whose columns are mutually comparable keys (integers in
the search and the dense solvers).  It backs the singular-vector search,
where rows arrive one at a time and most reduce to zero.  Because stored
rows stay fully reduced against each other, reducing a new row is a single
pass over its own pivot columns.
A stored row's smallest column is its pivot, so a new pivot can occur
only in stored rows whose pivot lies below it: back-substitution visits
that prefix of the sorted pivot columns and no other row.

Dense matrices are tuples of tuples of scalars, and stay tiny (well under
50 rows).  ``matrix_solve``, ``matrix_nullspace`` and ``matrix_inverse``
insert their rows into a ``SparseEchelon`` and read the answer off the
reduced rows.  ``determinant`` keeps its own forward elimination: it needs
the unnormalized pivots, and the ``psi14`` campaign uses it as a check that
stands independent of ``matrix_nullspace``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Sequence

from .scalars import ONE, ZERO, Scalar, scalar_from_ints

__all__ = [
    "Matrix",
    "SingularMatrix",
    "matrix_solve",
    "matrix_nullspace",
    "determinant",
    "matrix_inverse",
    "SparseEchelon",
]


class SingularMatrix(ValueError):
    """The linear system has no unique solution."""


class Matrix:
    """Dense rectangular matrix of scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("matrix rows must have equal length")
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def mat_vec(self, vec: Sequence[Scalar]) -> List[Scalar]:
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match matrix width")
        return [
            sum((row[j] * vec[j] for j in range(self.ncols)), ZERO)
            for row in self.rows
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(entry) for entry in row) for row in self.rows
        )
        return f"Matrix([{body}])"


def _echelon(rows: Iterable[Sequence[Scalar]]) -> "SparseEchelon":
    """Reduced echelon form of dense rows, columns indexed from 0."""
    echelon = SparseEchelon()
    for row in rows:
        echelon.insert(dict(enumerate(row)))
    return echelon


def matrix_solve(matrix: Matrix, rhs: Sequence[Scalar]) -> List[Scalar]:
    """Exact solution of a square system; raises ``SingularMatrix`` otherwise."""
    if matrix.nrows != matrix.ncols:
        raise SingularMatrix("matrix must be square")
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side has wrong length")
    n = matrix.ncols
    echelon = _echelon(list(row) + [rhs[i]] for i, row in enumerate(matrix.rows))
    if sorted(echelon.pivots) != list(range(n)):
        raise SingularMatrix("no unique solution")
    return [echelon.pivots[col].get(n, ZERO) for col in range(n)]


def matrix_nullspace(matrix: Matrix) -> List[List[Scalar]]:
    """Exact basis of the right kernel; empty list iff the matrix is injective.

    The basis is the canonical one from the reduced row echelon form: one
    vector per free column, with a 1 in that column.
    """
    echelon = _echelon(matrix.rows)
    basis: List[List[Scalar]] = []
    for free in range(matrix.ncols):
        if free not in echelon.pivots:
            vector = echelon.kernel_vector(free)
            basis.append([vector.get(col, ZERO) for col in range(matrix.ncols)])
    return basis


def determinant(matrix: Matrix) -> Scalar:
    """Exact determinant by elimination with row-swap sign tracking."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant requires a square matrix")
    n = matrix.nrows
    rows = [list(row) for row in matrix.rows]
    det = ONE
    for col in range(n):
        found = None
        for r in range(col, n):
            if rows[r][col]:
                found = r
                break
        if found is None:
            return ZERO
        if found != col:
            rows[col], rows[found] = rows[found], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [
                    rows[r][j] - factor * rows[col][j] for j in range(n)
                ]
    return det


def matrix_inverse(matrix: Matrix) -> Matrix:
    if matrix.nrows != matrix.ncols:
        raise SingularMatrix("matrix must be square")
    n = matrix.nrows
    identity = Matrix.identity(n).rows
    echelon = _echelon(
        list(row) + list(identity[i]) for i, row in enumerate(matrix.rows)
    )
    if sorted(echelon.pivots) != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return Matrix(
        [[echelon.pivots[i].get(n + j, ZERO) for j in range(n)] for i in range(n)]
    )


def _subtract(target: Dict[int, Scalar], factor: Scalar, row: Dict[int, Scalar]) -> None:
    """``target -= factor * row`` in place, dropping entries that cancel.

    Each entry t - f*r is formed from the integer fields: the product's
    numerator over f.d * r.d, then the difference over one common
    denominator, so it costs one reduction (``scalar_from_ints``) where
    ``t - f * r`` costs two.  The result is the same canonical scalar.
    """
    if not factor:
        return
    fa, fb, fd = factor.a, factor.b, factor.d
    for col, coeff in row.items():
        ra, rb = coeff.a, coeff.b
        pa, pb, pd = fa * ra - fb * rb, fa * rb + fb * ra, fd * coeff.d
        old = target.get(col)
        if old is None:
            target[col] = scalar_from_ints(-pa, -pb, pd)
            continue
        td = old.d
        if td == pd:
            a, b, d = old.a - pa, old.b - pb, td
        else:
            a, b, d = old.a * pd - pa * td, old.b * pd - pb * td, td * pd
        if a or b:
            target[col] = scalar_from_ints(a, b, d)
        else:
            del target[col]


class SparseEchelon:
    """Incrementally maintained reduced row echelon form over sparse rows.

    Rows are dicts mapping columns to nonzero scalars.  A column is any
    hashable key, and all the columns of one echelon must be mutually
    comparable: "smallest" below is their natural order (integers, or
    tuples).  Only ``kernel_vector_at_first_free_column`` needs the integer
    columns 0..ncols-1.  ``pivots`` maps each pivot column to its stored row.

    The invariant: every stored row has a 1 at its pivot, which is its
    smallest column, and a 0 at every other pivot.  The stored rows are
    therefore the reduced echelon basis of the span, which depends only on
    the span and not on the order in which rows were inserted.
    """

    def __init__(self) -> None:
        self.pivots: Dict[int, Dict[int, Scalar]] = {}
        self._order: List[int] = []  # the pivot columns, ascending

    @property
    def dimension(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """Remainder of ``row`` after clearing every stored pivot column.

        The remainder is empty exactly when the row lies in the span.  A
        stored row is 0 at every other pivot, so subtracting it leaves the
        row's other pivot entries as they were: one pass over the row's own
        pivot columns clears them all.
        """
        work = {col: coeff for col, coeff in row.items() if coeff}
        for lead in [col for col in work if col in self.pivots]:
            _subtract(work, work[lead], self.pivots[lead])
        return work

    def insert(self, row: Dict[int, Scalar]) -> bool:
        """Add ``row`` to the span; returns True if it was independent.

        The new row is stored last in ``pivots``, normalized to lead 1, and
        its pivot column is cleared from every earlier row.  Only rows whose
        pivot lies below the new lead are visited: any other stored row's
        smallest column, its pivot, is above the lead, so it has no entry
        there.
        """
        remainder = self.reduce(row)
        if not remainder:
            return False
        lead = min(remainder)
        inv = remainder[lead].inverse()
        normalized = {col: coeff * inv for col, coeff in remainder.items()}
        pivots, order = self.pivots, self._order
        for col in order[: bisect_left(order, lead)]:
            stored = pivots[col]
            coeff = stored.get(lead)
            if coeff:
                _subtract(stored, coeff, normalized)
        insort(order, lead)
        pivots[lead] = normalized
        return True

    def contains(self, row: Dict[int, Scalar]) -> bool:
        return not self.reduce(row)

    def kernel_vector(self, free: int) -> Dict[int, Scalar]:
        """The kernel vector with a 1 at the non-pivot column ``free``.

        It has -row[free] at each pivot and is 0 at every other free column,
        so every inserted row kills it.
        """
        if free in self.pivots:
            raise ValueError(f"column {free} is a pivot column, not a free one")
        vector: Dict[int, Scalar] = {free: ONE}
        for pivot_col, pivot_row in self.pivots.items():
            coeff = pivot_row.get(free)
            if coeff:
                vector[pivot_col] = -coeff
        return vector

    def kernel_vector_at_first_free_column(
        self, ncols: int
    ) -> Optional[Dict[int, Scalar]]:
        """Kernel vector for the smallest non-pivot column below ``ncols``.

        It is supported only on columns up to that free column, since every
        pivot row's smallest column is its pivot.  None when all ``ncols``
        columns are pivots.
        """
        free = next((col for col in range(ncols) if col not in self.pivots), None)
        return None if free is None else self.kernel_vector(free)

    def rows_sorted(self) -> List[Dict[int, Scalar]]:
        return [self.pivots[col] for col in sorted(self.pivots)]
