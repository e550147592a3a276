import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planargca.linalg import (
    Matrix,
    SingularMatrix,
    SparseEchelon,
    _subtract,
    determinant,
    matrix_inverse,
    matrix_nullspace,
    matrix_solve,
)
from planargca.scalars import ONE, ZERO, sc


def _mat(rows):
    return Matrix([[sc(entry) for entry in row] for row in rows])


def test_solve_identity():
    assert matrix_solve(Matrix.identity(2), [sc(3), sc(5)]) == [sc(3), sc(5)]


def test_solve_two_by_two():
    # The size-one normalization system with both I/J values 1 and
    # right-hand side (6, 0) has the solution (1, 1).
    solution = matrix_solve(_mat([[3, 3], [-1, 1]]), [sc(6), sc(0)])
    assert solution == [sc(1), sc(1)]


def test_solve_singular_rejected():
    with pytest.raises(SingularMatrix):
        matrix_solve(_mat([[1, 1], [1, 1]]), [sc(1), sc(0)])


def test_nullspace_injective():
    assert matrix_nullspace(Matrix.identity(3)) == []


def test_nullspace_zero_matrix():
    basis = matrix_nullspace(_mat([[0, 0], [0, 0]]))
    assert len(basis) == 2


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(5)
    for _ in range(10):
        rows = [
            [sc(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)
        ]
        matrix = Matrix(rows)
        for vector in matrix_nullspace(matrix):
            assert matrix.mat_vec(vector) == [ZERO] * 3


def test_solve_round_trip_random_up_to_8():
    rng = random.Random(11)
    for size in range(1, 9):
        while True:
            matrix = Matrix(
                [
                    [
                        sc(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
            )
            if determinant(matrix):
                break
        x = [sc(rng.randint(-5, 5)) for _ in range(size)]
        assert matrix_solve(matrix, matrix.mat_vec(x)) == x


def test_determinant_and_inverse():
    matrix = _mat([[2, 1], [1, 1]])
    assert determinant(matrix) == ONE
    inverse = matrix_inverse(matrix)
    assert inverse == _mat([[1, -1], [-1, 2]])
    with pytest.raises(SingularMatrix):
        matrix_inverse(_mat([[1, 1], [1, 1]]))


def test_rectangular_validation():
    with pytest.raises(ValueError):
        Matrix([[ONE], [ONE, ZERO]])


def test_sparse_echelon_membership():
    echelon = SparseEchelon()
    assert echelon.insert({0: sc(1), 2: sc(2)})
    assert echelon.insert({1: sc(1)})
    assert not echelon.insert({0: sc(2), 1: sc(3), 2: sc(4)})
    assert echelon.dimension == 2
    assert echelon.contains({0: sc(-1), 2: sc(-2)})
    assert not echelon.contains({2: sc(1)})


def test_sparse_echelon_kernel_extraction():
    echelon = SparseEchelon()
    # Rows of [[1, 2, 3], [0, 1, 1]]; kernel spanned by (-1, -1, 1).
    echelon.insert({0: sc(1), 1: sc(2), 2: sc(3)})
    echelon.insert({1: sc(1), 2: sc(1)})
    kernel = echelon.kernel_vector_at_first_free_column(3)
    assert kernel == {2: ONE, 0: sc(-1), 1: sc(-1)}
    echelon.insert({2: sc(1)})
    assert echelon.kernel_vector_at_first_free_column(3) is None


def test_sparse_echelon_kernel_vector_refuses_a_pivot_column():
    echelon = SparseEchelon()
    echelon.insert({2: sc(2), 5: sc(0, 1)})
    with pytest.raises(ValueError, match="column 2 is a pivot column"):
        echelon.kernel_vector(2)
    assert echelon.kernel_vector(5) == {5: ONE, 2: sc(0, Fraction(-1, 2))}


# -- reference elimination over Fraction pairs ---------------------------------
#
# An independent reduced row echelon form: a Gaussian rational is a pair
# (re, im) of Fractions, and elimination is the textbook dense Gauss-Jordan.


def _pair(scalar):
    return (scalar.re, scalar.im)


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _reference_rref(rows):
    """(nonzero reduced rows as pair lists, pivot columns)."""
    rows = [[_pair(entry) for entry in row] for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        k = len(pivots)
        found = next((r for r in range(k, len(rows)) if rows[r][col] != (0, 0)), None)
        if found is None:
            continue
        rows[k], rows[found] = rows[found], rows[k]
        inv = _inv(rows[k][col])
        rows[k] = [_mul(entry, inv) for entry in rows[k]]
        for r in range(len(rows)):
            factor = rows[r][col]
            if r != k and factor != (0, 0):
                rows[r] = [
                    (a[0] - p[0], a[1] - p[1])
                    for a, p in zip(rows[r], (_mul(factor, b) for b in rows[k]))
                ]
        pivots.append(col)
    return rows[: len(pivots)], pivots


_part = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)
)
_entry = st.one_of(st.just(ZERO), st.builds(sc, _part, st.one_of(st.just(0), _part)))


def _draw_rows(data, nrows, ncols):
    """Rows with small Gaussian-rational entries, some of them dependent."""
    row = st.lists(_entry, min_size=ncols, max_size=ncols)
    rows = [data.draw(row) for _ in range(nrows)]
    for _ in range(data.draw(st.integers(0, 2))):
        a, b = data.draw(st.lists(_entry, min_size=2, max_size=2))
        r, s = (data.draw(st.sampled_from(range(len(rows)))) for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(rows[r], rows[s])])
    return rows


def _dense(row, ncols):
    return [_pair(row.get(col, ZERO)) for col in range(ncols)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_sparse_echelon_is_canonical_reduced_form(data):
    ncols = data.draw(st.integers(1, 8))
    rows = _draw_rows(data, data.draw(st.integers(1, 7)), ncols)
    expected_rows, expected_pivots = _reference_rref(rows)

    def first_nonzero(row):
        return next((col for col, entry in enumerate(row) if entry), ncols)

    orders = [
        rows,
        rows[::-1],
        data.draw(st.permutations(rows)),
        sorted(rows, key=lambda row: -first_nonzero(row)),
    ]
    for order in orders:
        echelon = SparseEchelon()
        for row in order:
            echelon.insert(dict(enumerate(row)))
            assert echelon._order == sorted(echelon.pivots)
        assert echelon.dimension == len(expected_pivots)
        assert [_dense(row, ncols) for row in echelon.rows_sorted()] == expected_rows
        for lead, row in echelon.pivots.items():
            assert all(row.values())
            assert min(row) == lead and row[lead] == ONE
            assert not any(other in row for other in echelon.pivots if other != lead)
        for free in range(ncols):
            if free in echelon.pivots:
                continue
            vector = echelon.kernel_vector(free)
            assert vector[free] == ONE
            for row in rows:
                dot = sum((row[col] * coeff for col, coeff in vector.items()), ZERO)
                assert dot == ZERO


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_sparse_echelon_columns_may_be_any_ordered_keys(data):
    # The same rows keyed by 0..ncols-1 and by an order-preserving map onto
    # tuples give corresponding insert results, stored rows, pivots and
    # membership.
    ncols = data.draw(st.integers(1, 8))
    rows = _draw_rows(data, data.draw(st.integers(1, 7)), ncols)
    pairs = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    keys = sorted(data.draw(st.sets(pairs, min_size=ncols, max_size=ncols)))
    by_int, by_key = SparseEchelon(), SparseEchelon()
    for row in data.draw(st.permutations(rows)):
        keyed = {keys[col]: entry for col, entry in enumerate(row)}
        assert by_key.insert(keyed) == by_int.insert(dict(enumerate(row)))
        assert [keys[col] for col in by_int.pivots] == list(by_key.pivots)
    assert by_key._order == sorted(by_key.pivots)
    assert [
        {keys[col]: entry for col, entry in row.items()} for row in by_int.rows_sorted()
    ] == by_key.rows_sorted()
    for probe in _draw_rows(data, 3, ncols):
        assert by_key.contains(
            {keys[col]: entry for col, entry in enumerate(probe)}
        ) == by_int.contains(dict(enumerate(probe)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_dense_solvers_match_reference(data):
    n = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 5))
    wide = Matrix(_draw_rows(data, data.draw(st.integers(1, 4)), ncols))
    reduced, pivots = _reference_rref(wide.rows)
    expected_kernel = []
    for free in (col for col in range(ncols) if col not in pivots):
        vector = [(0, 0)] * ncols
        vector[free] = (1, 0)
        for row, col in zip(reduced, pivots):
            vector[col] = (-row[free][0], -row[free][1])
        expected_kernel.append(vector)
    assert [[_pair(e) for e in v] for v in matrix_nullspace(wide)] == expected_kernel

    square = Matrix(data.draw(st.lists(
        st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n
    )))
    rhs = data.draw(st.lists(_entry, min_size=n, max_size=n))
    augmented = [list(row) + [rhs[i]] for i, row in enumerate(square.rows)]
    reduced, pivots = _reference_rref(augmented)
    if pivots == list(range(n)):
        solution = matrix_solve(square, rhs)
        assert [_pair(e) for e in solution] == [row[n] for row in reduced]
    else:
        with pytest.raises(SingularMatrix):
            matrix_solve(square, rhs)

    identity = Matrix.identity(n).rows
    augmented = [list(row) + list(identity[i]) for i, row in enumerate(square.rows)]
    reduced, pivots = _reference_rref(augmented)
    if pivots == list(range(n)):
        inverse = matrix_inverse(square).rows
        assert [[_pair(e) for e in row] for row in inverse] == [row[n:] for row in reduced]
    else:
        with pytest.raises(SingularMatrix):
            matrix_inverse(square)


_wide_part = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
_wide_entry = st.one_of(
    st.just(ZERO), st.builds(sc, _wide_part, st.one_of(st.just(0), _wide_part))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_subtract_matches_the_plain_formula(data):
    # The fused row update against target[c] - factor * row[c], entry by
    # entry, with some target entries set to cancel exactly.
    ncols = data.draw(st.integers(1, 6))
    factor = data.draw(_wide_entry)
    row = {c: e for c in range(ncols) if (e := data.draw(_wide_entry))}
    target = {}
    for c in range(ncols):
        kind = data.draw(st.sampled_from(["absent", "entry", "cancel"]))
        value = data.draw(_wide_entry) if kind == "entry" else factor * row.get(c, ZERO)
        if kind != "absent" and value:
            target[c] = value
    expected = {}
    for c in sorted(set(target) | set(row)):
        value = target.get(c, ZERO) - factor * row.get(c, ZERO)
        if value:
            expected[c] = value
    work = dict(target)
    _subtract(work, factor, row)
    assert work == expected
    for c, value in work.items():
        assert (value.a, value.b, value.d) == (expected[c].a, expected[c].b, expected[c].d)
        assert value.d > 0 and gcd(value.a, value.b, value.d) == 1
