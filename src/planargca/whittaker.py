"""Whittaker data and the modules they induce.

For integers m >= 1, n >= 0, a Whittaker datum assigns exact scalar values
psi(g) to the generators of the subalgebra spanned by L_{m+i}, H_{m+i},
I_{n+i}, J_{n+i} (i >= 0) together with the three centrals.  These
starting indices live in one table, ``WhittakerDatum.thresholds``; the
subalgebra test, the free generators, the search operators and the block
lengths all read it.  Because psi must kill every bracket inside that
subalgebra, it can be nonzero only at the centrals and at the 4m+1
generators of ``WhittakerDatum.support()``; ``validate_whittaker`` rejects
anything else.

The induced cyclic module has a PBW basis of monomials in the remaining
("free") generators, L_k/H_k with k < m and I_k/J_k with k < n, applied to
the cyclic vector; a ``ModuleVector`` is a ``LinearCombination`` of these
monomials.  ``whittaker_act`` runs the one left action of ``pbw`` with the
datum: a generator of the subalgebra that is central, or meets the cyclic
vector itself, evaluates to its psi-value.  Its memo scope is a single
``whittaker_act`` call, one degree check or witness check, or one whole
singular-vector search.  The search's columns share the memo, since
column x u needs the images of its suffix u, and the memo is dropped
before elimination.

The singular-vector search asks the Whittaker condition only of a finite
generating set S of the acting subalgebra (4m+1 operators, see
``_generating_set``): psi kills every bracket inside the subalgebra, so the
operators acting on a vector by their psi-values form a subalgebra, and S
generates all of it.  The S-rows therefore have exactly the kernel of the
rows for every operator.  Any witness is still re-verified against every
operator up to index 2m + 2n + weight_bound + 2.

Degree bookkeeping uses exponent vectors written highest index first, so a
block of length l reads (e_{l-1}, ..., e_1, e_0).  The weight of such a
vector is sum_k (l - k) * e_k; the reverse lexicographic order compares
entries from e_0 upward; and the principal order on pairs compares total
weight first, then the second block, then the first, all reverse
lexicographically.  It is stated once, as the sort key ``_principal_key``;
``principal_compare`` compares by it and ``vector_degree`` is its maximum.
This is exactly the order in which the degree-drop checks predict leading
terms.

The degree-drop checks and the twist rest on two facts about a datum, each
stated once.  ``_require_top_pair`` demands psi(I_{m+n-1}) and
psi(J_{m+n-1}) nonzero.  ``WhittakerDatum.unnormalized`` lists the L/H
values at index m+n and above: the HL checks require there are none, and
``solve_twist`` clears them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .algebra import (
    Element,
    Generator,
    H,
    I,
    IJTranslation,
    J,
    L,
    gen_key,
    gen_str,
    parse_gen,
)
from .linalg import Matrix, SparseEchelon, matrix_nullspace, matrix_solve
from .pbw import MONOMIAL_ONE, PBWMonomial, _LeftAction, display_order
from .scalars import (
    ONE,
    ZERO,
    LinearCombination,
    Scalar,
    accumulate,
    read_scalar,
)

__all__ = [
    "DerivedAlgebraViolation",
    "OutOfSubalgebra",
    "LengthMismatch",
    "UnsupportedMonomial",
    "ZeroVector",
    "PreconditionViolated",
    "WhittakerDatum",
    "validate_whittaker",
    "ModuleVector",
    "whittaker_act",
    "annihilation_bound",
    "weight",
    "reverse_lex_compare",
    "principal_compare",
    "epsilon",
    "vector_degree",
    "DegreeReport",
    "check_degree_reduction",
    "SearchReport",
    "singular_vector_search",
    "twist_matrices",
    "TwistResult",
    "solve_twist",
    "Psi14Result",
    "psi14_matrix",
    "example_psi14_witness",
]


class DerivedAlgebraViolation(ValueError):
    """A value was assigned at a position forced to vanish."""


class OutOfSubalgebra(ValueError):
    """A value was assigned to a generator outside the acting subalgebra."""


class LengthMismatch(ValueError):
    """Exponent vectors of different lengths were compared."""


class UnsupportedMonomial(ValueError):
    """A vector strays outside the requested generator block."""


class ZeroVector(ValueError):
    """The zero vector has no degree."""


class PreconditionViolated(ValueError):
    """An operation was invoked outside its stated hypotheses."""


class WhittakerDatum:
    """Validated Whittaker values; unassigned positions default to zero."""

    __slots__ = ("m", "n", "values", "thresholds")

    def __init__(self, m: int, n: int, values: Dict[Generator, Scalar]):
        self.m = m
        self.n = n
        self.values = {g: c for g, c in values.items() if c}
        # The acting subalgebra holds a family's generators from this index on.
        self.thresholds = {"L": m, "H": m, "I": n, "J": n}

    def in_subalgebra(self, g: Generator) -> bool:
        return g.is_central or g.index >= self.thresholds[g.family]

    def support(self) -> List[Generator]:
        """The 4m+1 indexed generators psi may be nonzero on; every other
        indexed one of the subalgebra is a bracket (see ``_generating_set``)."""
        m, n = self.m, self.n
        return (
            [L(p) for p in range(m, 2 * m + 1)]
            + [H(p) for p in range(m, 2 * m)]
            + [I(p) for p in range(n, n + m)]
            + [J(p) for p in range(n, n + m)]
        )

    def is_free(self, g: Generator) -> bool:
        return not self.in_subalgebra(g)

    def unnormalized(self) -> List[Generator]:
        """The L/H positions of the support at index m+n and above whose
        value is nonzero; the twist (``solve_twist``) clears them all."""
        return [
            g
            for g in self.support()
            if g.family in ("L", "H") and g.index >= self.m + self.n and self.psi(g)
        ]

    def psi(self, g: Generator) -> Scalar:
        """Stored value, defaulting to zero for anything unassigned."""
        return self.values.get(g, ZERO)

    def psi_element(self, element: Element) -> Scalar:
        total = ZERO
        for g, coeff in element.terms.items():
            total = total + coeff * self.psi(g)
        return total

    def to_json(self) -> dict:
        indexed = {}
        centrals = {}
        for g in sorted(self.values, key=gen_key):
            if g.is_central:
                centrals[gen_str(g)] = str(self.values[g])
            else:
                indexed[gen_str(g)] = str(self.values[g])
        return {"m": self.m, "n": self.n, "values": indexed, "centrals": centrals}

    def __repr__(self) -> str:
        body = ", ".join(
            f"{gen_str(g)}={c}" for g, c in sorted(
                self.values.items(), key=lambda item: gen_key(item[0])
            )
        )
        return f"WhittakerDatum(m={self.m}, n={self.n}, {body})"


RawValues = Mapping[Union[Generator, str], Union[Scalar, str]]


def validate_whittaker(values: RawValues, m: int, n: int) -> WhittakerDatum:
    """Check and normalize raw Whittaker values.

    Accepts generator objects or their string names as keys, and scalars
    or scalar strings as values.  Rejects values outside the acting
    subalgebra and nonzero values at indexed generators off the support.
    """
    if m < 1:
        raise PreconditionViolated("m must be a positive integer")
    if n < 0:
        raise PreconditionViolated("n must be non-negative")
    given: Dict[Generator, Scalar] = {}
    for key, raw in values.items():
        g = parse_gen(key) if isinstance(key, str) else key
        coeff = read_scalar(raw, f"the value of {gen_str(g)}")
        # Two spellings of one generator are refused even when one is zero.
        if g in given:
            raise ValueError(f"duplicate value for {gen_str(g)}")
        given[g] = coeff
    datum = WhittakerDatum(m, n, given)
    support = set(datum.support())
    for g in datum.values:
        if not datum.in_subalgebra(g):
            raise OutOfSubalgebra(
                f"{gen_str(g)} lies outside the acting subalgebra for "
                f"(m, n) = ({m}, {n})"
            )
        if not g.is_central and g not in support:
            raise DerivedAlgebraViolation(
                f"psi({gen_str(g)}) must vanish for (m, n) = ({m}, {n})"
            )
    return datum


class ModuleVector(LinearCombination):
    """Element of the induced module: free PBW monomials applied to the
    cyclic vector, with scalar coefficients."""

    __slots__ = ()

    @staticmethod
    def cyclic(coeff: Scalar = ONE) -> "ModuleVector":
        return ModuleVector({MONOMIAL_ONE: coeff})

    def __str__(self) -> str:
        return " + ".join(f"({c})*{m}.w" for m, c in self.to_json().items()) or "0"

    def to_json(self) -> Dict[str, str]:
        return {str(m): str(self.terms[m]) for m in display_order(self.terms)}

    @staticmethod
    def from_json(data: Mapping[str, Union[str, Scalar]]) -> "ModuleVector":
        """Read the ``to_json`` form; two spellings of one monomial are
        refused, even when one of them carries a zero."""
        terms: Dict[PBWMonomial, Scalar] = {}
        for key, value in data.items():
            mono = PBWMonomial.parse(key)
            if mono in terms:
                raise ValueError(f"duplicate coefficient for monomial {mono}")
            terms[mono] = read_scalar(value, f"the coefficient of {key}")
        return ModuleVector(terms)


def whittaker_act(
    datum: WhittakerDatum, g: Generator, v: ModuleVector
) -> ModuleVector:
    """Action of a generator on a module vector (one memo per call)."""
    return _LeftAction(datum).act(g, v)


def annihilation_bound(datum: WhittakerDatum, v: ModuleVector) -> int:
    """An index N such that every generator of index above N kills ``v``.

    Any surviving term of a high-index action ends in an evaluated factor
    whose index is the acting index plus a sum of factor indices of the
    monomial; only negative factor indices can pull it down, and it must
    land at or below the top index of the support, max(2m, m+n-1), to
    survive (central contributions need the total to reach zero, which is
    even lower).  The bound below makes both impossible.
    """
    base = max(g.index for g in datum.support())
    best = base
    for mono in v.terms:
        drop = sum(
            -g.index * exp
            for g, exp in mono.factors
            if g.index is not None and g.index < 0
        )
        best = max(best, base + drop)
    return best


# -- exponent-vector order machinery ----------------------------------------

ExponentVector = Tuple[int, ...]


def weight(vec: ExponentVector) -> int:
    """Weighted degree: the entry for index k counts with multiplicity l-k.

    Entries are written highest index first, so position p from the left
    carries multiplicity p+1.
    """
    if any(entry < 0 for entry in vec):
        raise ValueError("exponent entries must be non-negative")
    return sum((position + 1) * entry for position, entry in enumerate(vec))


def _sign(a, b) -> int:
    return (a > b) - (a < b)


def reverse_lex_compare(a: ExponentVector, b: ExponentVector) -> int:
    """-1, 0, or +1; the entry at index 0 (rightmost) decides first."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    return _sign(tuple(reversed(a)), tuple(reversed(b)))


PairOfVectors = Tuple[ExponentVector, ExponentVector]


def _principal_key(pair: PairOfVectors) -> Tuple[int, ExponentVector, ExponentVector]:
    """The principal order as a sort key, for pairs whose blocks share one
    length: total weight, then the second block reverse lexicographically,
    then the first."""
    first, second = pair
    total = weight(first) + weight(second)
    return total, tuple(reversed(second)), tuple(reversed(first))


def principal_compare(p1: PairOfVectors, p2: PairOfVectors) -> int:
    """Order on pairs (first, second): total weight, then the second block
    reverse lexicographically, then the first."""
    (j1, i1), (j2, i2) = p1, p2
    if len(j1) != len(i1) or len(j2) != len(i2) or len(j1) != len(j2):
        raise LengthMismatch("pair blocks must share one length")
    return _sign(_principal_key(p1), _principal_key(p2))


def epsilon(length: int, k: int) -> ExponentVector:
    """Unit vector with a single 1 at index k (position k from the right)."""
    if not 0 <= k < length:
        raise ValueError("index out of range")
    out = [0] * length
    out[length - 1 - k] = 1
    return tuple(out)


def _vec_sub(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    out = tuple(x - y for x, y in zip(a, b))
    if any(entry < 0 for entry in out):
        raise ValueError("exponent subtraction went negative")
    return out


_BLOCKS = {"JI": ("J", "I"), "HL": ("H", "L")}


def _block_families(block: str) -> Tuple[str, str]:
    """The two families of a block, the first one first."""
    if block not in _BLOCKS:
        raise ValueError(f"unknown block {block!r}")
    return _BLOCKS[block]


def block_length(datum: WhittakerDatum, block: str) -> int:
    """A block's generators have indices 0..length-1, below the subalgebra
    threshold of its families: n for JI, m for HL."""
    return datum.thresholds[_block_families(block)[0]]


def vector_degree(
    v: ModuleVector, block: str, block_length: int
) -> PairOfVectors:
    """Principal-order maximum of the support, as a pair of exponent vectors.

    The vector must be supported on the requested two-family block with
    indices in [0, block_length); the first component of the result collects
    the first family's exponents, the second the second family's.
    """
    fam_first, fam_second = _block_families(block)
    if not v:
        raise ZeroVector("the zero vector has no degree")

    def exponents(mono: PBWMonomial) -> PairOfVectors:
        first = [0] * block_length
        second = [0] * block_length
        for g, exp in mono.factors:
            if g.index is None or not 0 <= g.index < block_length:
                raise UnsupportedMonomial(f"{mono} strays outside the block")
            if g.family == fam_first:
                first[block_length - 1 - g.index] = exp
            elif g.family == fam_second:
                second[block_length - 1 - g.index] = exp
            else:
                raise UnsupportedMonomial(f"{mono} strays outside the block")
        return tuple(first), tuple(second)

    return max(map(exponents, v.terms), key=_principal_key)


# -- degree-drop checks -------------------------------------------------------

# Per block, its two cases: the first block of the degree nonzero, then
# zero, each with the families of the operators it applies.
_DROP_CASES = {
    "JI": (("JI_j_nonzero", (H,)), ("JI_i_only", (H, L))),
    "HL": (("HL_h_nonzero", (I,)), ("HL_l_only", (I, J))),
}


@dataclass
class DegreeReport:
    case: str
    degree_before: PairOfVectors
    predicted: PairOfVectors
    operators: List[str]
    degrees_after: List[Optional[PairOfVectors]]
    branch: Optional[str]
    ok: bool

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "degree_before": [list(x) for x in self.degree_before],
            "predicted": [list(x) for x in self.predicted],
            "operators": self.operators,
            "degrees_after": [
                None if d is None else [list(x) for x in d]
                for d in self.degrees_after
            ],
            "branch": self.branch,
            "ok": self.ok,
        }


def _require_top_pair(datum: WhittakerDatum) -> int:
    """The top index m+n-1, once psi(I) and psi(J) are checked not to
    vanish there."""
    top = datum.m + datum.n - 1
    if not datum.psi(I(top)) or not datum.psi(J(top)):
        raise PreconditionViolated(
            f"psi(I[{top}]) and psi(J[{top}]) must both be nonzero"
        )
    return top


def _require_degree_hypotheses(datum: WhittakerDatum, block: str) -> int:
    """Check the degree-drop hypotheses and return the top index."""
    if (datum.m + datum.n) % 2 != 0:
        raise PreconditionViolated("m and n must have the same parity")
    top = _require_top_pair(datum)
    # The leading-term bookkeeping in the HL block assumes every L/H value
    # at index m+n and above has been normalized away.
    unnormalized = datum.unnormalized() if block == "HL" else []
    if unnormalized:
        raise PreconditionViolated(f"psi({gen_str(unnormalized[0])}) must vanish")
    return top


def check_degree_reduction(
    datum: WhittakerDatum, v: ModuleVector, block: str
) -> DegreeReport:
    """Apply the operators the degree-drop statement prescribes and compare.

    ``block`` is "JI" (J/I exponents) or "HL" (H/L exponents); the case is
    read off the vector, by whether the first block of its degree is
    nonzero.  With two candidate operators at least one must achieve the
    predicted degree, and ``branch`` names the first that does.
    """
    length = block_length(datum, block)
    if length < 1:
        raise PreconditionViolated(f"the {block} block is empty")
    top = _require_degree_hypotheses(datum, block)
    degree = vector_degree(v, block, length)
    first, second = degree
    if not any(first) and not any(second):
        raise PreconditionViolated("vector is a multiple of the cyclic vector")

    first_case, second_case = _DROP_CASES[block]
    if any(first):
        # Lower the entry of the lowest nonzero index k of the first block.
        case, families = first_case
        k = min(k for k in range(length) if first[-1 - k])
        predicted = (_vec_sub(first, epsilon(length, k)), second)
    else:
        # Lower the entry of the highest nonzero index k of the second one.
        case, families = second_case
        k = max(k for k in range(length) if second[-1 - k])
        predicted = (first, _vec_sub(second, epsilon(length, k)))
    ops = [family(top - k) for family in families]
    action = _LeftAction(datum)
    degrees_after: List[Optional[PairOfVectors]] = []
    branch = None
    for op in ops:
        result = action.shifted(op, v)
        after = vector_degree(result, block, length) if result else None
        degrees_after.append(after)
        if branch is None and after == predicted:
            branch = gen_str(op)
    return DegreeReport(
        case=case,
        degree_before=degree,
        predicted=predicted,
        operators=[gen_str(op) for op in ops],
        degrees_after=degrees_after,
        branch=branch if len(ops) > 1 else None,
        ok=branch is not None,
    )


# -- singular-vector search ---------------------------------------------------


def _free_generators(
    datum: WhittakerDatum, weight_bound: int
) -> List[Tuple[Generator, int]]:
    out: List[Tuple[Generator, int]] = []
    for fam in ("J", "I", "H", "L"):
        threshold = datum.thresholds[fam]
        for wt in range(1, weight_bound + 1):
            out.append((Generator(fam, threshold - wt), wt))
    out.sort(key=lambda pair: gen_key(pair[0]))
    return out


def _monomials_up_to_weight(
    datum: WhittakerDatum, weight_bound: int
) -> List[Tuple[PBWMonomial, int]]:
    """All nonempty free monomials of enumeration weight up to the bound.

    One exponent assignment per leaf of the enumeration, so every monomial
    appears exactly once.  An explicit stack, not a recursive closure, so no
    reference cycle outlives the call.
    """
    gens = _free_generators(datum, weight_bound)
    found: List[Tuple[PBWMonomial, int]] = []
    stack = [(0, weight_bound, ())]
    while stack:
        position, budget, factors = stack.pop()
        if position == len(gens):
            if factors:
                found.append((PBWMonomial(factors), weight_bound - budget))
            continue
        g, wt = gens[position]
        for exp in range(budget // wt + 1):
            stack.append(
                (position + 1, budget - wt * exp, factors + ((g, exp),) if exp else factors)
            )
    return found


@dataclass
class SearchReport:
    found: bool
    witness: Optional[ModuleVector]
    weight_bound: int
    basis_size: int
    operators: List[str]


def _search_operators(
    datum: WhittakerDatum, index_max: int
) -> List[Generator]:
    return [
        Generator(fam, p)
        for fam in ("L", "H", "I", "J")
        for p in range(datum.thresholds[fam], index_max + 1)
    ]


def _generating_set(datum: WhittakerDatum) -> List[Generator]:
    """The support of psi, ``datum.support()``: 4m+1 operators whose rows
    have exactly the kernel of the rows of the whole subalgebra b.

    ``validate_whittaker`` enforces psi([b, b]) = 0, so if x and y both act
    on v by their psi-values, then [x, y] . v = 0 = psi([x, y]) v.  And the
    set generates b, by induction on the index: [L_m, L_{k-m}] = (k-2m) L_k
    gives every L_k with k >= 2m+1, [L_m, H_{k-m}] = (k-m) H_k every H_k
    with k >= 2m, and [H_m, I_{k-m}] = I_k, [H_m, J_{k-m}] = -J_k every I_k
    and J_k with k >= m+n; the centrals act by psi on the whole module.
    """
    return datum.support()


def _is_whittaker_vector(
    datum: WhittakerDatum, v: ModuleVector, index_max: int
) -> bool:
    """Whether every subalgebra operator up to ``index_max`` acts on ``v``
    by its psi-value; the operators share one memo."""
    action = _LeftAction(datum)
    return not any(
        action.shifted(op, v) for op in _search_operators(datum, index_max)
    )


def singular_vector_search(
    datum: WhittakerDatum, weight_bound: int
) -> SearchReport:
    """Search for a Whittaker vector independent of the cyclic vector.

    Enumerates the finite basis of free monomials up to the weight bound,
    assembles the exact linear system demanding that every operator of the
    generating set (``_generating_set``) act by its psi-value, and extracts
    the kernel vector at the first free column of the reduced system.  The
    system has the kernel, hence the reduced form and kernel vector, of the
    one for every subalgebra operator.  The returned witness, if any, is
    normalized so its first coefficient in column order is 1 and contains
    no component along the cyclic vector; it is re-verified, independently
    of the generating-set argument, against every operator up to index
    2m + 2n + weight_bound + 2.  ``weight_bound`` must be a positive int.
    """
    is_int = isinstance(weight_bound, int) and not isinstance(weight_bound, bool)
    if not is_int or weight_bound <= 0:
        raise ValueError(
            f"weight_bound must be a positive integer, not {weight_bound!r}"
        )
    columns = sorted(
        _monomials_up_to_weight(datum, weight_bound),
        key=lambda pair: (pair[1], str(pair[0])),
    )
    operators = _generating_set(datum)

    # Rows are indexed by (operator, output monomial); outputs always stay
    # within the enumerated weight range plus the empty monomial.  All
    # columns share one memo: column x u needs the images of its suffix u,
    # which an earlier column computed.  The memo is dropped before
    # elimination, so it and the echelon are never alive together.
    action = _LeftAction(datum)
    shifts = [(op, -datum.psi(op)) for op in operators]
    rows: Dict[Tuple[Generator, PBWMonomial], Dict[int, Scalar]] = {}
    for col, (mono, _) in enumerate(columns):
        for op, shift in shifts:
            shifted = dict(action.image(op, mono))
            accumulate(shifted, mono, shift)
            for out_mono, coeff in shifted.items():
                rows.setdefault((op, out_mono), {})[col] = coeff
    del action

    # The reduced echelon form, hence the witness, does not depend on the
    # order rows go in, but descending lead (the stable sort keeps ties in
    # first-seen order) leaves each new pivot in few stored rows.  Against
    # the (operator, output monomial) order it took the weight-7 searches
    # at (1,1), (2,2) and (3,1) from 2.89, 0.57 and 0.72 s to 0.55, 0.53
    # and 0.63 s (2-vCPU Xeon, psi(I_top) = psi(J_top) = 1); ascending lead
    # took 117 s at (1,1).
    echelon = SparseEchelon()
    for row in sorted(rows.values(), key=lambda row: -min(row)):
        echelon.insert(row)
    kernel = echelon.kernel_vector_at_first_free_column(len(columns))

    witness = None
    if kernel is not None:
        lead = min(kernel)
        scale = kernel[lead].inverse()
        witness = ModuleVector(
            {columns[col][0]: coeff * scale for col, coeff in kernel.items()}
        )
        index_max = 2 * datum.m + 2 * datum.n + weight_bound + 2
        if not _is_whittaker_vector(datum, witness, index_max):
            raise AssertionError(
                "kernel vector failed re-verification; this is a bug"
            )

    return SearchReport(
        found=witness is not None,
        witness=witness,
        weight_bound=weight_bound,
        basis_size=len(columns),
        operators=[gen_str(op) for op in operators],
    )


# -- the normalizing twist ----------------------------------------------------


def twist_matrices(datum: WhittakerDatum) -> Tuple[Matrix, Matrix, Matrix, Matrix]:
    """The four upper-triangular blocks of the normalization system.

    Size is (m-n+1) square; entry (t, s) with s >= t reads, with
    q = m+n-1-(s-t) and alpha_p, beta_p the psi-values of I_p, J_p,

        A: (m+n+1+t+s) * alpha_q      B: (m+n+1+t+s) * beta_q
        C: -alpha_q                   D: beta_q

    and alpha/beta vanish off the support, so below index n (covers n = 0).
    """
    m, n = datum.m, datum.n
    if m < n:
        raise PreconditionViolated("twist normalization requires m >= n")
    top = _require_top_pair(datum)
    size = m - n + 1

    def build(entry) -> Matrix:
        return Matrix(
            [
                [entry(t, s, top - (s - t)) if s >= t else ZERO for s in range(size)]
                for t in range(size)
            ]
        )

    mat_a = build(lambda t, s, q: Scalar(m + n + 1 + t + s) * datum.psi(I(q)))
    mat_b = build(lambda t, s, q: Scalar(m + n + 1 + t + s) * datum.psi(J(q)))
    mat_c = build(lambda t, s, q: -datum.psi(I(q)))
    mat_d = build(lambda t, s, q: datum.psi(J(q)))
    return mat_a, mat_b, mat_c, mat_d


@dataclass
class TwistResult:
    a: List[Scalar]
    b: List[Scalar]
    translation: IJTranslation
    twisted: WhittakerDatum


def solve_twist(datum: WhittakerDatum) -> TwistResult:
    """Normalize the L/H values at index m+n and above to zero.

    Solves the block system for the translation coefficients, forms the
    element x = sum_s (-a_s I[-s-1] - b_s J[-s-1]), and rebuilds the datum
    through the induced automorphism y -> y + [x, y].  The I/J and central
    values are untouched; the resulting datum satisfies the normalization
    by construction, which is asserted before returning.
    """
    m, n = datum.m, datum.n
    mat_a, mat_b, mat_c, mat_d = twist_matrices(datum)
    size = m - n + 1
    block = Matrix(
        [
            list(mat_a.rows[t]) + list(mat_b.rows[t])
            for t in range(size)
        ]
        + [
            list(mat_c.rows[t]) + list(mat_d.rows[t])
            for t in range(size)
        ]
    )
    rhs = [datum.psi(L(m + n + t)) for t in range(size)] + [
        datum.psi(H(m + n + t)) for t in range(size)
    ]
    solution = matrix_solve(block, rhs)
    coeff_a = solution[:size]
    coeff_b = solution[size:]

    element = Element.combine(
        (-coeffs[s], Element.single(family(-s - 1)))
        for s in range(size)
        for family, coeffs in ((I, coeff_a), (J, coeff_b))
    )
    translation = IJTranslation(element)

    twisted_values: Dict[Generator, Scalar] = {}
    for g, coeff in datum.values.items():
        if g.is_central or g.family in ("I", "J"):
            twisted_values[g] = coeff
    positions = [g for g in datum.support() if g.family in ("L", "H")]
    for g in positions:
        value = datum.psi_element(translation.apply(g))
        if value:
            twisted_values[g] = value
    twisted = validate_whittaker(twisted_values, m, n)

    uncleared = twisted.unnormalized()
    if uncleared:
        family = uncleared[0].family
        raise AssertionError(f"twist failed to clear an {family} value; bug")
    return TwistResult(
        a=coeff_a, b=coeff_b, translation=translation, twisted=twisted
    )


# -- the five-parameter witness family at (m, n) = (1, 4) ----------------------


@dataclass
class Psi14Result:
    matrix: Matrix
    kernel: List[List[Scalar]]
    witness: ModuleVector
    datum: WhittakerDatum

    @property
    def coefficients(self) -> List[Scalar]:
        """The witness's coefficients: the first kernel vector."""
        return self.kernel[0]


def psi14_matrix(alpha: Scalar, beta: Scalar) -> Matrix:
    """Constraint matrix for the five-parameter candidate at (m, n) = (1, 4).

    Columns weight the candidate (a1 I[2] + a2 J[2] + a3 I[3]^2 + a4 J[3]^2
    + a5 J[3] I[3]) . w; rows are the H[2], H[1] and L[1] constraints split
    over the cyclic, I[3] and J[3] output components.
    """
    two_alpha = Scalar(2) * alpha
    four_alpha = Scalar(4) * alpha
    two_beta = Scalar(2) * beta
    four_beta = Scalar(4) * beta
    return Matrix(
        [
            [alpha, -beta, ZERO, ZERO, ZERO],
            [ONE, ZERO, two_alpha, ZERO, -beta],
            [ONE, ZERO, four_alpha, ZERO, two_beta],
            [ZERO, -ONE, ZERO, -two_beta, alpha],
            [ZERO, ONE, ZERO, four_beta, two_alpha],
        ]
    )


def example_psi14_witness(alpha: Scalar, beta: Scalar) -> Psi14Result:
    """Build the singular 5x5 system at (m, n) = (1, 4) and verify a witness.

    Requires alpha * beta nonzero.  The kernel of the matrix supplies the
    coefficients; the resulting vector is checked to be a genuine Whittaker
    vector by applying every shifted generator of the acting subalgebra up
    to a safely large index.
    """
    if not alpha or not beta:
        raise PreconditionViolated("alpha and beta must both be nonzero")
    datum = validate_whittaker({I(4): alpha, J(4): beta}, 1, 4)
    matrix = psi14_matrix(alpha, beta)
    kernel = matrix_nullspace(matrix)
    if not kernel:
        raise AssertionError("the candidate matrix was unexpectedly injective")
    a1, a2, a3, a4, a5 = kernel[0]
    witness = ModuleVector(
        {
            PBWMonomial(((I(2), 1),)): a1,
            PBWMonomial(((J(2), 1),)): a2,
            PBWMonomial(((I(3), 2),)): a3,
            PBWMonomial(((J(3), 2),)): a4,
            PBWMonomial(((J(3), 1), (I(3), 1))): a5,
        }
    )
    if not _is_whittaker_vector(datum, witness, 12):
        raise AssertionError("the kernel vector is not a Whittaker vector")
    return Psi14Result(matrix, kernel, witness, datum)
