"""Exact symbolic computations in the centrally extended planar Galilean
conformal algebra: the bracket table, PBW normal ordering, rank-one
polynomial modules, Whittaker modules with their degree machinery and
singular-vector search, and tensor-product probes.  All arithmetic is over
Gaussian rationals; every check is exact."""

from .scalars import Scalar, sc, scalar_pow, parse_scalar, ZeroToNegativePower
from .poly import Poly, X, Y, P_ONE, P_ZERO
from .linalg import (
    Matrix,
    SingularMatrix,
    determinant,
    matrix_inverse,
    matrix_nullspace,
    matrix_solve,
)
from .algebra import (
    C1,
    C2,
    C3,
    Element,
    Generator,
    H,
    I,
    IJTranslation,
    InvalidTranslation,
    J,
    L,
    bracket,
    bracket_basis,
    grade,
    verify_jacobi,
    verify_structure,
)
from .pbw import EnvelopingElement, PBWMonomial, multiply, straighten
from .omega import (
    InvalidSpec,
    OmegaSpec,
    omega_act,
    submodule_closure_probe,
    verify_omega_axioms,
)
from .whittaker import (
    ModuleVector,
    WhittakerDatum,
    annihilation_bound,
    check_degree_reduction,
    example_psi14_witness,
    principal_compare,
    psi14_matrix,
    reverse_lex_compare,
    singular_vector_search,
    solve_twist,
    twist_matrices,
    validate_whittaker,
    vector_degree,
    weight,
    whittaker_act,
)
from .tensor import (
    TensorVector,
    TrivialModule,
    WhittakerRestrictedModule,
    j_nilpotency_witness,
    lift_restricted,
    tensor_act,
    tensor_closure_probe,
    vandermonde_extract,
)

__version__ = "0.1.0"
