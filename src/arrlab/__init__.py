"""Exact arrangement laboratory.

Construction and analysis of central plane arrangements in R^3 and affine
line arrangements in the plane over exact ordered fields (Q and Q(sqrt5)):
intersection posets and Poincare polynomials, factorization search, the
bounded complex with vertex links, and the linear feasibility test of the
face and circuit weight conditions (FEASIBLE means only that these
conditions have a nonnegative solution, not that the cone is K(pi,1)).
"""

from .arrangement import (
    AffineLine,
    ArrangementError,
    CentralArrangement,
    CentralPlane,
    LineArrangement,
    ParseError,
    build_icosidodecahedral,
    builtin,
    cone,
    decone,
    default_decone_index,
    intersection_points,
    parse_arrangement,
    serialize_arrangement,
)
from .cells import (
    BoundedComplex,
    CellComplex,
    Corner,
    Link,
    bounded_complex,
    build_complex,
    corner_automorphisms,
    face_census,
    gamma_of,
    is_simplicial,
    link_census,
)
from .factored import (
    FactorSearch,
    Factorization,
    find_factorization,
    is_valid_factorization,
)
from .falk import (
    Circuit,
    ConstraintSystem,
    WeightError,
    build_constraints,
    enumerate_circuits,
    solve,
    verify,
)
from .lpcore import (
    FeasibilityResult,
    LPRow,
    StandardFormLP,
    check_certificate,
    solve_feasibility,
)
from .poset import (
    Flat,
    IntersectionPoset,
    IntPolynomial,
    intersection_poset,
    poincare_polynomial,
    splits_over_integers,
)
from .scalar import (
    GOLDEN,
    GoldenScalar,
    PHI,
    RATIONAL,
    SQRT5,
    format_scalar,
    parse_scalar,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
