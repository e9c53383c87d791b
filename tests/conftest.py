import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from arrlab.arrangement import builtin, decone, default_decone_index
from arrlab.cells import bounded_complex, build_complex, corner_automorphisms
from arrlab.falk import solve

from oracles import unreduced_solve


@pytest.fixture(scope="session")
def icosi():
    return builtin("icosidodecahedral")


@pytest.fixture(scope="session")
def lid(icosi):
    """The deconing of the icosidodecahedral arrangement at its default
    (first edge) plane."""
    return decone(icosi, default_decone_index(icosi))


@pytest.fixture(scope="session")
def lid_complex(lid):
    return build_complex(lid)


@pytest.fixture(scope="session")
def gamma_lid(lid_complex):
    return bounded_complex(lid_complex)


# falk.solve on the section: the weight LP over the orbits of its D5
# symmetry, as the command line solves it


@pytest.fixture(scope="session")
def lid_solution(gamma_lid):
    return solve(gamma_lid)


@pytest.fixture(scope="session")
def lid_solution_equality(gamma_lid):
    return solve(gamma_lid, equality_asphericity=True)


@pytest.fixture(scope="session")
def lid_solution_equality_min(gamma_lid):
    return solve(gamma_lid, equality_asphericity=True, minimize_total=True)


# the same LPs over all 150 corners, solved as built by the oracle


@pytest.fixture(scope="session")
def lid_unreduced(gamma_lid):
    return unreduced_solve(gamma_lid)


@pytest.fixture(scope="session")
def lid_unreduced_equality(gamma_lid):
    return unreduced_solve(gamma_lid, equality_asphericity=True)


@pytest.fixture(scope="session")
def lid_unreduced_equality_min(gamma_lid):
    return unreduced_solve(gamma_lid, equality_asphericity=True,
                           minimize_total=True)


@pytest.fixture(scope="session")
def lid_group(gamma_lid):
    """The corner permutations of the section's D5 symmetry."""
    return corner_automorphisms(gamma_lid)
