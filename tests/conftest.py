import numpy as np
import pytest

from reeb_atlas.contact import StarForm
from reeb_atlas.orbits import find_orbits, refine_orbit
from reeb_atlas.sections import _DiskIndex, builtin_disk

from oracles import NECK, dumbbell, dumbbell_census, round_sphere

R2SQ = np.sqrt(2.0)


@pytest.fixture(scope="session")
def ell():
    return StarForm.ellipsoid(1.0, R2SQ, name="irrational-ellipsoid")


@pytest.fixture(scope="session")
def round_form():
    return round_sphere()


@pytest.fixture(scope="session")
def gamma1(ell):
    return refine_orbit(ell, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)


@pytest.fixture(scope="session")
def gamma2(ell):
    return refine_orbit(ell, np.array([0.0, 0.0, R2SQ ** 0.5, 0.0]),
                        np.pi * R2SQ)


@pytest.fixture(scope="session")
def db10(ell):
    return find_orbits(ell, 10.0, n_seeds=256)


@pytest.fixture(scope="session")
def db20(ell):
    return find_orbits(ell, 20.0, n_seeds=256)


@pytest.fixture(scope="session")
def page(ell, gamma1):
    disk = builtin_disk(ell, gamma1, theta0=0.0, n_r=128, n_theta=256)
    disk.orbit_ref = 0
    return disk


@pytest.fixture(scope="session")
def page_index(ell, page):
    return _DiskIndex(ell, page)


@pytest.fixture(scope="session")
def near_ell_weighted():
    """Polynomial weight whose 2-jet along the planar circle matches the
    irrational ellipsoid, so the circle keeps period pi and index 3."""
    c = 1.0 - 1.0 / np.sqrt(2.0)
    mons = [
        ((0, 0, 0, 0), 1.0),
        ((0, 0, 2, 0), c), ((0, 0, 0, 2), c),
        ((0, 0, 4, 0), c * c), ((0, 0, 0, 4), c * c), ((0, 0, 2, 2), 2 * c * c),
    ]
    return StarForm.weighted(mons, name="near-ellipsoid")


@pytest.fixture(scope="session")
def perturbed_form(near_ell_weighted):
    """Degree-4 monomial perturbation at 1e-2 breaking the plane symmetry."""
    mons = [(tuple(e), float(c)) for e, c in
            zip(near_ell_weighted.exps, near_ell_weighted.coeffs)]
    mons.append(((3, 0, 1, 0), 1e-2))
    return StarForm.weighted(mons, name="perturbed-ellipsoid")


@pytest.fixture(scope="session")
def dumbbell_12():
    """The dumbbell at K = 1.2 and its census of four primes: the neck (index
    2), the two lobe orbits at q2 = +-0.303 and the z2-plane orbit."""
    return dumbbell_census(1.2, [
        NECK,
        ((-0.6743, 0.7441, 0.3028, 0.0), 3.1678),
        ((-0.7596, 0.6568, -0.3028, 0.0), 3.1678),
        ((0.0, 0.0, -1.4738, 0.1346), 5.0265)])


@pytest.fixture(scope="session")
def dumbbell_12_searched():
    """The dumbbell at K = 1.2 and the census that the search returns from 64
    seeds at tmax 5.5, in ``dumbbell_12``'s order: the neck, both lobes and
    the z2-plane orbit."""
    form = dumbbell(1.2)
    return form, find_orbits(form, 5.5, n_seeds=64)
