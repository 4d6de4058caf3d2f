"""Numerical toolkit for Reeb dynamics on the tight 3-sphere, modeled as
Hamiltonian dynamics on star-shaped energy levels in R^4.

Subpackages cover the contact-geometric core (forms, Reeb field, frames),
flow integration with variational equations, periodic-orbit search,
Conley-Zehnder indices by two independent routes, linking and self-linking
numbers, spanning-disk analysis (transversality, characteristic
foliations, return maps), and the binding-condition checker built on top
of all of it.
"""

import time

_IMPORT_STARTED = time.perf_counter()  # cli.IMPORT_SECONDS counts from here

__version__ = "0.1.0"

from .contact import StarForm, XiFrame, reeb_vector, xi_frame
from .errors import ReebAtlasError
from .flow import FlowResult, integrate_flow
from .orbits import OrbitDatabase, ReebOrbit, find_orbits, refine_orbit

__all__ = [
    "__version__",
    "StarForm",
    "XiFrame",
    "reeb_vector",
    "xi_frame",
    "ReebAtlasError",
    "FlowResult",
    "integrate_flow",
    "ReebOrbit",
    "OrbitDatabase",
    "find_orbits",
    "refine_orbit",
]
