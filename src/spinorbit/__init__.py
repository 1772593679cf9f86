"""Certification and construction of p:q spin-orbit resonances.

The package checks, for Solar-system bodies locked in a 1:1 or 3:2
spin-orbit resonance, four explicit inequality conditions that guarantee
the existence of a resonant periodic rotation in the dissipative
spin-orbit model, and constructs the orbit itself by a spectral
fixed-point iteration combined with a one-dimensional bracketed root
search for the resonance phase.  A fixed-step Runge-Kutta integrator
serves as an independent cross-check.

Only the numpy-free ``catalog`` and ``certification`` names are re-exported
here; the numpy layer is imported by module (``spinorbit.kepler``,
``spinorbit.potential``, ``spinorbit.solver``, ``spinorbit.dynamics``).
"""

from .catalog import (
    Body,
    CatalogError,
    ResonanceParams,
    bundled_catalog,
    bundled_catalog_path,
    load_catalog,
    nu_of_e,
    oblateness,
)
from .certification import (
    GREEN_ETA_HAT_MAX,
    CertificationReport,
    Conditions,
    certify,
    conditions,
)

__version__ = "0.1.0"
