"""Transdermal optical link-budget model for all-optical cochlear implants.

The package models the full optical chain from an external light source to
the photosensitive cochlear neurons: skin path gain, stochastic pointing
misalignment, beam collimation, fiber coupling, fiber propagation losses,
photon-flux conversion, photon-shot background noise, and the resulting
hearing/safety indicators. The average delivered photon flux is computable
by three mutually cross-validating routes (hypergeometric closed form,
adaptive quadrature, seeded Monte Carlo).

Module map
----------
specfun     special functions (numpy kernels) and the series/quadrature engines
channel     transdermal path gain and pointing-error geometry
optics      collimation, fiber coupling (closed form, oracle, kernel), fiber losses
photometry  flux chain, its three averaging routes, and every number's ``Estimate``
kpi         hearing / false-hearing / damage probabilities, exposure limits
stochastics seeded splittable random variates
config      unit-suffixed JSON ingestion into validated SI objects
sweep       parameter grids with deterministic CSV emission
figures     bundled figure presets with trend checks
validate    the oracle-equivalence validation suite
cli         the ``aoci`` command-line tool
"""

from aoci.config import ConfigError, LinkConfig
from aoci.kpi import KpiReport, kpi_report, p_damage, p_false_hearing, p_hearing
from aoci.photometry import (
    Estimate,
    derive_state,
    link_budget,
    mean_flux,
    mean_flux_mc,
    mean_flux_quadrature,
    mean_flux_series,
)
from aoci.specfun import (
    NumericalError,
    PrecisionLossError,
    QuadratureExhaustedError,
    SeriesConvergenceError,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "LinkConfig",
    "KpiReport",
    "kpi_report",
    "p_hearing",
    "p_false_hearing",
    "p_damage",
    "Estimate",
    "derive_state",
    "mean_flux",
    "mean_flux_series",
    "mean_flux_quadrature",
    "mean_flux_mc",
    "link_budget",
    "NumericalError",
    "SeriesConvergenceError",
    "PrecisionLossError",
    "QuadratureExhaustedError",
    "__version__",
]
