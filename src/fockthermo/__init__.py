"""Temperature estimation with a single dissipative bosonic mode.

Simulates number, coherent, squeezed-vacuum, and thermal probes under a
thermal-contact master equation on a truncated Fock space, computes
classical and quantum Fisher information for the bath temperature, and
evaluates the matching closed-form short-time expressions.
"""

__version__ = "0.4.0"

from .bath import BathParams, RateModel, Rates, rates, thermal_occupation, thermal_occupation_dT
from .bounds import (
    bound_coherent,
    bound_fock_linear,
    bound_fock_quadratic,
    bound_squeezed,
    scaling_table,
)
from .dynamics import attenuate, evolve, mean_photon_analytic, short_time_populations
from .errors import FockThermoError
from .fisher import (
    FisherMethod,
    QfiRecord,
    cfi_number_basis,
    d_dT_state,
    fisher_record,
    qfi_curve,
    qfi_point,
)
from .probes import ProbeKind, ProbeSpec, default_dim, make_state
from .sweep import SweepAxis, SweepMethod, SweepSpec, fit_scaling_exponent, run_sweep

__all__ = [
    "__version__",
    "BathParams",
    "RateModel",
    "Rates",
    "rates",
    "thermal_occupation",
    "thermal_occupation_dT",
    "bound_coherent",
    "bound_fock_linear",
    "bound_fock_quadratic",
    "bound_squeezed",
    "scaling_table",
    "attenuate",
    "evolve",
    "mean_photon_analytic",
    "short_time_populations",
    "FockThermoError",
    "FisherMethod",
    "QfiRecord",
    "cfi_number_basis",
    "d_dT_state",
    "fisher_record",
    "qfi_curve",
    "qfi_point",
    "ProbeKind",
    "ProbeSpec",
    "default_dim",
    "make_state",
    "SweepAxis",
    "SweepMethod",
    "SweepSpec",
    "fit_scaling_exponent",
    "run_sweep",
]
