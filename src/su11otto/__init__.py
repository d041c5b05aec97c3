"""Two-mode squeezed Otto engine: parameter maps, cycle energetics,
phase-sensitivity metrology, a truncated-Fock verification oracle and a
superconducting transmission-line realization."""

from .core import (
    EngineConfig,
    InterferometerAngles,
    ProtocolEndpoints,
    angles_from,
    chi_from,
    chi_max,
    n_out,
    phi_max,
    theta_from,
)
from .cycle import (
    CycleEnergies,
    CycleReport,
    carnot,
    efficiency,
    otto_ideal,
    stage_energies,
    temperature_ratio_bound,
    works_and_heats,
)
from .metrology import (
    SensitivityPoint,
    SnlSolution,
    SupersensitivityRange,
    delta_phi,
    minimize_sensitivity,
    sensitivity,
    snl,
    solve_zeta_snl,
    supersensitivity_range,
    variance_h,
    variance_n,
)

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "InterferometerAngles",
    "ProtocolEndpoints",
    "angles_from",
    "chi_from",
    "chi_max",
    "n_out",
    "phi_max",
    "theta_from",
    "CycleEnergies",
    "CycleReport",
    "carnot",
    "efficiency",
    "otto_ideal",
    "stage_energies",
    "temperature_ratio_bound",
    "works_and_heats",
    "SensitivityPoint",
    "SnlSolution",
    "SupersensitivityRange",
    "delta_phi",
    "minimize_sensitivity",
    "sensitivity",
    "snl",
    "solve_zeta_snl",
    "supersensitivity_range",
    "variance_h",
    "variance_n",
    "__version__",
]
