"""Quaternionic level shifts for bound states.

Correction series for a constant coupling j*alpha*W on top of a complex
Hamiltonian, its closed resummation, per-model spectral-gap ratios for
hydrogen / infinite well / harmonic oscillator, a relativistic-correction
comparison table, and a nonperturbative matrix-eigenvalue cross-check.
"""

from types import ModuleType as _ModuleType

from .quaternions import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    SymplecticPair,
    embed_block,
    embed_quaternion,
    from_symplectic,
    qmul,
    to_symplectic,
)
from .series import (
    PerturbationSpec,
    RadiusError,
    RadiusWarning,
    SeriesEvaluation,
    catalan,
    closed_form_limit,
    correction_coefficient_closed,
    correction_coefficient_recurrence,
    divergence_witness,
    is_convergent,
    normalized_coefficient,
    perturbed_energy,
)
from .models import (
    LevelSpec,
    ModelKind,
    SigmaCurveResult,
    alpha_max,
    gap_alpha_max,
    model_w,
    perturbation_spec,
    perturbed_gap,
    perturbed_level,
    sigma_alpha_limit,
    sigma_curve,
    sigma_limit,
    sigma_ratio,
    sigma_series,
    spectral_gap,
    unperturbed_energy,
)
from .relativistic import (
    ELECTRON_MASS_EV,
    RYDBERG_EV,
    RYDBERG_EV_PRECISE,
    ComparisonRow,
    ComparisonTable,
    comparison_table,
    hydrogen_levels_vs_potential,
    quaternionic_hydrogen_energy,
    relativistic_energy,
)

_ORACLE_EXPORTS = {
    "Grid1D",
    "DiscreteHamiltonian",
    "OracleError",
    "OracleReport",
    "MAX_EMBEDDED_SIZE",
    "compare_tolerance",
    "default_grid",
    "discretize",
    "oracle_compare",
}


def __getattr__(name):
    # numpy and scipy's LAPACK extension load only when the oracle is
    # touched, so the data-only commands start fast.
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + sorted(_ORACLE_EXPORTS)
