"""Quaternionic level shifts for bound states.

Correction series for a constant coupling j*alpha*W on top of a complex
Hamiltonian, its closed resummation, per-model spectral-gap ratios for
hydrogen / infinite well / harmonic oscillator, a relativistic-correction
comparison table, and a nonperturbative matrix-eigenvalue cross-check.
"""

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
    "EmbeddedOperator",
    "OracleError",
    "OracleReport",
    "MAX_DENSE_SIZE",
    "compare_tolerance",
    "default_grid",
    "discretize",
    "embed",
    "oracle_compare",
    "spectrum",
}


def __getattr__(name):
    # The eigensolver stack (scipy) loads only when the oracle is touched,
    # so the data-only commands start fast.
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "I",
    "J",
    "K",
    "ONE",
    "Quaternion",
    "SymplecticPair",
    "embed_block",
    "embed_quaternion",
    "from_symplectic",
    "qmul",
    "to_symplectic",
    "PerturbationSpec",
    "RadiusError",
    "RadiusWarning",
    "SeriesEvaluation",
    "catalan",
    "closed_form_limit",
    "correction_coefficient_closed",
    "correction_coefficient_recurrence",
    "divergence_witness",
    "is_convergent",
    "normalized_coefficient",
    "perturbed_energy",
    "LevelSpec",
    "ModelKind",
    "SigmaCurveResult",
    "alpha_max",
    "gap_alpha_max",
    "model_w",
    "perturbation_spec",
    "perturbed_gap",
    "perturbed_level",
    "sigma_alpha_limit",
    "sigma_curve",
    "sigma_limit",
    "sigma_ratio",
    "sigma_series",
    "spectral_gap",
    "unperturbed_energy",
    "ELECTRON_MASS_EV",
    "RYDBERG_EV",
    "RYDBERG_EV_PRECISE",
    "ComparisonRow",
    "ComparisonTable",
    "comparison_table",
    "hydrogen_levels_vs_potential",
    "quaternionic_hydrogen_energy",
    "relativistic_energy",
] + sorted(_ORACLE_EXPORTS)
