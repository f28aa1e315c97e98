"""Quaternionic level shifts for bound states.

Correction series for a constant coupling j*alpha*W on top of a complex
Hamiltonian, its closed resummation, per-model spectral-gap ratios for
hydrogen / infinite well / harmonic oscillator, a relativistic-correction
comparison table, and a nonperturbative matrix-eigenvalue cross-check.
"""

from importlib import import_module as _import_module

# Each public name and the submodule that defines it.  Names resolve on
# first access, so `import quatpert` loads no submodule, a data command
# loads only the modules it runs, and numpy and scipy's LAPACK extension
# load only with the quaternion matrices or the oracle.
_EXPORTS = {
    **dict.fromkeys(
        (
            "I", "J", "K", "ONE", "Quaternion", "SymplecticPair", "embed_block",
            "embed_quaternion", "from_symplectic", "qmul", "to_symplectic",
        ),
        "quaternions",
    ),
    **dict.fromkeys(
        (
            "PerturbationSpec", "RadiusError", "RadiusWarning", "SeriesEvaluation", "catalan",
            "closed_form_limit", "correction_coefficient_closed",
            "correction_coefficient_recurrence", "divergence_witness", "is_convergent",
            "normalized_coefficient", "perturbed_energy",
        ),
        "series",
    ),
    **dict.fromkeys(
        (
            "LevelSpec", "ModelKind", "SigmaCurveResult", "alpha_max", "gap_alpha_max",
            "model_w", "perturbation_spec", "perturbed_gap", "perturbed_level",
            "sigma_alpha_limit", "sigma_curve", "sigma_limit", "sigma_ratio", "sigma_series",
            "spectral_gap", "unperturbed_energy",
        ),
        "models",
    ),
    **dict.fromkeys(
        (
            "ELECTRON_MASS_EV", "RYDBERG_EV", "RYDBERG_EV_PRECISE", "ComparisonRow",
            "ComparisonTable", "comparison_table", "hydrogen_levels_vs_potential",
            "quaternionic_hydrogen_energy", "relativistic_energy",
        ),
        "relativistic",
    ),
    **dict.fromkeys(
        (
            "DiscreteHamiltonian", "Grid1D", "MAX_EMBEDDED_SIZE", "OracleError",
            "OracleReport", "compare_tolerance", "default_grid", "discretize",
            "oracle_compare",
        ),
        "oracle",
    ),
}
_ORACLE_EXPORTS = {name for name, module in _EXPORTS.items() if module == "oracle"}


def __getattr__(name):
    if name in _EXPORTS.values():  # a submodule, as `quatpert.series`
        return _import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = list(_EXPORTS)
