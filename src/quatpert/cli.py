"""Command-line front end: figure data, the hydrogen comparison table, and
validation runs, emitted as CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 numerical-tolerance failure
(oracle), 3 I/O error.  Diagnostics (skipped strengths, omitted rows,
grid warnings) go to stderr; data goes to --out or stdout.
"""

from __future__ import annotations

import click

from . import models, relativistic, series
from ._output import OutputSpec, write_output
from .models import ModelKind


class ToleranceFailure(Exception):
    """An oracle comparison exceeded its declared tolerance."""


def output_options(f):
    f = click.option(
        "--precision",
        type=click.IntRange(1, 15),
        default=5,
        show_default=True,
        help="Decimal places in emitted values.",
    )(f)
    f = click.option(
        "--out",
        "path",
        default=None,
        help="Output file (default: stdout); written atomically.",
    )(f)
    f = click.option(
        "--format",
        "fmt",
        type=click.Choice(["csv", "json"]),
        default="csv",
        show_default=True,
        help="Output format.",
    )(f)
    return f


@click.group()
def cli():
    """Quaternionic level shifts: series data, gap ratios and spectral checks."""


@cli.command("sigma")
@click.option(
    "--model",
    type=click.Choice([m.value for m in ModelKind]),
    required=True,
)
@click.option("--n", type=int, required=True, help="Lower level of the gap pair.")
@click.option(
    "--alpha",
    "alphas",
    type=float,
    multiple=True,
    required=True,
    help="Strength; repeat the flag for several values.",
)
@click.option("--max-order", type=click.IntRange(1, 50000), default=30, show_default=True)
@output_options
def cmd_sigma(model, n, alphas, max_order, fmt, path, precision):
    """Gap ratio sigma versus truncation order, one row per (alpha, order)."""
    try:
        result = models.sigma_curve(ModelKind(model), n, list(alphas), max_order)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for alpha, reason in result.skipped:
        click.echo(f"sigma: skipped alpha={alpha:.6g}: {reason}", err=True)
    for note in result.notes:
        click.echo(f"sigma: {note}", err=True)
    write_output(
        OutputSpec(fmt, path, precision),
        ["alpha", "order", "sigma"],
        [list(row) for row in result.rows],
    )


@cli.command("hydrogen-table")
@click.option("--alphaw", type=float, required=True, help="Coupling alpha*|W| in eV.")
@click.option("--n-max", type=int, default=5, show_default=True)
@click.option(
    "--precise-rydberg",
    is_flag=True,
    help="Use 13.605693 eV instead of the tabulated 13.6 eV.",
)
@output_options
def cmd_hydrogen_table(alphaw, n_max, precise_rydberg, fmt, path, precision):
    """Hydrogen levels: bare vs relativistic vs quaternionic, in eV."""
    ry = relativistic.RYDBERG_EV_PRECISE if precise_rydberg else relativistic.RYDBERG_EV
    try:
        table = relativistic.comparison_table(alphaw, n_max, ry)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for n, reason in table.omitted:
        click.echo(f"hydrogen-table: omitted n={n}: {reason}", err=True)
    write_output(
        OutputSpec(fmt, path, precision),
        ["n", "E_complex_eV", "E_relativistic_eV", "E_quaternionic_eV", "alphaW_eV"],
        [
            [r.n, r.e_complex, r.e_relativistic, r.e_quaternionic, r.alpha_w_ev]
            for r in table.rows
        ],
    )


@cli.command("levels")
@click.option(
    "--n",
    "n_list",
    type=int,
    multiple=True,
    required=True,
    help="Principal quantum number; repeatable.",
)
@click.option("--samples", type=click.IntRange(2, 100000), default=100, show_default=True)
@click.option("--precise-rydberg", is_flag=True)
@output_options
def cmd_levels(n_list, samples, precise_rydberg, fmt, path, precision):
    """Hydrogen level curves over the admissible coupling range, in eV."""
    ry = relativistic.RYDBERG_EV_PRECISE if precise_rydberg else relativistic.RYDBERG_EV
    try:
        rows = relativistic.hydrogen_levels_vs_potential(list(n_list), samples, ry)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    write_output(
        OutputSpec(fmt, path, precision),
        ["n", "alphaW_eV", "energy_eV"],
        [list(row) for row in rows],
    )


@cli.command("oracle")
@click.option("--model", type=click.Choice(["well", "oscillator"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--grid", "grid_points", type=int, default=2000, show_default=True)
@click.option("--order", type=click.IntRange(1, 50000), default=50, show_default=True)
@click.option("--x-min", type=float, default=None, help="Override the box lower edge.")
@click.option("--x-max", type=float, default=None, help="Override the box upper edge.")
@output_options
def cmd_oracle(model, n, alpha, grid_points, order, x_min, x_max, fmt, path, precision):
    """Check the series and closed form against the embedded spectrum."""
    from . import oracle as oracle_mod  # deferred: eigensolver stack loads only here

    kind = ModelKind(model)
    try:
        base = oracle_mod.default_grid(kind, grid_points)
        grid = oracle_mod.Grid1D(
            base.x_min if x_min is None else x_min,
            base.x_max if x_max is None else x_max,
            grid_points,
        )
        report = oracle_mod.oracle_compare(kind, n, alpha, grid, order)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if report.grid_warning:
        click.echo(
            f"oracle: grid level off by {report.rel_grid_error:.2%} from the "
            "analytic value; refine the grid",
            err=True,
        )
    write_output(
        OutputSpec(fmt, path, precision),
        [
            "model", "n", "alpha", "grid", "h",
            "E0_analytic", "E0_discrete", "series_partial_sum", "closed_form",
            "oracle_eigenvalue", "rel_oracle_vs_closed", "rel_oracle_vs_series",
            "rel_grid_error", "tolerance", "status",
        ],
        [[
            report.model.value, report.n, report.alpha, report.grid_points, report.h,
            report.e0_analytic, report.e0_discrete, report.series_value,
            report.closed_form, report.oracle_value, report.rel_oracle_vs_closed,
            report.rel_oracle_vs_series, report.rel_grid_error, report.tolerance,
            "PASS" if report.passed else "FAIL",
        ]],
    )
    if not report.passed:
        raise ToleranceFailure(
            f"oracle deviation {max(report.rel_oracle_vs_closed, report.rel_oracle_vs_series):.3e} "
            f"exceeds tolerance {report.tolerance:.3e}"
        )


@cli.command("series")
@click.option("--e0", type=float, required=True, help="Unperturbed level (nonzero).")
@click.option("--w", "w_mod", type=float, required=True, help="Coupling magnitude |W|.")
@click.option("--alpha", type=float, required=True)
@click.option("--max-order", type=click.IntRange(2, 100000), default=100, show_default=True)
@output_options
def cmd_series(e0, w_mod, alpha, max_order, fmt, path, precision):
    """Correction coefficients, terms and partial sums, one row per order."""
    try:
        spec = series.PerturbationSpec(e0=e0, w=complex(w_mod), alpha=alpha)
        evaluation = series.perturbed_energy(spec, max_order)
        # at alpha = 1 the terms are the coefficients E_s
        unit = series.PerturbationSpec(e0=e0, w=complex(w_mod), alpha=1.0)
        coefficients = series.perturbed_energy(unit, max_order).terms
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if evaluation.at_boundary:
        click.echo(
            "series: |alpha*W| equals |E0|; terms no longer decay strictly",
            err=True,
        )
    elif not evaluation.in_radius:
        click.echo("series: |alpha*W| exceeds |E0|; the series diverges", err=True)
    limit = evaluation.limit_estimate if evaluation.in_radius else None
    write_output(
        OutputSpec(fmt, path, precision),
        ["order", "coefficient", "term", "partial_sum", "closed_form", "in_radius"],
        [
            [s, *columns, limit, evaluation.in_radius]
            for s, columns in enumerate(
                zip(coefficients, evaluation.terms, evaluation.partial_sums), 1
            )
        ],
    )


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except ToleranceFailure as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return 3
    return 0
