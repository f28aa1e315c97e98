"""Command-line front end: figure data, the hydrogen comparison table, and
validation runs, emitted as CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 numerical-tolerance failure
(oracle), 3 I/O error.  Diagnostics (skipped strengths, omitted rows,
grid warnings) go to stderr; data goes to --out or stdout.
"""

from __future__ import annotations

import functools

import click

from . import models, relativistic, series
from ._output import OutputSpec, write_output
from .models import ModelKind


class ToleranceFailure(Exception):
    """An oracle comparison exceeded its declared tolerance."""


@click.group()
def cli():
    """Quaternionic level shifts: series data, gap ratios and spectral checks."""


def table_command(name, columns):
    """Register a command whose body returns (rows, notes, failure).

    The runner turns a ValueError from the body into a usage error (exit 1),
    prints each note to stderr as "<name>: <note>", writes the rows under
    `columns` with the --format/--out/--precision options it adds after the
    command's own, and then, if `failure` is a message, exits 2 with it.
    """

    def register(body):
        @functools.wraps(body)
        def run(fmt, path, precision, **params):
            try:
                rows, notes, failure = body(**params)
            except ValueError as exc:
                raise click.UsageError(str(exc))
            for note in notes:
                click.echo(f"{name}: {note}", err=True)
            write_output(OutputSpec(fmt, path, precision), columns, rows)
            if failure:
                raise ToleranceFailure(failure)

        command = cli.command(name)(run)
        command.params += [
            click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]),
                         default="csv", show_default=True, help="Output format."),
            click.Option(["--out", "path"],
                         help="Output file (default: stdout); written atomically."),
            click.Option(["--precision"], type=click.IntRange(1, 15), default=5,
                         show_default=True, help="Decimal places in emitted values."),
        ]
        return command

    return register


quantum_number = click.IntRange(max=100000)  # lower bounds are the models' own

precise_rydberg = click.option(
    "--precise-rydberg",
    "ry",
    flag_value=relativistic.RYDBERG_EV_PRECISE,
    default=relativistic.RYDBERG_EV,
    help="Use 13.605693 eV instead of the tabulated 13.6 eV.",
)


@table_command("sigma", ["alpha", "order", "sigma"])
@click.option(
    "--model",
    type=click.Choice([m.value for m in ModelKind]),
    required=True,
)
@click.option("--n", type=quantum_number, required=True, help="Lower level of the gap pair.")
@click.option(
    "--alpha",
    "alphas",
    type=float,
    multiple=True,
    required=True,
    help="Strength; repeat the flag for several values.",
)
@click.option("--max-order", type=click.IntRange(1, 50000), default=30, show_default=True)
def cmd_sigma(model, n, alphas, max_order):
    """Gap ratio sigma versus truncation order, one row per (alpha, order)."""
    result = models.sigma_curve(ModelKind(model), n, list(alphas), max_order)
    skipped = [f"skipped alpha={alpha:.6g}: {reason}" for alpha, reason in result.skipped]
    return result.rows, skipped + list(result.notes), None


@table_command(
    "hydrogen-table",
    ["n", "E_complex_eV", "E_relativistic_eV", "E_quaternionic_eV", "alphaW_eV"],
)
@click.option("--alphaw", type=float, required=True, help="Coupling alpha*|W| in eV.")
@click.option("--n-max", type=click.IntRange(1, 100000), default=5, show_default=True)
@precise_rydberg
def cmd_hydrogen_table(alphaw, n_max, ry):
    """Hydrogen levels: bare vs relativistic vs quaternionic, in eV."""
    table = relativistic.comparison_table(alphaw, n_max, ry)
    rows = [
        [r.n, r.e_complex, r.e_relativistic, r.e_quaternionic, r.alpha_w_ev]
        for r in table.rows
    ]
    return rows, [f"omitted n={n}: {reason}" for n, reason in table.omitted], None


@table_command("levels", ["n", "alphaW_eV", "energy_eV"])
@click.option(
    "--n",
    "n_list",
    type=quantum_number,
    multiple=True,
    required=True,
    help="Principal quantum number; repeatable.",
)
@click.option("--samples", type=click.IntRange(2, 100000), default=100, show_default=True)
@precise_rydberg
def cmd_levels(n_list, samples, ry):
    """Hydrogen level curves over the admissible coupling range, in eV."""
    return relativistic.hydrogen_levels_vs_potential(list(n_list), samples, ry), [], None


@table_command(
    "oracle",
    [
        "model", "n", "alpha", "grid", "h",
        "E0_analytic", "E0_discrete", "series_partial_sum", "closed_form",
        "oracle_eigenvalue", "rel_oracle_vs_closed", "rel_oracle_vs_series",
        "rel_grid_error", "tolerance", "status",
    ],
)
@click.option("--model", required=True,
              type=click.Choice([m.value for m in ModelKind if models._MODELS[m].box]))
@click.option("--n", type=quantum_number, required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--grid", "grid_points", type=int, default=2000, show_default=True)
@click.option("--order", type=click.IntRange(1, 50000), default=50, show_default=True)
@click.option("--x-min", type=float, default=None, help="Override the box lower edge.")
@click.option("--x-max", type=float, default=None, help="Override the box upper edge.")
def cmd_oracle(model, n, alpha, grid_points, order, x_min, x_max):
    """Check the series and closed form against the embedded spectrum."""
    from . import oracle as oracle_mod  # deferred: eigensolver stack loads only here

    kind = ModelKind(model)
    base = oracle_mod.default_grid(kind, grid_points)
    grid = oracle_mod.Grid1D(
        base.x_min if x_min is None else x_min,
        base.x_max if x_max is None else x_max,
        grid_points,
    )
    report = oracle_mod.oracle_compare(kind, n, alpha, grid, order)
    row = [
        report.model.value, report.n, report.alpha, report.grid_points, report.h,
        report.e0_analytic, report.e0_discrete, report.series_value,
        report.closed_form, report.oracle_value, report.rel_oracle_vs_closed,
        report.rel_oracle_vs_series, report.rel_grid_error, report.tolerance,
        "PASS" if report.passed else "FAIL",
    ]
    failure = None
    if report.grid_warning:
        error = report.rel_grid_error
        percent = f"{error:.2%}" if error <= 1e4 else f"{100 * error:.2e}%"
        failure = f"grid level off by {percent} from the analytic value; refine the grid"
    elif not report.passed:
        deviation = max(report.rel_oracle_vs_closed, report.rel_oracle_vs_series)
        failure = f"oracle deviation {deviation:.3e} exceeds tolerance {report.tolerance:.3e}"
    return [row], [], failure


@table_command(
    "series",
    ["order", "coefficient", "term", "partial_sum", "closed_form", "in_radius"],
)
@click.option("--e0", type=float, required=True, help="Unperturbed level (nonzero).")
@click.option("--w", "w_mod", type=float, required=True, help="Coupling magnitude |W|.")
@click.option("--alpha", type=float, required=True)
@click.option("--max-order", type=click.IntRange(2, 100000), default=100, show_default=True)
def cmd_series(e0, w_mod, alpha, max_order):
    """Correction coefficients, terms and partial sums, one row per order."""
    spec = series.PerturbationSpec(e0=e0, w=complex(w_mod), alpha=alpha)
    evaluation = series.perturbed_energy(spec, max_order)
    unit = series.PerturbationSpec(e0=e0, w=complex(w_mod), alpha=1.0)
    try:  # at alpha = 1 the terms are the coefficients E_s
        coefficients = series.perturbed_energy(unit, max_order).terms
    except ValueError as exc:
        raise ValueError(f"coefficient column (the series at alpha = 1): {exc}") from None
    if evaluation.at_boundary:
        notes = ["|alpha*W| equals |E0|; terms no longer decay strictly"]
    elif not evaluation.in_radius:
        notes = ["|alpha*W| exceeds |E0|; the series diverges"]
    else:
        notes = []
    limit = evaluation.limit_estimate if evaluation.in_radius else None
    rows = [
        [s, *columns, limit, evaluation.in_radius]
        for s, columns in enumerate(
            zip(coefficients, evaluation.terms, evaluation.partial_sums), 1
        )
    ]
    return rows, notes, None


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
