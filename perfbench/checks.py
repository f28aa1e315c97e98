"""Output checkers, against references the benchmark computes itself.

Every check returns the number of validated rows or raises ``CheckError``.
The references are independent of ``quatpert``:

* the closed form ``sign(E) * sqrt(E**2 + (alpha|W|)**2)`` via ``math.hypot``;
* exact integer Catalan numbers, summed in 50-digit ``decimal`` arithmetic,
  for series coefficients, terms and partial sums and the sigma gap ratios;
* the oracle's own contract: the grid tolerance ``max(1e-6, 1e-4 *
  (2001/(N+1))**2)``, the 0.5% grid-warning threshold, and for the well the
  exact eigenvalues of the three-point stencil.

Emitted values are compared at the precision they were printed with: a
value passes when it lies within ``10**-precision`` of the reference plus a
floating-point allowance that grows with the number of terms summed.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext

EPS = 2.0**-52
RYDBERG_EV = 13.6
ELECTRON_MASS_EV = 510998.95
# model -> (level energy, |W|, lowest n), in the model's natural unit
MODELS = {
    "hydrogen": (lambda n: -1.0 / n**2, 2.0, 1),
    "well": (lambda n: float(n**2), 2.0, 1),
    "oscillator": (lambda n: n + 0.5, 1.0, 0),
}
GRID_WARNING_REL = 0.005

SERIES_COLUMNS = ["order", "coefficient", "term", "partial_sum", "closed_form", "in_radius"]
SIGMA_COLUMNS = ["alpha", "order", "sigma"]
LEVELS_COLUMNS = ["n", "alphaW_eV", "energy_eV"]
TABLE_COLUMNS = ["n", "E_complex_eV", "E_relativistic_eV", "E_quaternionic_eV", "alphaW_eV"]
ORACLE_COLUMNS = [
    "model", "n", "alpha", "grid", "h",
    "E0_analytic", "E0_discrete", "series_partial_sum", "closed_form",
    "oracle_eigenvalue", "rel_oracle_vs_closed", "rel_oracle_vs_series",
    "rel_grid_error", "tolerance", "status",
]


class CheckError(Exception):
    """An output differs from its reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(value, reference: float, precision: int, scale: float, what: str, *where):
    """Pass when ``value`` is finite and within 10**-precision + scale of reference.

    ``where`` locates the value in the failure message, which is only built
    on failure because the checks run once per emitted cell.
    """
    if not (isinstance(value, float) and math.isfinite(value)):
        raise CheckError(f"{what} at {_joined(where)}: non-finite or missing cell {value!r}")
    allowed = 10.0**-precision + scale
    if not abs(value - reference) <= allowed:
        raise CheckError(
            f"{what} at {_joined(where)}: {value!r} differs from reference {reference!r} "
            f"by more than {allowed:.3g}"
        )


def _joined(where) -> str:
    return ", ".join(map(str, where))


def closed_form(e0: float, coupling: float) -> float:
    return math.copysign(math.hypot(e0, coupling), e0)


def series_reference(e0: float, w: float, alpha: float, max_order: int):
    """Per order s: (coefficient, term, partial sum, error scale) as floats.

    E_2t = (-1)**(t+1) * 2 E Cat(t-1) (|W|/2E)**(2t), with Cat the exact
    integer Catalan numbers, summed at 50 significant digits.  The error
    scale bounds the float rounding a faithful double-precision evaluation
    can accumulate through order s.
    """
    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        big_e = Decimal(e0)
        rho = Decimal(abs(w)) / (2 * big_e)
        rho2 = rho * rho
        x = Decimal(alpha) ** 2 * rho2
        catalan = 1  # Cat(t - 1), starting at t = 1
        rho_power = x_power = Decimal(1)
        total = big_e
        scale = abs(e0)
        for s in range(1, max_order + 1):
            if s % 2:
                coefficient = term = Decimal(0)
            else:
                t = s // 2
                if t > 1:
                    catalan = catalan * 2 * (2 * t - 3) // t
                rho_power *= rho2
                x_power *= x
                sign = 1 if t % 2 else -1
                coefficient = sign * 2 * big_e * catalan * rho_power
                term = sign * 2 * big_e * catalan * x_power
            total += term
            ftotal, fterm = float(total), float(term)
            scale = max(scale, abs(ftotal), abs(fterm))
            out.append((float(coefficient), fterm, ftotal, 8 * (s + 2) * EPS * scale))
    return out


# --- parsing -----------------------------------------------------------------


def _cell(text: str):
    if "." in text:  # floats are always printed with a decimal point
        return float(text)
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Columns and typed rows of a CSV or JSON table from the CLI."""
    if fmt == "json":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise CheckError(f"output is not JSON: {exc}") from None
        return payload["columns"], payload["rows"]
    _expect(text.endswith("\n"), "CSV output does not end in a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [[_cell(c) for c in line.split(",")] for line in lines[1:]]


# --- per-command checks ---------------------------------------------------------


def check_series(op: dict, columns, rows) -> int:
    e0, w, alpha, max_order, p = op["e0"], op["w"], op["alpha"], op["max_order"], op["precision"]
    _expect(columns == SERIES_COLUMNS, f"series columns {columns}")
    _expect(len(rows) == max_order, f"series: {len(rows)} rows, expected {max_order}")
    coupling = abs(alpha) * abs(w)
    in_radius = coupling <= abs(e0)
    limit = closed_form(e0, coupling) if in_radius else None
    reference = series_reference(e0, w, alpha, max_order)
    for s, (row, (coef, term, total, scale)) in enumerate(zip(rows, reference), start=1):
        order, c_out, t_out, sum_out, limit_out, flag = row
        if order != s:
            raise CheckError(f"series: order {order} in row {s}")
        _close(c_out, coef, p, scale, "series coefficient", s)
        _close(t_out, term, p, scale, "series term", s)
        _close(sum_out, total, p, scale, "series partial sum", s)
        if flag is not in_radius:
            raise CheckError(f"series: in_radius {flag!r} at s={s}")
        if limit is None:
            _expect(limit_out is None, f"series: closed form {limit_out!r} outside the radius")
        else:
            _close(limit_out, limit, p, 4 * EPS * abs(limit), "series closed form", s)
    return len(rows)


def sigma_acceptance_limit(model: str, n: int) -> float:
    if model == "hydrogen":
        return 1.0 / (2 * (n + 1) ** 2)
    if model == "well":
        return 1.0 if n == 1 else n**2 / 2.0
    return n + 0.5


def check_sigma(op: dict, columns, rows) -> int:
    model, n, alphas, max_order, p = op["model"], op["n"], op["alphas"], op["max_order"], op["precision"]
    energy, w, _ = MODELS[model]
    _expect(columns == SIGMA_COLUMNS, f"sigma columns {columns}")
    kept = [a for a in alphas if abs(a) <= sigma_acceptance_limit(model, n)]
    _expect(len(rows) == len(kept) * max_order,
            f"sigma: {len(rows)} rows, expected {len(kept) * max_order}")
    gap = energy(n + 1) - energy(n)
    it = iter(rows)
    for alpha in kept:
        lo = series_reference(energy(n), w, alpha, 2 * max_order)
        hi = series_reference(energy(n + 1), w, alpha, 2 * max_order)
        for s in range(1, max_order + 1):
            a_out, s_out, sigma_out = next(it)
            _close(a_out, alpha, p, 0.0, "sigma alpha", s)
            if s_out != s:
                raise CheckError(f"sigma: order {s_out} where {s} expected")
            _, _, lo_sum, lo_scale = lo[2 * s - 1]
            _, _, hi_sum, hi_scale = hi[2 * s - 1]
            reference = (hi_sum - lo_sum) / gap
            scale = (lo_scale + hi_scale) / abs(gap) + 4 * EPS * abs(reference)
            _close(sigma_out, reference, p, scale, "sigma", alpha, s)
    return len(rows)


def check_levels(op: dict, columns, rows) -> int:
    n_list, samples, p = op["n_list"], op["samples"], op["precision"]
    _expect(columns == LEVELS_COLUMNS, f"levels columns {columns}")
    _expect(len(rows) == len(n_list) * samples,
            f"levels: {len(rows)} rows, expected {len(n_list) * samples}")
    it = iter(rows)
    for n in n_list:
        top = RYDBERG_EV / n**2
        for k in range(samples):
            n_out, aw_out, e_out = next(it)
            aw = top * k / (samples - 1)
            if n_out != n:
                raise CheckError(f"levels: n {n_out} where {n} expected")
            _close(aw_out, aw, p, 4 * EPS * top, "levels coupling", n, k)
            _close(e_out, -math.hypot(top, aw), p, 8 * EPS * top, "levels energy", n, k)
    return len(rows)


def check_table(op: dict, columns, rows) -> int:
    alphaw, n_max, p = op["alphaw"], op["n_max"], op["precision"]
    _expect(columns == TABLE_COLUMNS, f"hydrogen-table columns {columns}")
    kept = [n for n in range(1, n_max + 1) if alphaw <= RYDBERG_EV / n**2]
    _expect(len(rows) == len(kept), f"hydrogen-table: {len(rows)} rows, expected {len(kept)}")
    for n, row in zip(kept, rows):
        base = RYDBERG_EV / n**2
        kinetic = RYDBERG_EV**2 / (2.0 * ELECTRON_MASS_EV * n**4) * (8.0 * n - 3.0)
        _expect(row[0] == n, f"hydrogen-table: n {row[0]} where {n} expected")
        for value, reference, what in (
            (row[1], -base, "E_complex"),
            (row[2], -base - kinetic, "E_relativistic"),
            (row[3], -math.hypot(base, alphaw), "E_quaternionic"),
            (row[4], alphaw, "alphaW"),
        ):
            _close(value, reference, p, 8 * EPS * RYDBERG_EV, "hydrogen-table", what, n)
    return len(rows)


def stencil_level(model: str, n: int, grid: int) -> float | None:
    """Exact three-point-stencil level of the unit-box well, in E_L units."""
    if model != "well":
        return None
    h = 1.0 / (grid + 1)
    return (2.0 / h**2) * (1.0 - math.cos(n * math.pi * h)) / math.pi**2


def oracle_tolerance(grid: int) -> float:
    return max(1e-6, 1e-4 * ((2001) / (grid + 1)) ** 2)


def check_oracle_values(op: dict, values: dict, precision: int | None) -> int:
    """Check one oracle report, given as a dict keyed by the CLI columns.

    ``precision`` is None for in-process reports, which are compared at
    full double precision.
    """
    model, n, alpha, grid = op["model"], op["n"], op["alpha"], op["grid"]
    energy, w, _ = MODELS[model]
    e0 = energy(n)
    closed = closed_form(e0, abs(alpha) * w)
    tol = oracle_tolerance(grid)
    p = 15 if precision is None else precision
    rel = 1e-12 if precision is None else 0.0
    for key in ("h", "E0_analytic", "E0_discrete", "series_partial_sum", "closed_form",
                "oracle_eigenvalue", "rel_oracle_vs_closed", "rel_oracle_vs_series",
                "rel_grid_error", "tolerance"):
        _expect(isinstance(values[key], float) and math.isfinite(values[key]),
                f"oracle: {key} is {values[key]!r}")
    _expect(values["model"] == model and values["n"] == n and values["grid"] == grid,
            f"oracle: report is for {values['model']} n={values['n']} N={values['grid']}")
    _close(values["alpha"], alpha, p, rel * abs(alpha), "oracle alpha")
    _close(values["E0_analytic"], e0, p, rel * abs(e0), "oracle E0_analytic")
    _close(values["closed_form"], closed, p, rel * abs(closed), "oracle closed form")
    _close(values["tolerance"], tol, p, rel * tol, "oracle tolerance")
    series = series_reference(e0, w, alpha, 100)[-1]
    _close(values["series_partial_sum"], series[2], p, series[3], "oracle series partial sum")
    stencil = stencil_level(model, n, grid)
    if stencil is not None:
        _close(values["E0_discrete"], stencil, p, 1e-8 * abs(stencil), "oracle E0_discrete")
    grid_error = abs(values["E0_discrete"] - e0) / abs(e0)
    if precision is None:
        _expect(values["grid_warning"] == (values["rel_grid_error"] > GRID_WARNING_REL),
                "oracle: grid_warning disagrees with rel_grid_error")
        _close(values["rel_grid_error"], grid_error, p, 1e-9, "oracle rel_grid_error")
    _expect(grid_error <= GRID_WARNING_REL, f"oracle: grid level off by {grid_error:.3g}")
    deviation = abs(values["oracle_eigenvalue"] - closed) / abs(closed)
    _expect(deviation <= tol + 10.0**-p / abs(closed),
            f"oracle: eigenvalue deviates {deviation:.3g} from the closed form, tolerance {tol:.3g}")
    _expect(values["status"] == "PASS", f"oracle: status {values['status']}")
    return 1


def check_report(op: dict, report) -> int:
    """Check an in-process ``OracleReport``."""
    values = {
        "model": report.model.value, "n": report.n, "alpha": report.alpha,
        "grid": report.grid_points,
        "h": report.h, "E0_analytic": report.e0_analytic, "E0_discrete": report.e0_discrete,
        "series_partial_sum": report.series_value, "closed_form": report.closed_form,
        "oracle_eigenvalue": report.oracle_value,
        "rel_oracle_vs_closed": report.rel_oracle_vs_closed,
        "rel_oracle_vs_series": report.rel_oracle_vs_series,
        "rel_grid_error": report.rel_grid_error, "tolerance": report.tolerance,
        "status": "PASS" if report.passed else "FAIL", "grid_warning": report.grid_warning,
    }
    return check_oracle_values(op, values, None)


def check_oracle_table(op: dict, columns, rows) -> int:
    _expect(columns == ORACLE_COLUMNS, f"oracle columns {columns}")
    _expect(len(rows) == 1, f"oracle: {len(rows)} rows, expected 1")
    return check_oracle_values(op, dict(zip(columns, rows[0])), op["precision"])


CLI_CHECKS = {
    "series": check_series,
    "sigma": check_sigma,
    "levels": check_levels,
    "hydrogen-table": check_table,
    "oracle": check_oracle_table,
}


def check_cli(op: dict, exit_code: int, text: str) -> int:
    """Validate one CLI run: exit code, table shape, every value."""
    _expect(exit_code == 0, f"{op['cmd']}: exit code {exit_code}")
    columns, rows = parse_table(text, op["fmt"])
    for row in rows:
        if len(row) != len(columns):
            raise CheckError(f"{op['cmd']}: ragged row {row!r}")
    return CLI_CHECKS[op["cmd"]](op, columns, rows)
