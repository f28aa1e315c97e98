"""Command-line front end: figure data, the hydrogen comparison table, and
validation runs, emitted as CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 numerical-tolerance failure
(oracle), 3 I/O error.  Diagnostics (skipped strengths, omitted rows,
grid warnings) go to stderr; data goes to --out or stdout.

Each command's argparse parser is built on first use and kept for the
process.  An option that takes a value takes the next word whatever it
looks like, so `--e0 -1e-3` is a value, not an option; options are never
abbreviated.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import models, relativistic, series
from ._output import OutputSpec, write_output
from .models import ModelKind


class ToleranceFailure(Exception):
    """An oracle comparison exceeded its declared tolerance."""


class UsageError(Exception):
    """A command line that cannot run: exit 1 with "Error: <message>".

    `command` names the command whose usage line is printed above it, or
    is None for the program's own.
    """

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


_DESCRIPTION = "Quaternionic level shifts: series data, gap ratios and spectral checks."

# name -> (body, columns, options); see table_command
_COMMANDS: dict[str, tuple] = {}


def table_command(name, columns, *options):
    """Register a command whose body returns (rows, notes, failure).

    `options` are the command's own, from `option`.  The runner turns a
    ValueError from the body into a usage error (exit 1), prints each note
    to stderr as "<name>: <note>", writes the rows under `columns` with the
    --format/--out/--precision options it adds after the command's own,
    and then, if `failure` is a message, exits 2 with it.
    """

    def register(body):
        _COMMANDS[name] = (body, columns, options + _OUTPUT_OPTIONS)
        return body

    return register


def option(flag, kind=None, *, required=False, help="", **settings):
    """One option: its flag, the converter of its value, whether a command
    line must give it, and the rest of its argparse.add_argument settings.

    An option with a `kind` takes a value, converted by it after parsing;
    its help line ends with its range, its default and whether it is
    required.
    """
    notes = [str(kind)] if isinstance(kind, _IntRange) else []
    if required:
        notes.append("required")
    elif kind is not None and settings.get("default") is not None:
        notes.insert(0, f"default: {settings['default']}")
    if kind is not None:
        settings["metavar"] = _METAVARS.get(kind) or getattr(kind, "metavar", None)
    if notes:
        help = f"{help}  [{'; '.join(notes)}]".lstrip()
    return flag, kind, required, dict(settings, help=help or None)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


class _IntRange:
    """An integer within [lo, hi]; a bound of None is open."""

    metavar = "INTEGER RANGE"

    def __init__(self, lo: int | None = None, hi: int | None = None):
        self.lo, self.hi = lo, hi

    def __call__(self, text: str) -> int:
        value = _int(text)
        if (self.lo is not None and value < self.lo) or (self.hi is not None and value > self.hi):
            raise ValueError(f"{value} is not in the range {self}.")
        return value

    def __str__(self) -> str:
        lo = "" if self.lo is None else f"{self.lo}<="
        hi = "" if self.hi is None else f"<={self.hi}"
        return f"{lo}x{hi}"


class _Choice:
    """One of a fixed set of words."""

    def __init__(self, *choices: str):
        self.choices = choices
        self.metavar = f"[{'|'.join(choices)}]"

    def __call__(self, text: str) -> str:
        if text not in self.choices:
            listed = ", ".join(map(repr, self.choices))
            raise ValueError(f"{text!r} is not one of {listed}.")
        return text


_METAVARS = {_float: "FLOAT", _int: "INTEGER", str: "TEXT"}


class _Append(argparse.Action):
    """Collect each value of a repeated option in one list.

    argparse's own "append" copies the list for every value, which is
    quadratic in the number of repeats.
    """

    def __call__(self, parser, namespace, value, option_string=None):
        values = getattr(namespace, self.dest)
        if values is None:
            setattr(namespace, self.dest, [value])
        else:
            values.append(value)


_OUTPUT_OPTIONS = (
    option("--format", _Choice("csv", "json"), dest="fmt", default="csv",
           help="Output format."),
    option("--out", str, dest="path", help="Output file (default: stdout); written atomically."),
    option("--precision", _IntRange(1, 15), default=5, help="Decimal places in emitted values."),
)


def _program_name() -> str:
    """The program as the user started it: "python -m <package>" under -m,
    else the script's file name."""
    package = getattr(sys.modules.get("__main__"), "__package__", None)
    return f"python -m {package}" if package else os.path.basename(sys.argv[0])


class _HelpFormatter(argparse.HelpFormatter):
    """--help with the "Usage:" line of the usage errors and a wider option column."""

    def __init__(self, prog):
        super().__init__(prog, max_help_position=29)

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """A command's parser; it raises what argparse would print and exit on."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _parser(name: str) -> tuple[_Parser, tuple]:
    """The parser of one command and its options as (action, kind, required)."""
    body, _, options = _COMMANDS[name]
    parser = _Parser(
        prog=f"{_program_name()} {name}", usage="%(prog)s [OPTIONS]",
        description=body.__doc__, formatter_class=_HelpFormatter,
        add_help=False, allow_abbrev=False, exit_on_error=False,
    )
    group = parser.add_argument_group("Options")
    actions = tuple((group.add_argument(flag, **settings), kind, required)
                    for flag, kind, required, settings in options)
    group.add_argument("--help", action="store_true", help="Show this message and exit.")
    return parser, actions


quantum_number = _IntRange(hi=100000)  # lower bounds are the models' own
_ORACLE_GRID_POINTS = 2**24  # rows x N of one oracle run: a few seconds of work
# A row's fixed cost (series, certification, rendering; about 0.25 ms) is
# that of about 1200 grid points at 0.21 us a point, so a row counts as at
# least this many points.
_ORACLE_ROW_POINTS = 1024


def _check_table_size(flag, count, size_flag, size):
    """Refuse more than 10**6 rows: `count` repeats of `flag` times `size` rows each."""
    if count * size > 10**6:
        raise ValueError(f"{count} {flag} values x {size_flag} {size} = {count * size} rows; "
                         "a table holds at most 1000000")


precise_rydberg = option(
    "--precise-rydberg",
    dest="ry",
    action="store_const",
    const=relativistic.RYDBERG_EV_PRECISE,
    default=relativistic.RYDBERG_EV,
    help="Use 13.605693 eV instead of the tabulated 13.6 eV.",
)


@table_command(
    "sigma",
    ["alpha", "order", "sigma"],
    option("--model", _Choice(*[m.value for m in ModelKind]), required=True),
    option("--n", quantum_number, required=True, help="Lower level of the gap pair."),
    option("--alpha", _float, dest="alphas", action=_Append, required=True,
           help="Strength; repeat the flag for several values."),
    option("--max-order", _IntRange(1, 50000), default=30),
)
def cmd_sigma(model, n, alphas, max_order):
    """Gap ratio sigma versus truncation order, one row per (alpha, order)."""
    _check_table_size("--alpha", len(alphas), "--max-order", max_order)
    result = models.sigma_curve(ModelKind(model), n, alphas, max_order)
    skipped = [f"skipped alpha={alpha:.6g}: {reason}" for alpha, reason in result.skipped]
    return result.rows, skipped + list(result.notes), None


@table_command(
    "hydrogen-table",
    ["n", "E_complex_eV", "E_relativistic_eV", "E_quaternionic_eV", "alphaW_eV"],
    option("--alphaw", _float, required=True, help="Coupling alpha*|W| in eV."),
    option("--n-max", _IntRange(1, 100000), default=5),
    precise_rydberg,
)
def cmd_hydrogen_table(alphaw, n_max, ry):
    """Hydrogen levels: bare vs relativistic vs quaternionic, in eV."""
    table = relativistic.comparison_table(alphaw, n_max, ry)
    rows = [
        [r.n, r.e_complex, r.e_relativistic, r.e_quaternionic, r.alpha_w_ev]
        for r in table.rows
    ]
    return rows, [f"omitted n={n}: {reason}" for n, reason in table.omitted], None


@table_command(
    "levels",
    ["n", "alphaW_eV", "energy_eV"],
    option("--n", quantum_number, dest="n_list", action=_Append, required=True,
           help="Principal quantum number; repeatable."),
    option("--samples", _IntRange(2, 100000), default=100),
    precise_rydberg,
)
def cmd_levels(n_list, samples, ry):
    """Hydrogen level curves over the admissible coupling range, in eV."""
    _check_table_size("--n", len(n_list), "--samples", samples)
    return relativistic.hydrogen_levels_vs_potential(n_list, samples, ry), [], None


@table_command(
    "oracle",
    [
        "model", "n", "alpha", "grid", "h",
        "E0_analytic", "E0_discrete", "series_partial_sum", "closed_form",
        "oracle_eigenvalue", "rel_oracle_vs_closed", "rel_oracle_vs_series",
        "rel_grid_error", "tolerance", "status",
    ],
    option("--model", _Choice(*[m.value for m in ModelKind if models._MODELS[m].box]),
           required=True),
    option("--n", quantum_number, dest="n_list", action=_Append, required=True,
           help="Quantum number; repeatable."),
    option("--alpha", _float, dest="alphas", action=_Append, required=True,
           help="Strength; repeatable."),
    option("--grid", _int, dest="grid_points", default=2000),
    option("--order", _IntRange(1, 50000), default=50),
    option("--x-min", _float, help="Override the box lower edge."),
    option("--x-max", _float, help="Override the box upper edge."),
)
def cmd_oracle(model, n_list, alphas, grid_points, order, x_min, x_max):
    """Check the series and closed form against the embedded spectrum,
    one row per (n, alpha)."""
    # the oracle's LAPACK calls are sequential: no idle OpenBLAS pools, unless sized
    if "numpy" not in sys.modules and not os.environ.keys() & {
            "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import oracle as oracle_mod  # deferred: numpy and LAPACK load only here

    kind = ModelKind(model)
    box_min, box_max = models._MODELS[kind].box  # the overrides apply before any grid check
    grid = oracle_mod.Grid1D(
        box_min if x_min is None else x_min,
        box_max if x_max is None else x_max,
        grid_points,
    )
    _check_table_size("--n", len(n_list), "--alpha values", len(alphas))
    pairs = [(n, alpha) for n in n_list for alpha in alphas]
    oracle_mod._check_request(kind, pairs, grid)
    if len(pairs) * max(grid.n_points, _ORACLE_ROW_POINTS) > _ORACLE_GRID_POINTS:
        counted = (f"--grid {grid.n_points}" if grid.n_points >= _ORACLE_ROW_POINTS else
                   f"--grid {grid.n_points} counted as {_ORACLE_ROW_POINTS}")
        points = len(pairs) * max(grid.n_points, _ORACLE_ROW_POINTS)
        raise ValueError(
            f"{len(pairs)} (n, alpha) pairs x {counted} = {points} grid points; "
            f"a run solves at most {_ORACLE_GRID_POINTS}"
        )
    rows, failures = [], []  # failures: (n, alpha, message)
    for n, alpha in pairs:
        report = oracle_mod.oracle_compare(kind, n, alpha, grid, order)
        rows.append([
            report.model.value, report.n, report.alpha, report.grid_points, report.h,
            report.e0_analytic, report.e0_discrete, report.series_value,
            report.closed_form, report.oracle_value, report.rel_oracle_vs_closed,
            report.rel_oracle_vs_series, report.rel_grid_error, report.tolerance,
            "PASS" if report.passed else "FAIL",
        ])
        if (message := _oracle_failure(report)) is not None:
            failures.append((n, alpha, message))
    if len(pairs) == 1:  # one comparison keeps its one-line error
        return rows, [], failures[0][2] if failures else None
    notes = [f"n={n} alpha={alpha:.6g}: {message}" for n, alpha, message in failures]
    summary = f"{len(failures)} of {len(rows)} comparisons failed" if failures else None
    return rows, notes, summary


def _oracle_failure(report):
    """Why one oracle report is a FAIL, or None if it passed."""
    if report.grid_warning:
        error = report.rel_grid_error
        percent = f"{error:.2%}" if error <= 1e4 else f"{100 * error:.2e}%"
        return f"grid level off by {percent} from the analytic value; refine the grid"
    if not report.passed:
        deviation = max(report.rel_oracle_vs_closed, report.rel_oracle_vs_series)
        return f"oracle deviation {deviation:.3e} exceeds tolerance {report.tolerance:.3e}"
    return None


@table_command(
    "series",
    ["order", "coefficient", "term", "partial_sum", "closed_form", "in_radius"],
    option("--e0", _float, required=True, help="Unperturbed level (nonzero)."),
    option("--w", _float, dest="w_mod", required=True, help="Coupling magnitude |W|."),
    option("--alpha", _float, required=True),
    option("--max-order", _IntRange(2, 100000), default=100),
)
def cmd_series(e0, w_mod, alpha, max_order):
    """Correction coefficients, terms and partial sums, one row per order."""
    spec = series.PerturbationSpec(e0=e0, w=complex(w_mod), alpha=alpha)
    evaluation = series.perturbed_energy(spec, max_order)
    try:  # the coefficients E_s are the terms of the series at alpha = 1
        coefficients = series._order_terms(e0, abs(w_mod), max_order)
    except ValueError as exc:
        raise ValueError(f"coefficient column: {exc}") from None
    if evaluation.at_boundary:
        notes = ["|alpha*W| equals |E0|; terms no longer decay strictly"]
    elif not evaluation.in_radius:
        notes = ["|alpha*W| exceeds |E0|; the series diverges"]
    else:
        notes = []
    limit = evaluation.limit_estimate if evaluation.in_radius else None
    rows = zip(itertools.count(1), coefficients, evaluation.terms, evaluation.partial_sums,
               itertools.repeat(limit), itertools.repeat(evaluation.in_radius))
    return list(rows), notes, None


# argparse finds each option word by a scan over the positions of all of
# them, so one call is quadratic in their number; slices of this many words
# keep a line of 10**5 repeated flags linear.
_PARSE_SLICE = 32


def _parse(name: str, argv: list[str]) -> dict | None:
    """The command's option values by destination, or None after printing --help.

    Raises ValueError with the message of a usage error.
    """
    parser, actions = _parser(name)
    value_flags = {action.option_strings[0] for action, kind, _ in actions if kind}
    words, rest, after_dashes = [], iter(argv), []
    for word in rest:
        if word == "--":  # the end of the options: every later word is extra
            after_dashes = list(rest)
        elif word in value_flags:  # the next word is the value, whatever it looks like
            value = next(rest, None)
            if value is None:
                raise ValueError(f"Option '{word}' requires an argument.")
            words.append(f"{word}={value}")
        else:
            words.append(word)
    namespace, extra = argparse.Namespace(), []
    try:
        for start in range(0, len(words) or 1, _PARSE_SLICE):
            namespace, unknown = parser.parse_known_args(
                words[start:start + _PARSE_SLICE], namespace)
            extra += unknown
    except argparse.ArgumentError as exc:  # with every value joined, only a flag given one
        raise ValueError(f"Option '{exc.argument_name}' does not take a value.") from None
    if options := [word for word in extra if word.startswith("-")]:
        flags = [action.option_strings[0] for action, _, _ in actions] + ["--help"]
        raise ValueError(_no_such_option(options[0].split("=", 1)[0], flags))
    if extra := extra + after_dashes:
        raise ValueError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                         f"({' '.join(extra)})")
    values = vars(namespace)
    if values.pop("help"):
        sys.stdout.write(parser.format_help())
        return None
    for action, kind, _ in actions:
        value = values[action.dest]
        if kind is not None and value is not None:
            try:
                values[action.dest] = ([kind(word) for word in value]
                                       if isinstance(action, _Append) else kind(value))
            except ValueError as exc:
                raise ValueError(
                    f"Invalid value for '{action.option_strings[0]}': {exc}") from None
    for action, _, required in actions:
        if required and values[action.dest] is None:
            raise ValueError(f"Missing option '{action.option_strings[0]}'.")
    return values


def _no_such_option(flag: str, flags: list[str]) -> str:
    """The message for an unknown option, with the known ones that are close."""
    from difflib import get_close_matches  # only on this error

    close = sorted(get_close_matches(flag, flags))
    message = f"No such option {flag!r}."
    if len(close) == 1:
        return f"{message} Did you mean {close[0]!r}?"
    if close:
        return f"{message} (Did you mean one of: {', '.join(map(repr, close))}?)"
    return message


def _run(name: str, argv: list[str]) -> None:
    """Parse and run one command; a ValueError from either is its usage error."""
    body, columns, _ = _COMMANDS[name]
    try:
        params = _parse(name, argv)
        if params is None:
            return
        spec = OutputSpec(params.pop("fmt"), params.pop("path"), params.pop("precision"))
        rows, notes, failure = body(**params)
    except ValueError as exc:
        raise UsageError(str(exc), name) from None
    for note in notes:
        print(f"{name}: {note}", file=sys.stderr)
    write_output(spec, columns, rows)
    if failure:
        raise ToleranceFailure(failure)


def _program_help() -> str:
    """The program's --help: its usage, its one option and each command's summary."""
    width = max(map(len, _COMMANDS))
    commands = "".join(
        f"  {name:<{width}}  {' '.join(_COMMANDS[name][0].__doc__.split())}\n"
        for name in sorted(_COMMANDS)
    )
    return (f"Usage: {_program_name()} [OPTIONS] COMMAND [ARGS]...\n\n  {_DESCRIPTION}\n\n"
            f"Options:\n  --help  Show this message and exit.\n\nCommands:\n{commands}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the program's own options come before the command; "--" ends them
        options = list(itertools.takewhile(lambda word: word[:1] == "-" and word != "--", argv))
        for word in options:
            if word != "--help":
                raise UsageError(_no_such_option(word.split("=", 1)[0], ["--help"]))
        command = argv[len(options):]
        command = command[command[:1] == ["--"]:]
        if options:
            sys.stdout.write(_program_help())
        elif not argv:
            sys.stderr.write(_program_help())
            return 1
        elif not command:
            raise UsageError("Missing command.")
        elif command[0] not in _COMMANDS:
            raise UsageError(f"No such command {command[0]!r}.")
        else:
            _run(command[0], command[1:])
    except UsageError as exc:
        prog = " ".join(filter(None, (_program_name(), exc.command)))
        usage = "[OPTIONS]" if exc.command else "[OPTIONS] COMMAND [ARGS]..."
        sys.stderr.write(f"Usage: {prog} {usage}\nTry '{prog} --help' for help.\n\n"
                         f"Error: {exc}\n")
        return 1
    except ToleranceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0
