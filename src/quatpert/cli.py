"""Command-line front end: figure data, the hydrogen comparison table, and
validation runs, emitted as CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 numerical-tolerance failure
(oracle), 3 I/O error.  Diagnostics (skipped strengths, omitted rows,
grid warnings) go to stderr; data goes to --out or stdout.

Each command parses its words with one loop over its option table, and
formats --help from the same table.  An option that takes a value takes
the next word whatever it looks like, so `--e0 -1e-3` is a value, not an
option, and so is the `--` of `--out --`; a bare `--` anywhere else ends
the options.  Options are never abbreviated.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import namedtuple

from . import models, relativistic, series
from ._output import Columns, OutputSpec, write_output
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

# name -> (body, columns, {flag: option}); see table_command
_COMMANDS: dict[str, tuple] = {}


def table_command(name, columns, *options):
    """Register a command whose body returns (cells, notes, failure).

    `cells` holds one entry per name in `columns`: a list, tuple or range
    with one cell per row, or, for a column that holds one value, that
    value alone, which the renderer folds into its row template.  `options`
    are the command's own, from `option`.  The runner turns a ValueError
    from the body into a usage error (exit 1), prints each note to stderr
    as "<name>: <note>", writes the table with the --format/--out/
    --precision options it adds after the command's own (and --help last),
    and then, if `failure` is a message, exits 2 with it.
    """

    def register(body):
        table = {record.flag: record for record in (*options, *_OUTPUT_OPTIONS, _HELP)}
        _COMMANDS[name] = (body, columns, table)
        return body

    return register


# one option of a command: `kind` converts its value, or is None for a flag
# that takes no value and stores `const`; see `option`
_Option = namedtuple("_Option", "flag dest kind default const append required help")


def option(flag, kind=None, *, dest=None, default=None, const=None, append=False,
           required=False, help=""):
    """One option: its flag, the converter of its value, and where it goes.

    An option with a `kind` takes a value, converted by it after parsing;
    repeated, it keeps its last value, or every value in a list if it is
    an `append` option.  An option without one stores `const`.  `dest`
    defaults to the flag without "--", with "_" for "-".  The help line
    ends with the range, the default and whether the option is required.
    """
    notes = [str(kind)] if isinstance(kind, _IntRange) else []
    if required:
        notes.append("required")
    elif kind is not None and default is not None:
        notes.insert(0, f"default: {default}")
    if notes:
        help = f"{help} [{'; '.join(notes)}]".lstrip()
    return _Option(flag, dest or flag[2:].replace("-", "_"), kind, default, const, append,
                   required, help)


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


def _path(text: str) -> str:
    if not text:
        raise ValueError("'' is not a file name.")
    return text


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


_METAVARS = {_float: "FLOAT", _int: "INTEGER", str: "TEXT", _path: "TEXT"}


_OUTPUT_OPTIONS = (
    option("--format", _Choice("csv", "json"), dest="fmt", default="csv",
           help="Output format."),
    option("--out", _path, dest="path", help="Output file (default: stdout); written atomically."),
    option("--precision", _IntRange(1, 15), default=5, help="Decimal places in emitted values."),
)
_HELP = option("--help", const=True, default=False, help="Show this message and exit.")


def _program_name() -> str:
    """The program as the user started it: "python -m <package>" under -m,
    else the script's file name."""
    package = getattr(sys.modules.get("__main__"), "__package__", None)
    return f"python -m {package}" if package else os.path.basename(sys.argv[0])


quantum_number = _IntRange(hi=100000)  # lower bounds are the models' own
_ORACLE_GRID_POINTS = 2**24  # rows x N of one oracle run: a few seconds of work
# A row's fixed cost (series, certification, rendering) is about 0.1 ms and
# a grid point of a cached bare level 0.02 us; a row counts as at least this.
_ORACLE_ROW_POINTS = 1024


def _check_table_size(flag, count, size_flag, size):
    """Refuse more than 10**6 rows: `count` repeats of `flag` times `size` rows each."""
    if count * size > 10**6:
        raise ValueError(f"{count} {flag} values x {size_flag} {size} = {count * size} rows; "
                         "a table holds at most 1000000")


precise_rydberg = option(
    "--precise-rydberg",
    dest="ry",
    const=relativistic.RYDBERG_EV_PRECISE,
    default=relativistic.RYDBERG_EV,
    help="Use 13.605693 eV instead of the tabulated 13.6 eV.",
)


@table_command(
    "sigma",
    ["alpha", "order", "sigma"],
    option("--model", _Choice(*[m.value for m in ModelKind]), required=True),
    option("--n", quantum_number, required=True, help="Lower level of the gap pair."),
    option("--alpha", _float, dest="alphas", append=True, required=True,
           help="Strength; repeat the flag for several values."),
    option("--max-order", _IntRange(1, 50000), default=30),
)
def cmd_sigma(model, n, alphas, max_order):
    """Gap ratio sigma versus truncation order, one row per (alpha, order)."""
    _check_table_size("--alpha", len(alphas), "--max-order", max_order)
    cells, skipped, notes = models._sigma_columns(ModelKind(model), n, alphas, max_order)
    skipped = [f"skipped alpha={alpha:.6g}: {reason}" for alpha, reason in skipped]
    return cells, skipped + list(notes), None


@table_command(
    "hydrogen-table",
    ["n", "E_complex_eV", "E_relativistic_eV", "E_quaternionic_eV", "alphaW_eV"],
    option("--alphaw", _float, required=True, help="Coupling alpha*|W| in eV."),
    option("--n-max", _IntRange(1, 100000), default=5),
    precise_rydberg,
)
def cmd_hydrogen_table(alphaw, n_max, ry):
    """Hydrogen levels: bare vs relativistic vs quaternionic, in eV."""
    cells, omitted = relativistic._comparison_columns(alphaw, n_max, ry)
    return [*cells, alphaw], [f"omitted n={n}: {reason}" for n, reason in omitted], None


@table_command(
    "levels",
    ["n", "alphaW_eV", "energy_eV"],
    option("--n", quantum_number, dest="n_list", append=True, required=True,
           help="Principal quantum number; repeatable."),
    option("--samples", _IntRange(2, 100000), default=100),
    precise_rydberg,
)
def cmd_levels(n_list, samples, ry):
    """Hydrogen level curves over the admissible coupling range, in eV."""
    _check_table_size("--n", len(n_list), "--samples", samples)
    return relativistic._level_columns(n_list, samples, ry), [], None


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
    option("--n", quantum_number, dest="n_list", append=True, required=True,
           help="Quantum number; repeatable."),
    option("--alpha", _float, dest="alphas", append=True, required=True,
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
    cells = list(zip(*rows))
    if len(pairs) == 1:  # one comparison keeps its one-line error
        return cells, [], failures[0][2] if failures else None
    notes = [f"n={n} alpha={alpha:.6g}: {message}" for n, alpha, message in failures]
    summary = f"{len(failures)} of {len(rows)} comparisons failed" if failures else None
    return cells, notes, summary


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
    cells = [range(1, max_order + 1), coefficients, evaluation.terms, evaluation.partial_sums,
             limit, evaluation.in_radius]
    return cells, notes, None


def _parse(name: str, argv: list[str]) -> dict | None:
    """The command's option values by destination, or None after printing --help.

    Raises ValueError with the message of the first fault, in this order:
    a value flag at the end with no value; the first flag given "=value"
    that takes none; the first unknown option; extra arguments.  Then
    --help prints the help; then the first invalid value and the first
    missing required option, each in table order.
    """
    table = _COMMANDS[name][2]
    given, extra, stray, unknown = {}, [], None, None
    words = iter(argv)
    for word in words:
        if word == "--":  # the end of the options: every later word is extra
            extra += words
            break
        flag, equals, value = word.partition("=")
        record = table.get(flag)
        if record is None:
            if word[:1] != "-":
                extra.append(word)
            elif unknown is None:
                unknown = flag
        elif record.kind is None:
            if equals and stray is None:  # a value given to a flag that takes none
                stray = flag
            given[record.dest] = record.const
        else:
            if not equals:  # the next word is the value, whatever it looks like
                value = next(words, None)
                if value is None:
                    raise ValueError(f"Option '{flag}' requires an argument.")
            if record.append:
                given.setdefault(record.dest, []).append(value)
            else:
                given[record.dest] = value
    if stray:
        raise ValueError(f"Option '{stray}' does not take a value.")
    if unknown:
        raise ValueError(_no_such_option(unknown, list(table)))
    if extra:
        raise ValueError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                         f"({' '.join(extra)})")
    values = {record.dest: record.default for record in table.values()} | given
    if values.pop("help"):
        sys.stdout.write(_help(name))
        return None
    for record in table.values():
        if record.kind is not None and record.dest in given:
            try:
                values[record.dest] = ([*map(record.kind, given[record.dest])] if record.append
                                       else record.kind(given[record.dest]))
            except ValueError as exc:
                raise ValueError(f"Invalid value for '{record.flag}': {exc}") from None
    for record in table.values():
        if record.required and record.dest not in given:
            raise ValueError(f"Missing option '{record.flag}'.")
    return values


def _help(name: str) -> str:
    """The command's --help: each option's help text in one column, which
    starts at most 29 characters in, wrapped to the terminal's width less 2."""
    import shutil
    import textwrap

    body, _, table = _COMMANDS[name]
    rows = [(record.flag if record.kind is None else
             f"{record.flag} {_METAVARS.get(record.kind) or record.kind.metavar}", record.help)
            for record in table.values()]
    width = shutil.get_terminal_size().columns - 2
    column = min(max(len(invocation) for invocation, _ in rows) + 4, 29, max(width - 20, 4))
    lines = [f"Usage: {_program_name()} {name} [OPTIONS]", "",
             textwrap.fill(" ".join(body.__doc__.split()), max(width, 11)), "", "Options:"]
    for invocation, text in rows:
        wrapped = textwrap.wrap(text, max(width - column, 11))
        if wrapped and len(invocation) <= column - 4:  # the help starts on its line
            lines.append(f"  {invocation:<{column - 4}}  {wrapped.pop(0)}")
        else:
            lines.append(f"  {invocation}")
        lines += [" " * column + line for line in wrapped]
    return "\n".join(lines) + "\n"


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
        cells, notes, failure = body(**params)
    except ValueError as exc:
        raise UsageError(str(exc), name) from None
    for note in notes:
        print(f"{name}: {note}", file=sys.stderr)
    write_output(spec, columns, Columns(cells))
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
