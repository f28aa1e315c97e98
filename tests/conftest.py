import io
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quatpert.cli import main

# the categories a fresh interpreter hides by default; it prints the others
_HIDDEN_WARNINGS = (DeprecationWarning, PendingDeprecationWarning, ImportWarning, ResourceWarning)


@pytest.fixture(autouse=True)
def fresh_bare_levels():
    """Start every test with an empty oracle bare-level cache, so a test that
    patches the bare solve reaches it.  The oracle is not imported for this:
    a test that never loads it must not load numpy."""
    oracle = sys.modules.get("quatpert.oracle")
    if oracle is not None:
        oracle._bare_level.cache_clear()


@pytest.fixture
def run_cli():
    """Run the CLI in this process, as `python -m quatpert` would run it.

    Returns a CompletedProcess: main's exit code, and what it wrote to
    stdout and stderr.  As in a fresh interpreter, warnings are printed to
    stderr, not raised, and an uncaught exception prints its traceback
    there and exits 1.
    """

    def run(*args, expect=None):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            for category in _HIDDEN_WARNINGS:
                warnings.simplefilter("ignore", category)
            try:
                returncode = main(list(args))
            except Exception:
                traceback.print_exc()
                returncode = 1
        for w in caught:
            err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
        proc = subprocess.CompletedProcess(
            ["quatpert", *args], returncode, out.getvalue(), err.getvalue()
        )
        if expect is not None:
            assert proc.returncode == expect, (proc.stdout, proc.stderr)
        return proc

    return run
