"""Traced stand-in for ``python -m quatpert``, used by the cli-cold traced run.

    python launcher.py SPANS_JSON COMMAND [ARGS...]

Times the interpreter start (from ``PERFBENCH_LAUNCHED_AT``, a
``time.perf_counter`` reading taken by the parent just before it started
this process) and the imports, wraps the same layers as the in-process
traced runs, calls ``quatpert.cli.main`` and writes the spans to
SPANS_JSON before exiting with the command's exit code.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.add("import.interpreter", float(os.environ["PERFBENCH_LAUNCHED_AT"]), STARTED)
    start = time.perf_counter()
    import quatpert.cli

    recorder.add("import.cli", start, time.perf_counter())
    if argv[:1] == ["oracle"]:
        # The command imports the oracle itself; importing it first lets
        # the oracle layers be wrapped and its import be timed on its own.
        start = time.perf_counter()
        import quatpert.oracle  # noqa: F401

        recorder.add("import.oracle", start, time.perf_counter())
    recorder.install()
    try:
        code = quatpert.cli.main(argv)
    finally:
        data = recorder.export()
        data["scipy_loaded"] = "scipy" in sys.modules
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
