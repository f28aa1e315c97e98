"""One workload in one fresh process: set up, report ready, measure, report.

    python worker.py --workload W --seed S --seconds T --trace 0|1
                     --root CHECKOUT --tmp DIR --launched-at PERF_COUNTER

Protocol on stdout, one JSON object per line after a tag:

* ``READY {...}`` once the workload's modules are imported and one warm-up
  op has run and passed its check, with the import times and the set-up
  seconds (interpreter start, the program's imports and the warm-up op);
* then the parent writes ``go`` or ``exit`` on stdin;
* after ``go``: ``RESULT {...}`` with the op samples, failures, peak memory
  and, in a traced run, the per-layer summary.

Untraced runs measure whole blocks of ops until ``--seconds`` have passed.
Traced runs measure untraced for half the time, then replay the same ops
with the layers wrapped, so the tracing overhead compares like with like.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def import_program(workload: str, src: str, launched_at: float) -> dict:
    """Import the workload's modules of quatpert from ``src``; seconds per step.

    Runs before the benchmark's own modules are imported, so that none of
    the program's dependencies is already in memory when it is timed.
    """
    sys.path.insert(0, src)
    imports = {"import.interpreter": STARTED - launched_at}
    start = time.perf_counter()
    import quatpert.cli  # noqa: F401

    imports["import.cli"] = time.perf_counter() - start
    if workload == "oracle-sweep":
        start = time.perf_counter()
        import quatpert.oracle  # noqa: F401

        imports["import.oracle"] = time.perf_counter() - start
    return imports


if __name__ == "__main__":
    OPTS = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    IMPORTS = import_program(OPTS["--workload"], os.path.join(OPTS["--root"], "src"),
                             float(OPTS["--launched-at"]))

import json  # noqa: E402
import resource  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS_KEPT = 5


def blas_info() -> dict:
    """numpy's BLAS build and the thread count its OpenBLAS runs with."""
    import ctypes
    import glob

    import numpy

    info = dict(numpy.__config__.CONFIG["Build Dependencies"]["blas"])
    info = {key: info.get(key) for key in ("name", "version", "openblas configuration")}
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                info["threads"] = getter()
                break
    return info


class Loop:
    """Runs ops one after another and keeps what the result needs."""

    def __init__(self, workload):
        self.workload = workload
        self.op_ms: list[float] = []
        self.rows = 0
        self.failed = 0
        self.errors: list[str] = []

    def step(self, op) -> float:
        start = time.perf_counter()
        try:
            outcome = self.workload.run(op)
            error = None
        except Exception as exc:  # a program failure counts; it never stops the run
            error = f"{op['cmd']} raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                self.rows += self.workload.check(op, outcome)
            except checks.CheckError as exc:
                error = str(exc)
            except (ValueError, TypeError, KeyError, IndexError, StopIteration) as exc:
                error = f"{op['cmd']}: malformed output ({type(exc).__name__}: {exc})"
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(error)
        self.op_ms.append(elapsed * 1e3)
        return elapsed


def make_workload(name, tmp, root):
    if name == "oracle-sweep":
        return workloads.InProcessOracle()
    if name == "series-figure":
        return workloads.InProcessCli(tmp)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
    return workloads.Subprocess(tmp, sys.executable, env, launcher)


def traced_replay(name, workload, ops, tmp):
    """Replay ``ops`` with the layers wrapped.

    Returns the busy seconds, the recorder, the loop and the share of
    workload processes that ended with scipy imported.
    """
    recorder = spans.Recorder()
    scipy_loaded = []
    if name == "cli-cold":
        workload.trace_path = os.path.join(tmp, "spans.json")
    else:
        recorder.install()
    loop = Loop(workload)
    busy = 0.0
    for index, op in enumerate(ops):
        recorder.op = index
        busy += loop.step(op)
        if name == "cli-cold" and os.path.exists(workload.trace_path):
            with open(workload.trace_path, encoding="utf-8") as handle:
                data = json.load(handle)
            os.unlink(workload.trace_path)
            recorder.spans += spans.spans_from_export(data["spans"], index, len(recorder.spans))
            for key, value in data["counts"].items():
                recorder.counts[key] += value
            scipy_loaded.append(data["scipy_loaded"])
    if name != "cli-cold":
        scipy_loaded.append("scipy" in sys.modules)
    return busy, recorder, loop, sum(scipy_loaded) / max(1, len(scipy_loaded))


def layer_summary(recorder, n_ops: int) -> dict:
    stats = spans.layer_stats(recorder.spans)
    imports = {
        name: sorted(s.end - s.start for s in recorder.spans if s.name == name)
        for name in spans.IMPORT_SPANS
    }
    return {
        "ops": n_ops,
        "spans": {name: stats.get(name, {"calls": 0, "busy": 0.0, "self": 0.0})
                  for name in spans.SPAN_NAMES},
        "counts": recorder.counts,
        "imports": {name: values for name, values in imports.items() if values},
    }


def main(opts: dict, imports: dict) -> int:
    workload_name, tmp, root = opts["--workload"], opts["--tmp"], opts["--root"]
    seed, seconds, trace = int(opts["--seed"]), float(opts["--seconds"]), opts["--trace"] == "1"
    src = os.path.join(root, "src")
    cli_file = sys.modules["quatpert.cli"].__file__
    if not cli_file.startswith(src + os.sep):
        print(f"quatpert was imported from {cli_file}, not {src}", file=sys.stderr)
        return 2

    workload = make_workload(workload_name, tmp, root)
    warmup = Loop(workload)
    # Set-up is the program's own time: interpreter start, its imports and
    # one op, without the benchmark's imports or the op's check.
    setup_s = sum(imports.values()) + warmup.step(workloads.WARMUP[workload_name])
    print("READY " + json.dumps({"imports": imports, "setup_s": setup_s}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    stream = workloads.blocks(workload_name, seed)
    loop = Loop(workload)
    done = []
    window = seconds / 2 if trace else seconds
    deadline = time.perf_counter() + window
    busy = 0.0
    while time.perf_counter() < deadline:
        for op in next(stream):
            done.append(op)
            busy += loop.step(op)

    result = {
        "op_ms": loop.op_ms,
        "rows": loop.rows,
        "failed": loop.failed,
        "errors": loop.errors,
        "busy_s": busy,
        "violations": [f"warm-up op failed: {error}" for error in warmup.errors],
    }
    if trace:
        traced_busy, recorder, traced, scipy_share = traced_replay(
            workload_name, workload, done, tmp)
        result["failed"] += traced.failed
        result["errors"] += traced.errors
        result["attempted"] = 2 * len(done)
        result["layers"] = layer_summary(recorder, len(done))
        result["layers"]["overhead_ratio"] = traced_busy / busy - 1.0
        result["layers"]["scipy_loaded"] = scipy_share
    else:
        result["attempted"] = len(done)
        who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if workload_name == "series-figure" and "scipy" in sys.modules:
        result["violations"].append("series-figure imported scipy")
    if workload_name == "series-figure" and not trace:
        probe = Loop(workload)
        result["known_defects"] = {}
        for label, op in workloads.KNOWN_DEFECTS.items():
            failed = probe.failed
            probe.step(op)
            result["known_defects"][label] = probe.errors[-1] if probe.failed > failed else "passes"
    result["blas"] = blas_info()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(OPTS, IMPORTS))
