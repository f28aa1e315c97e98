"""Benchmark for quatpert: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {oracle-sweep,series-figure,cli-cold,all}
                             --seed N --seconds T --trace {0,1}

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  Every workload runs in fresh worker processes, each of
which sets up (imports and one warm-up op); set-up time is the median of
``SETUPS`` of them.  The middle one measures, and the others only set up,
half before it and half after, so that set-up samples spread over the run.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric with its unit and sample count, and a provenance block.
See README.md in this directory for the metric dictionary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle-sweep", "series-figure", "cli-cold")
SETUPS = 9
READY_TIMEOUT_S = 30.0
RESULT_GRACE_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "rows_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _name in spans.SPAN_NAMES:
    PER_LAYER[f"{_name}.calls_per_op"] = "calls/op"
    PER_LAYER[f"{_name}.busy_ms_per_op"] = "ms/op"
    PER_LAYER[f"{_name}.self_ms_per_op"] = "ms/op"
PER_LAYER.update({
    "import.interpreter_ms": "ms",
    "import.cli_ms": "ms",
    "import.oracle_ms": "ms",
    "import.scipy_loaded_ratio": "ratio",
    "series.terms_per_op": "terms/op",
    "models.sigma_rows_per_op": "rows/op",
    "relativistic.rows_per_op": "rows/op",
    "output.rows_per_op": "rows/op",
    "output.bytes_per_op": "bytes/op",
    "oracle.matrix_dim": "count",
    "oracle.eigs_computed_per_op": "eigs/op",
    "oracle.eigs_used_per_op": "eigs/op",
    "oracle.eig_useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
})


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


class Worker:
    """One ``worker.py`` process and its line protocol."""

    def __init__(self, workload, args, tmp: Path, log):
        self.launched_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--root", str(ROOT), "--tmp", str(tmp),
             "--launched-at", repr(self.launched_at)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
        )

    def read(self, tag: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                raise BenchError(f"worker gave no {tag} line within {timeout:.0f} s")
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(f"worker exited with code {self.proc.wait()} before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_workload(workload: str, args, tmp: Path) -> dict:
    """Set up SETUPS times, measure in the middle worker, return the raw result."""
    setup_s, imports, result = [], {}, None
    with open(tmp / f"{workload}.log", "w") as log:
        for index in range(SETUPS):
            worker = Worker(workload, args, tmp, log)
            try:
                ready = worker.read("READY", READY_TIMEOUT_S)
                setup_s.append(ready["setup_s"])
                for name, seconds in ready["imports"].items():
                    imports.setdefault(name, []).append(seconds)
                if index != SETUPS // 2:
                    worker.send("exit")
                    continue
                worker.send("go")
                limit = args.seconds * (2 if args.trace else 1) + RESULT_GRACE_S
                result = worker.read("RESULT", limit)
            finally:
                worker.stop()
    result["setup_s"] = setup_s
    result["setup_imports"] = imports
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, int]]:
    """Metric -> (value, samples) from an untraced run."""
    op_ms, busy = result["op_ms"], result["busy_s"]
    n = len(op_ms)
    p90 = statistics.quantiles(op_ms, n=10)[-1] if n > 1 else op_ms[0]
    attempted = result["attempted"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), len(result["setup_s"])),
        "op_ms_p50": (statistics.median(op_ms), n),
        "op_ms_p90": (p90, n),
        "ops_per_s": (n / busy, n),
        "rows_per_s": (result["rows"] / busy, n),
        "ok_ratio": ((attempted - result["failed"]) / attempted, attempted),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def per_layer(result: dict) -> dict[str, tuple[float, int]]:
    """Metric -> (value, samples) from a traced run, normalised per op."""
    layers = result["layers"]
    n = max(1, layers["ops"])
    metrics = {}
    for name, stats in layers["spans"].items():
        metrics[f"{name}.calls_per_op"] = (stats["calls"] / n, n)
        metrics[f"{name}.busy_ms_per_op"] = (stats["busy"] * 1e3 / n, n)
        metrics[f"{name}.self_ms_per_op"] = (stats["self"] * 1e3 / n, n)
    # cli-cold ops start their own interpreters and time their imports;
    # in-process workloads import once, in each set-up worker.
    imports = layers["imports"] or result["setup_imports"]
    for name in spans.IMPORT_SPANS:
        values = imports.get(name, [])
        metrics[f"{name}_ms"] = (statistics.median(values) * 1e3 if values else 0.0, len(values))
    counts = layers["counts"]
    compares = layers["spans"]["oracle.compare"]["calls"]
    computed, used = counts["oracle.eigs_computed"], counts["oracle.eigs_used"]
    metrics.update({
        "import.scipy_loaded_ratio": (layers["scipy_loaded"], n),
        "series.terms_per_op": (counts["series.terms"] / n, n),
        "models.sigma_rows_per_op": (counts["models.sigma_rows"] / n, n),
        "relativistic.rows_per_op": (counts["relativistic.rows"] / n, n),
        "output.rows_per_op": (counts["output.rows"] / n, n),
        "output.bytes_per_op": (counts["output.bytes"] / n, n),
        "oracle.matrix_dim": (counts["oracle.matrix_dim"] / compares if compares else 0.0, compares),
        "oracle.eigs_computed_per_op": (computed / n, n),
        "oracle.eigs_used_per_op": (used / n, n),
        "oracle.eig_useful_ratio": (used / computed if computed else 0.0, compares),
        "trace.overhead_ratio": (layers["overhead_ratio"], n),
    })
    return metrics


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quatpert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, args, result: dict, samples: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": result["blas"],
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "fail_ratio": result["failed"] / result["attempted"],
        "errors": result["errors"] + result["violations"],
        "known_defects": result.get("known_defects"),
        "samples": samples,
    }


def report(workload: str, args, result: dict) -> dict:
    """Print one workload's metrics and provenance; return its summary."""
    values = per_layer(result) if args.trace else end_to_end(result)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, samples) in values.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]:<9} n={samples}")
    for error in result["errors"] + result["violations"]:
        print(f"  failure: {error}")
    samples = {name: count for name, (_, count) in values.items()}
    print(json.dumps({"provenance": provenance(workload, args, result, samples)}))
    return {
        "correct": result["failed"] == 0 and not result["violations"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quatpert" / "cli.py").is_file():
        print(f"perfbench: no quatpert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / f".perfbench-tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = {name: report(name, args, run_workload(name, args, tmp)) for name in names}
    except BenchError as exc:
        for log in sorted(tmp.glob("*.log")):
            sys.stderr.write(log.read_text()[-4000:])
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(summaries) == 1:
        final = summaries[args.workload]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}/{name}": metric for w, s in summaries.items()
                        for name, metric in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
