"""Run a kerrspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of esqpt_xi, crossings_eta, diagonal_crossings, sweep_cli_full,
or ``all`` to run the four in turn in one process.  With ``--trace 0`` the
workload is executed repeatedly for about S seconds and the end-to-end
metrics (medians over executions) are reported; with ``--trace 1`` one more,
traced, execution follows and the per-layer metrics are reported instead.
Every execution's outputs are checked.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("esqpt_xi", "crossings_eta", "diagonal_crossings", "sweep_cli_full")

# Fresh interpreters started to time set-up, spread over the measuring window
# so that they see the same machine speed as the executions; their median is
# setup_s.
SETUP_REPEATS = 7

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _setup_seconds(name: str, seed: int, workdir: Path) -> float:
    """One set-up measurement in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir / "setup")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def _execute(W, name: str, inputs: dict, index: int):
    """One execution: (outputs or None if it raised, wall seconds, CPU seconds)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        out = W.execute(name, inputs, index)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    return out, time.perf_counter() - wall0, time.process_time() - cpu0


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    import check as C
    import workloads as W

    reference = C.load_reference()
    inputs = W.build(name, seed, workdir / name)
    attempted = failed = 0
    notes: list[str] = []

    def record(out, index):
        nonlocal attempted, failed
        try:
            tally = C.check(name, seed, out, reference)
        except Exception:
            # outputs too malformed to inspect: every expected item fails
            traceback.print_exc(file=sys.stderr)
            tally = C.check(name, seed, None, reference)
        attempted += tally.attempted
        failed += tally.failed
        notes.extend(f"execution {index}: {n}" for n in tally.notes)
        if name == "sweep_cli_full":
            shutil.rmtree(inputs["workdir"] / f"out{index}", ignore_errors=True)

    walls, cpus, setups = [], [], []
    start = time.perf_counter()
    while True:
        index = len(walls)
        out, wall, cpu = _execute(W, name, inputs, index)
        walls.append(wall)
        cpus.append(cpu)
        record(out, index)
        del out
        # the set-up measurements due by now, one per 1/SETUP_REPEATS of the window
        elapsed = time.perf_counter() - start
        while len(setups) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * elapsed / seconds)):
            setups.append(_setup_seconds(name, seed, workdir))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_seconds(name, seed, workdir))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "name": name,
        "executions": len(walls),
        "metrics": {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
        },
    }
    if traced:
        import spans as T

        with T.Tracer() as tracer:
            out, wall, _ = _execute(W, name, inputs, len(walls))
        record(out, len(walls))
        del out
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        result["layers"] = T.layer_metrics(tracer.spans, wall - result["metrics"]["wall_s"])
    result.update(attempted=attempted, failed=failed, notes=notes)
    return result


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "scipy_lapack": f"{lapack['name']} {lapack['version']}",
        "scipy_blas_threads": _scipy_blas_threads(),
        "library_threads": 1,
    }


def _scipy_blas_threads():
    """Thread count of the OpenBLAS that scipy.linalg calls, or the env setting."""
    import ctypes
    import glob

    import scipy

    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _summary(r: dict) -> str:
    m = r["metrics"]
    frac = r["failed"] / r["attempted"] if r["attempted"] else 1.0
    parts = [f"{k}={m[k]:.4f} {END_TO_END_UNITS[k]}" for k in END_TO_END_UNITS]
    return (
        f"{r['name']}: executions={r['executions']} " + " ".join(parts)
        + f" failed_frac={frac:.4g} ({r['failed']}/{r['attempted']} items)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kerrspec" / "__init__.py").is_file():
        print(f"error: no kerrspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = [
            run_workload(n, args.seed, args.seconds, bool(args.trace), workdir) for n in names
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("environment " + json.dumps(environment()))
    metrics = {}
    for r in results:
        print(_summary(r))
        for note in r["notes"][:20]:
            print(f"  FAILED {note}", file=sys.stderr)
        if args.trace:
            import spans as T

            values, units = r["layers"], T.LAYER_METRICS
            print("  " + " ".join(f"{k}={v:.6g}" for k, v in values.items()))
        else:
            values, units = r["metrics"], END_TO_END_UNITS
        prefix = f"{r['name']}." if args.workload == "all" else ""
        metrics.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}
        )
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
