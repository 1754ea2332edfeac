"""The benchmark's four workloads: inputs built from a seed, one execution each.

Every workload is a closed-loop batch job with one caller: build the inputs,
call the library, return (or write) the outputs.  The library has no
randomness; the seed only shifts each grid's origin by a fixed fraction of
its step, and seed 0 gives exactly the production grids.  Library functions
are looked up as module attributes at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import kerrspec.classify  # noqa: E402
import kerrspec.cli  # noqa: E402
import kerrspec.esqpt  # noqa: E402
import kerrspec.sweep  # noqa: E402
from kerrspec.fock import HamiltonianSpec  # noqa: E402

# Fixed inputs shared by the workload builders and the output checks.
ESQPT_V_MAX = 12
CROSSINGS_MAX_LEVELS = 12
TRACK_PAIR = (0, 3, 1, 3)
TRACK_XIS = (0.5, 1.0, 2.0, 4.0, 8.0)
TRACK_ETA0 = 6
GRIDS = {
    # name: (start, step, number of points)
    "esqpt_xi": (0.0, 0.05, 841),
    "crossings_eta": (0.0, 0.05, 161),
    "diagonal_crossings": (0.0, 0.3, 41),
    "sweep_cli_full": (0.0, 0.05, 241),
}
BASES = {
    # name: (n_max, n_probe)
    "esqpt_xi": (800, 900),
    "crossings_eta": (800, 900),
    "diagonal_crossings": (300, 350),
    "sweep_cli_full": (800, 900),
}
TOL_CONV = 1e-8

_GOLDEN = 0.6180339887498949


def origin_fraction(seed: int) -> float:
    """Fraction of a grid step by which the seed shifts every grid; 0 for seed 0."""
    return (seed * _GOLDEN) % 1.0


def grid_values(name: str, seed: int) -> tuple[float, ...]:
    start, step, count = GRIDS[name]
    f = origin_fraction(seed)
    return tuple(start + step * (i + f) for i in range(count))


def plan(name: str, seed: int):
    """The workload's sweep plan; for ``sweep_cli_full`` the plan its config describes."""
    n_max, n_probe = BASES[name]
    varying, fixed = {
        "esqpt_xi": ("xi", HamiltonianSpec(eta=0.0)),
        "crossings_eta": ("eta", HamiltonianSpec(xi=1.0)),
        "diagonal_crossings": ("eta", HamiltonianSpec()),
        "sweep_cli_full": ("eta", HamiltonianSpec(xi=1.0)),
    }[name]
    return kerrspec.sweep.SweepPlan(
        varying=varying,
        grid=grid_values(name, seed),
        fixed=fixed,
        n_max=n_max,
        n_probe=n_probe,
        tol_conv=TOL_CONV,
    )


def cli_config(seed: int) -> dict:
    """The README sweep configuration without ``svg.max_levels``, grid shifted by the seed."""
    step = GRIDS["sweep_cli_full"][1]
    values = grid_values("sweep_cli_full", seed)
    n_max, n_probe = BASES["sweep_cli_full"]
    return {
        "schema_version": 1,
        "command": "sweep",
        "hamiltonian": {"eta": 0.0, "xi": 1.0},
        "numeric": {"n_max": n_max, "n_probe": n_probe},
        "grid": {"varying": "eta", "start": values[0], "stop": values[-1], "step": step},
        "coloring": "parity",
        "output": {"directory": "out", "formats": ["csv", "svg"]},
        "svg": {"y_min": 0, "y_max": 60, "separatrices": ["combined", "combined_prime"]},
    }


def build(name: str, seed: int, workdir: Path) -> dict:
    """Inputs of one workload: a sweep plan, or a config file written under ``workdir``."""
    if name == "sweep_cli_full":
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "sweep.json"
        path.write_text(json.dumps(cli_config(seed)))
        return {"config": path, "workdir": workdir}
    return {"plan": plan(name, seed)}


def execute(name: str, inputs: dict, run_index: int) -> dict:
    """One execution of a workload; returns everything the output check reads."""
    if name == "esqpt_xi":
        grid = kerrspec.sweep.run_sweep(inputs["plan"], threads=1)
        curves = kerrspec.esqpt.gap_curves(grid, ESQPT_V_MAX)
        estimates = [
            estimator(curve)
            for curve in curves[1:]
            for estimator in (
                kerrspec.esqpt.xi_c_max_rate,
                kerrspec.esqpt.xi_c_linear_extrapolation,
                kerrspec.esqpt.xi_c_difference_bound,
            )
        ]
        separatrix = kerrspec.esqpt.separatrix_from_estimates(
            [e for e in estimates if e is not None]
        )
        return {"grid": grid, "estimates": estimates, "separatrix": separatrix}
    if name in ("crossings_eta", "diagonal_crossings"):
        grid = kerrspec.sweep.run_sweep(inputs["plan"], threads=1)
        events = kerrspec.classify.detect_crossings(grid, max_levels=CROSSINGS_MAX_LEVELS)
        out = {"grid": grid, "events": events}
        if name == "crossings_eta":
            out["tracked"] = kerrspec.classify.track_crossing_location(
                kerrspec.classify.LevelPair(*TRACK_PAIR),
                "P2",
                TRACK_XIS,
                TRACK_ETA0,
                n_max=BASES[name][0],
            )
        return out
    if name == "sweep_cli_full":
        out_dir = inputs["workdir"] / f"out{run_index}"
        code = kerrspec.cli.main(
            ["--config", str(inputs["config"]), "--threads", "1", "--out", str(out_dir)]
        )
        return {"exit_code": code, "out_dir": out_dir}
    raise ValueError(f"unknown workload {name!r}")
