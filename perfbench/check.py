"""Output checks that feed ``failed_frac``.

An item is one checked level block, crossing event, tracked point, estimate
or output file.  It fails when it is missing, outside tolerance, or lost to
an exception or a nonzero CLI exit.  Comparisons use tolerances, never byte
hashes, so a change that moves the 12th digit of a level still passes.

Three kinds of check are made:

* against ``reference/seed0.json`` (values of the seed-0 run): sampled level
  blocks at seed 0, and for any seed the ESQPT estimates and the avoided
  crossings, whose locations do not depend on where the grid nodes fall;
* against an independent solve, for any seed: sampled level blocks of the
  ``xi``/``eta`` sweeps match the lowest eigenvalues of the same truncated
  parity blocks, built here as tridiagonal matrices and solved with
  ``scipy.linalg.eigvalsh_tridiagonal`` (the library uses ``eig_banded``);
* analytic, for any seed: diagonal levels ``E_n = -eta n + n(n-1)`` and
  their crossings at ``eta* = r_a + r_b - 1``, the pinned crossings of the
  ``xi = 1`` sweep at even integer ``eta``, the criterion-5 slope and
  criterion-6 separatrix bounds, and the tracked ``eta* = 6``.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

import workloads as W

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "seed0.json"

# Lowest levels per parity sector compared in each sampled level block.
LEVELS_PER_BLOCK = 12
# Every SAMPLE_STRIDE-th grid point (and the last) is a sampled level block.
SAMPLE_STRIDE = 10
# Refined crossing locations agree to this; across seeds they differ by < 1e-7.
PARAM_TOL = 1e-6
# Estimate tolerances (xi_c absolute, E_c relative), per method: a few times
# the grid-shift sensitivity of each estimator measured over seeds, where
# xi_c moved < 1e-4 (max-rate), < 3e-4 (difference-bound) and < 0.03
# (linear-extrapolation, whose fit window depends on the nodes).
ESTIMATE_TOL = {
    "max_rate": (1e-3, 1e-4),
    "difference_bound": (2e-3, 2e-4),
    "linear_extrapolation": (0.1, 0.01),
}
SLOPE_RANGE = (3.0, 3.25)
SEPARATRIX_MAX_DEV = 0.15
TRACK_TOL = 1e-4


class Tally:
    """Attempted and failed item counts, with a note for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sample_indices(count: int) -> list[int]:
    idx = list(range(0, count, SAMPLE_STRIDE))
    if idx[-1] != count - 1:
        idx.append(count - 1)
    return idx


def grid_blocks(grid) -> dict | None:
    """Sampled blocks of a SpectrumGrid: {(g, r): (absolute levels, converged flags)}."""
    if grid is None:
        return None
    out = {}
    for r in (0, 1):
        absolute = grid.absolute(r)
        for g in sample_indices(len(grid.params)):
            # copies, so that no view keeps a whole level array alive
            out[(g, r)] = (
                absolute[g, :LEVELS_PER_BLOCK].copy(),
                grid.converged[r][g, :LEVELS_PER_BLOCK].copy(),
            )
    return out


@functools.lru_cache(maxsize=None)
def expected_levels(name: str, seed: int) -> tuple:
    """Independent solve of the sampled blocks: [sample][parity] -> lowest levels.

    H = -eta n + n(n-1) - xi (a^dag^2 + a^2) on n <= n_max keeps photon-number
    parity; in the basis r, r+2, ... of parity r it is tridiagonal with
    off-diagonal -xi sqrt((n+1)(n+2)).
    """
    plan = W.plan(name, seed)
    n = np.arange(plan.n_max + 1, dtype=float)
    out = []
    for g in sample_indices(len(plan.grid)):
        spec = plan.spec_at(plan.grid[g])
        assert (spec.xi3, spec.xi4, spec.xi2p, spec.higher) == (0.0, 0.0, 0.0, None)
        diag = -spec.eta * n + n * (n - 1)
        off = -spec.xi * np.sqrt((n[:-2] + 1) * (n[:-2] + 2))
        out.append(
            tuple(
                eigvalsh_tridiagonal(
                    diag[r::2], off[r::2], select="i", select_range=(0, LEVELS_PER_BLOCK - 1)
                )
                for r in (0, 1)
            )
        )
    return tuple(out)


def csv_scan(path: Path, count: int):
    """Row count, sampled params and sampled blocks of a sweep CSV, read line by line."""
    wanted = set(sample_indices(count))
    blocks: dict = {}
    params: dict[int, float] = {}
    rows = 0
    g = -1
    last_param = None
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        col = {name: i for i, name in enumerate(header)}
        for line in fh:
            rows += 1
            fields = line.split(",")
            if fields[col["param"]] != last_param:
                last_param = fields[col["param"]]
                g += 1
                if g in wanted:
                    params[g] = float(last_param)
            if g in wanted and int(fields[col["level_index"]]) < LEVELS_PER_BLOCK:
                key = (g, int(fields[col["sector_residue"]]))
                energies, flags = blocks.setdefault(key, ([], []))
                energies.append(float(fields[col["energy"]]))
                flags.append(fields[col["converged"]] == "1")
    blocks = {k: (np.array(e), np.array(f)) for k, (e, f) in blocks.items()}
    return rows, params, blocks


def _close(got, want) -> bool:
    want = np.asarray(want)
    return bool(np.all(np.abs(got - want) <= W.TOL_CONV * np.maximum(1.0, np.abs(want))))


def _check_blocks(t: Tally, blocks, count: int, reference_levels, expected) -> None:
    """Sampled blocks stay certified and match the independent solve, and at
    seed 0 the reference levels."""
    for n, g in enumerate(sample_indices(count)):
        for r in (0, 1):
            got = blocks.get((g, r)) if blocks is not None else None
            ok = (
                got is not None
                and len(got[0]) == LEVELS_PER_BLOCK
                and bool(got[1].all())
                and _close(got[0], expected[n][r])
                and (reference_levels is None or _close(got[0], reference_levels[n][r]))
            )
            t.item(ok, f"level block g={g} r={r}")


def _check_events(t: Tally, events, catalogue, lo: float, hi: float, step: float) -> None:
    """Every catalogue event inside the grid is found once; nothing else is found.

    Events at the ends of the grid are optional: a true crossing sitting on
    an end node is found or not depending on the sign of a roundoff-level
    difference, and an avoided crossing needs sample points on both sides.
    """
    def margin(kind: str) -> float:
        return PARAM_TOL if kind == "true_crossing" else step

    def in_range(p: float, m: float) -> bool:
        return lo - m <= p <= hi + m

    matched: set[int] = set()
    for ev in events or ():
        hit = None
        for j, (kind, pair, p) in enumerate(catalogue):
            if (
                j not in matched
                and kind == ev.kind
                and pair == tuple(ev.level_pair)
                and abs(p - ev.param_value) <= PARAM_TOL
            ):
                hit = j
                break
        if hit is None:
            t.item(False, f"unexpected event {ev.kind} {ev.level_pair} at {ev.param_value}")
            continue
        matched.add(hit)
        kind, _, p = catalogue[hit]
        if not in_range(p, -margin(kind)):
            t.item(True, "optional edge event")
    for j, (kind, pair, p) in enumerate(catalogue):
        if in_range(p, -margin(kind)):
            t.item(j in matched, f"missing event {kind} {pair} at {p}")


def diagonal_catalogue(n_max: int, hi: float) -> list:
    """Crossings of E_n = -eta n + n(n-1): levels a < b meet at eta* = a + b - 1."""
    top = int(math.floor(hi)) + 2
    return [
        ("true_crossing", (a, 0, b, 0), float(a + b - 1))
        for a in range(n_max + 1)
        for b in range(a + 1, min(n_max, top - a + 1) + 1)
    ]


def pinned_crossings(hi: float) -> list:
    """At eta = 2m the two-photon drive keeps the m + 1 lowest parity doublets exact."""
    return [
        ("true_crossing", (0, i, 1, i), float(2 * m))
        for m in range(int(hi // 2) + 2)
        for i in range(min(m + 1, W.CROSSINGS_MAX_LEVELS))
    ]


def check(name: str, seed: int, out: dict | None, reference: dict) -> Tally:
    """Check one execution's outputs; ``out`` is None when the execution raised."""
    t = Tally()
    out = out or {}
    values = W.grid_values(name, seed)
    lo, hi = values[0], values[-1]
    step = W.GRIDS[name][1]
    ref = reference[name]
    ref_levels = ref.get("levels") if seed == 0 else None
    grid = out.get("grid")

    if name == "esqpt_xi":
        _check_blocks(t, grid_blocks(grid), len(values), ref_levels, expected_levels(name, seed))
        _check_estimates(t, out.get("estimates"), out.get("separatrix"), ref["estimates"])
    elif name == "crossings_eta":
        _check_blocks(t, grid_blocks(grid), len(values), ref_levels, expected_levels(name, seed))
        catalogue = pinned_crossings(hi) + [(k, tuple(p), v) for k, p, v in ref["avoided"]]
        _check_events(t, out.get("events"), catalogue, lo, hi, step)
        tracked = out.get("tracked") or []
        for n, xi in enumerate(W.TRACK_XIS):
            p = tracked[n] if n < len(tracked) else None
            ok = (
                p is not None
                and p.found
                and p.coupling_value == xi
                and abs(p.eta_star - W.TRACK_ETA0) <= TRACK_TOL
            )
            t.item(ok, f"tracked point xi={xi}")
    elif name == "diagonal_crossings":
        _check_diagonal_levels(t, grid, values)
        catalogue = diagonal_catalogue(W.BASES[name][0], hi)
        _check_events(t, out.get("events"), catalogue, lo, hi, step)
    elif name == "sweep_cli_full":
        _check_cli(t, out, values, ref_levels, expected_levels(name, seed))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return t


def _check_diagonal_levels(t: Tally, grid, values) -> None:
    """One item per grid point: every one-state sector equals -eta n + n(n-1), certified."""
    n_max = W.BASES["diagonal_crossings"][0]
    n = np.arange(n_max + 1, dtype=float)
    complete = grid is not None and grid.residues == tuple(range(n_max + 1))
    if complete:
        got = np.stack([grid.absolute(r)[:, 0] for r in grid.residues], axis=1)
        flags = np.stack([grid.converged[r][:, 0] for r in grid.residues], axis=1)
    for g, eta in enumerate(values):
        ok = complete
        if ok:
            exact = -eta * n + n * (n - 1)
            tol = W.TOL_CONV * np.maximum(1.0, np.abs(exact))
            ok = bool(flags[g].all() and np.all(np.abs(got[g] - exact) <= tol))
        t.item(ok, f"diagonal levels at eta={eta}")


def _check_estimates(t: Tally, estimates, separatrix, reference) -> None:
    estimates = estimates or []
    for n, (v, method, xi_c, e_c) in enumerate(reference):
        got = estimates[n] if n < len(estimates) else None
        xi_tol, e_tol = ESTIMATE_TOL[method]
        ok = (
            got is not None
            and (got.v, got.method) == (v, method)
            and abs(got.xi_c - xi_c) <= xi_tol
            and abs(got.E_c - e_c) <= e_tol * abs(e_c)
        )
        t.item(ok, f"estimate v={v} {method}")

    max_rate = [e for e in estimates if e is not None and e.method == "max_rate"]
    ok = len(max_rate) == W.ESQPT_V_MAX
    if ok:
        slope = np.polyfit([e.v for e in max_rate], [e.xi_c for e in max_rate], 1)[0]
        ok = SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]
    t.item(ok, "criterion 5: max-rate critical-coupling slope")

    points = [p for p in separatrix or [] if p.method == "max_rate" and p.v >= 4]
    ok = len(points) == W.ESQPT_V_MAX - 3 and max(p.rel_dev for p in points) < SEPARATRIX_MAX_DEV
    t.item(ok, "criterion 6: separatrix deviation for v >= 4")


def _check_cli(t: Tally, out: dict, values, ref_levels, expected) -> None:
    t.item(out.get("exit_code") == 0, f"CLI exit code {out.get('exit_code')}")
    out_dir = out.get("out_dir")
    csv_path = out_dir / "sweep.csv" if out_dir else None
    svg_path = out_dir / "sweep.svg" if out_dir else None
    n_max = W.BASES["sweep_cli_full"][0]
    count = len(values)

    blocks = params = None
    ok = csv_path is not None and csv_path.is_file()
    if ok:
        try:
            rows, params, blocks = csv_scan(csv_path, count)
            ok = rows == count * (n_max + 1)
        except (ValueError, IndexError, KeyError):
            ok = False
    t.item(ok, "sweep.csv with one row per level and grid point")
    ok = params is not None and all(
        g in params and abs(params[g] - values[g]) <= PARAM_TOL for g in sample_indices(count)
    )
    t.item(ok, "sweep.csv grid values at the sampled points")
    _check_blocks(t, blocks, count, ref_levels, expected)

    ok = svg_path is not None and svg_path.is_file()
    if ok:
        # one polyline per level curve plus the two separatrix overlays
        ok = svg_path.read_text().count("<polyline") == n_max + 1 + 2
    t.item(ok, "sweep.svg with every level curve and both separatrices")
