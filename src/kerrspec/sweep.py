"""Sector-resolved spectra over 1-D parameter grids.

Each grid point is an independent unit of work: expand the parameter record,
assemble, split into the sweep's common symmetry sectors, diagonalize, and
certify truncation convergence against the probe basis.  Certification runs
on chunks of consecutive points, one batched Sturm count per chunk; chunks
may be evaluated concurrently, and results are merged by grid index, so the
output is identical for any evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .eigensolve import (
    DEFAULT_N_MAX,
    DEFAULT_N_PROBE,
    DEFAULT_TOL_CONV,
    certify,
    eigen,
    eigenvalue,
    sturm_certifiable,
)
from .fock import COUPLING_FIELDS, FockSpace, HamiltonianSpec, assemble, standard_hamiltonian
from .sectors import MOD_ALL, detect_modulus, split

__all__ = [
    "SweepPlan",
    "SpectrumGrid",
    "run_sweep",
    "refine_near",
    "plan_modulus",
    "sector_levels_at",
    "spec_levels",
]

_NORMALIZE_MODES = ("absolute", "excitation")

# Consecutive grid points whose probe blocks share one batched Sturm count.
CHUNK = 16


@dataclass(frozen=True)
class SweepPlan:
    """One varying parameter over a strictly increasing grid."""

    varying: str
    grid: tuple[float, ...]
    fixed: HamiltonianSpec = field(default_factory=HamiltonianSpec)
    n_max: int = DEFAULT_N_MAX
    n_probe: int = DEFAULT_N_PROBE
    tol_conv: float = DEFAULT_TOL_CONV
    normalize: str = "excitation"

    def __post_init__(self) -> None:
        if self.varying not in COUPLING_FIELDS:
            raise ValueError(f"unknown sweep parameter {self.varying!r}")
        grid = tuple(float(g) for g in self.grid)
        if len(grid) < 2:
            raise ValueError("grid needs at least two points")
        if not all(math.isfinite(g) for g in grid):
            raise ValueError("grid values must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if self.normalize not in _NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {_NORMALIZE_MODES}")
        if self.n_probe <= self.n_max:
            raise ValueError("n_probe must exceed n_max")
        object.__setattr__(self, "grid", grid)

    def spec_at(self, value: float) -> HamiltonianSpec:
        return replace(self.fixed, **{self.varying: float(value)})


def plan_modulus(plan: SweepPlan) -> int | str:
    """Common sector structure over the whole grid.

    Points where some coupling vanishes may conserve more than the generic
    point (a diagonal matrix satisfies any modulus), so moduli are combined
    by gcd with the MOD_ALL sentinel as identity.
    """
    g = 0
    for value in plan.grid:
        k = detect_modulus(standard_hamiltonian(plan.spec_at(value)))
        if k != MOD_ALL:
            g = math.gcd(g, k)
    return MOD_ALL if g == 0 else g


def spec_levels(
    spec: HamiltonianSpec, n_max: int, k: int | str, levels: Sequence[tuple[int, int]]
) -> tuple[float, ...]:
    """Absolute energies of the named (residue, index) levels of one Hamiltonian.

    Each level is a single-level solve of its sector block, so asking for
    two levels costs far less than diagonalizing the two blocks.
    """
    decomp = split(assemble(standard_hamiltonian(spec), FockSpace(n_max)), k)
    return tuple(eigenvalue(decomp.sector(r).block, i) for r, i in levels)


def sector_levels_at(
    plan: SweepPlan, value: float, k: int | str, levels: Sequence[tuple[int, int]]
) -> tuple[float, ...]:
    """Absolute energies of the named (residue, index) levels at one grid parameter.

    Crossing refinement evaluates its level pair here many times.
    """
    return spec_levels(plan.spec_at(value), plan.n_max, k, levels)


@dataclass(frozen=True)
class SpectrumGrid:
    """Per-sector level curves over the grid, in the plan's normalization.

    ``curves[r]`` has shape (grid length, levels in sector r) and ascends in
    the level index at every point.  ``ground_energy`` keeps the absolute
    per-point minimum, so absolute and excitation energies are always both
    recoverable.
    """

    plan: SweepPlan
    modulus: int | str
    params: np.ndarray
    curves: dict[int, np.ndarray]
    converged: dict[int, np.ndarray]
    ground_energy: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.params, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "params", p)
        for bundle in (self.curves, self.converged):
            for arr in bundle.values():
                arr.flags.writeable = False
        g = np.asarray(self.ground_energy, dtype=float)
        g.flags.writeable = False
        object.__setattr__(self, "ground_energy", g)

    @property
    def residues(self) -> tuple[int, ...]:
        return tuple(sorted(self.curves))

    def n_levels(self, residue: int) -> int:
        return self.curves[residue].shape[1]

    def excitation(self, residue: int) -> np.ndarray:
        if self.plan.normalize == "excitation":
            return self.curves[residue]
        return self.curves[residue] - self.ground_energy[:, None]

    def absolute(self, residue: int) -> np.ndarray:
        if self.plan.normalize == "absolute":
            return self.curves[residue]
        return self.curves[residue] + self.ground_energy[:, None]


def _evaluate_chunk(plan: SweepPlan, values: np.ndarray, k: int | str):
    """Consecutive grid points: absolute sector levels plus probe-certified flags.

    Each point's main blocks are solved right after their split, and probe
    blocks that :func:`certify` cannot count on right after theirs, so every
    solve follows the split it belongs to (``perfbench/spans.py`` attributes
    solves to bases by split order).
    """
    points, main, probe = [], [], []
    for value in values:
        poly = standard_hamiltonian(plan.spec_at(value))
        split_main = split(assemble(poly, FockSpace(plan.n_max)), k)
        levels = {s.residue: eigen(s.block).eigenvalues for s in split_main.sectors}
        blocks = {
            s.residue: s.block if sturm_certifiable(s.block) else eigen(s.block).eigenvalues
            for s in split(assemble(poly, FockSpace(plan.n_probe)), k).sectors
        }
        points.append(levels)
        main.extend(levels.values())
        probe.extend(blocks[r] for r in levels)
    flags = iter(certify(main, probe, plan.tol_conv))
    return [(levels, {r: next(flags) for r in levels}) for levels in points]


def run_sweep(plan: SweepPlan, threads: int = 1) -> SpectrumGrid:
    """Evaluate the plan over its whole grid.

    A level is flagged converged when |E(n_max) - E(n_probe)| <= tol_conv *
    max(1, |E|), as in :func:`converged_spectrum`; the flags come from
    :func:`certify`, one batched Sturm count per ``CHUNK`` grid points.
    ``threads`` > 1 (or 0 for auto) evaluates chunks concurrently; the merge
    is by grid index, so the result does not depend on scheduling.
    """
    k = plan_modulus(plan)
    return _sweep_values(plan, k, np.asarray(plan.grid, dtype=float), threads)


def _sweep_values(
    plan: SweepPlan, k: int | str, values: np.ndarray, threads: int
) -> SpectrumGrid:
    npts = len(values)
    if k == MOD_ALL:
        residues = tuple(range(plan.n_max + 1))
        dims = {r: 1 for r in residues}
    else:
        residues = tuple(range(min(k, plan.n_max + 1)))
        dims = {r: len(range(r, plan.n_max + 1, k)) for r in residues}
    curves = {r: np.zeros((npts, dims[r])) for r in residues}
    flags = {r: np.zeros((npts, dims[r]), dtype=bool) for r in residues}

    def work(start: int):
        return _evaluate_chunk(plan, values[start : start + CHUNK], k)

    starts = range(0, npts, CHUNK)
    if threads == 1:
        chunks = [work(i) for i in starts]
    else:
        workers = threads if threads > 0 else None
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, starts))
    for i, (levels, ok) in enumerate(chain.from_iterable(chunks)):
        for r in residues:
            curves[r][i] = levels[r]
            flags[r][i] = ok[r]

    ground = np.min(
        np.stack([curves[r][:, 0] for r in residues], axis=1), axis=1
    )
    if plan.normalize == "excitation":
        for r in residues:
            curves[r] = curves[r] - ground[:, None]
    return SpectrumGrid(plan, k, values.copy(), curves, flags, ground)


def refine_near(grid: SpectrumGrid, events, factor: int) -> SpectrumGrid:
    """Insert factor - 1 points inside each event's bracketing grid interval.

    Only the inserted points are computed; existing columns are reused and
    the result is merged in ascending parameter order.  ``events`` need only
    carry a ``param_value`` attribute.
    """
    if factor < 2:
        raise ValueError("refinement factor must be >= 2")
    params = grid.params
    new_values: list[float] = []
    for ev in events:
        t = float(ev.param_value)
        idx = int(np.clip(np.searchsorted(params, t, side="right") - 1, 0, len(params) - 2))
        lo, hi = params[idx], params[idx + 1]
        inner = lo + (hi - lo) * np.arange(1, factor) / factor
        new_values.extend(float(x) for x in inner)
    new_values = sorted(set(new_values) - set(params.tolist()))
    if not new_values:
        return grid

    extra = _sweep_values(grid.plan, grid.modulus, np.asarray(new_values), threads=1)
    merged = np.concatenate([params, extra.params])
    order = np.argsort(merged, kind="stable")
    curves, flags = {}, {}
    for r in grid.residues:
        curves[r] = np.concatenate([grid.curves[r], extra.curves[r]])[order]
        flags[r] = np.concatenate([grid.converged[r], extra.converged[r]])[order]
    ground = np.concatenate([grid.ground_energy, extra.ground_energy])[order]
    return SpectrumGrid(grid.plan, grid.modulus, merged[order], curves, flags, ground)
