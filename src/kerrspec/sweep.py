"""Certified sector-resolved spectra, at one parameter point or over a 1-D grid.

This is the one place a Hamiltonian becomes sector levels: expand the
parameter record, assemble at the probe basis, split into symmetry sectors,
diagonalize the leading n_max blocks, and certify truncation convergence
against the probe blocks.  A sweep runs that on chunks of consecutive grid
points, one :func:`certify` call per chunk, in grid order in the calling
thread.  Worker threads would not overlap: scipy's compiled ``_flapack``
wrappers hold the GIL for the whole LAPACK call, and the solves are most of
a sweep's time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .eigensolve import (
    DEFAULT_N_MAX,
    DEFAULT_TOL_CONV,
    certify,
    check_basis,
    eigen,
    eigenpair,
    eigenvalue,
)
from .fock import (
    COUPLING_FIELDS,
    BandedSymMatrix,
    FockSpace,
    HamiltonianSpec,
    OperatorPoly,
    assemble,
    standard_hamiltonian,
)
from .sectors import detect_modulus, family_modulus, sector_dim, split

__all__ = [
    "ConvergedSpectrum",
    "SweepPlan",
    "SpectrumGrid",
    "converged_spectrum",
    "run_sweep",
    "plan_modulus",
    "sector_blocks",
    "sector_levels_at",
    "spec_levels",
]

# Consecutive grid points whose levels share one certify call.
CHUNK = 16


@dataclass(frozen=True)
class SweepPlan:
    """One varying parameter over a strictly increasing grid.

    The basis settings pass :func:`check_basis`, which sets the default n_probe.
    ``modulus`` is the grid's sector modulus, from :func:`plan_modulus`.
    :func:`run_sweep` of a plan always yields excitation curves plus the
    ground energy (see :class:`SpectrumGrid`).
    """

    varying: str
    grid: tuple[float, ...]
    fixed: HamiltonianSpec = field(default_factory=HamiltonianSpec)
    n_max: int = DEFAULT_N_MAX
    n_probe: int | None = None
    tol_conv: float = DEFAULT_TOL_CONV
    modulus: int = field(init=False)

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
        n_probe = check_basis(self.n_max, self.n_probe, self.tol_conv)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "n_probe", n_probe)
        object.__setattr__(self, "modulus", plan_modulus(self))

    def spec_at(self, value: float) -> HamiltonianSpec:
        return replace(self.fixed, **{self.varying: float(value)})


def plan_modulus(plan: SweepPlan) -> int:
    """Sector modulus of the whole grid: :func:`family_modulus` of the varied field."""
    return family_modulus(plan.fixed, plan.varying)


def sector_blocks(poly: OperatorPoly, n: int, k: int) -> dict[int, BandedSymMatrix]:
    """Sector blocks of a Hermitian polynomial on the basis |0>..|n>, by residue mod k."""
    return {s.residue: s.block for s in split(assemble(poly, FockSpace(n)), k).sectors}


def spec_levels(
    spec: HamiltonianSpec,
    n_max: int,
    k: int,
    levels: Sequence[tuple[int, int]],
    slopes: dict[int, BandedSymMatrix] | None = None,
) -> tuple:
    """Absolute energies of the named (residue, index) levels of one Hamiltonian.

    Each level is a single-level solve of its sector block, so asking for
    two levels costs far less than diagonalizing the two blocks.  Given
    ``slopes``, the sector blocks of dH/d(lambda) at ``n_max`` for one
    coupling lambda, each level comes back as a pair (E, dE/d(lambda)), the
    slope being the Hellmann-Feynman value v^T (dH/d(lambda)) v of the
    level's unit eigenvector v.
    """
    blocks = sector_blocks(standard_hamiltonian(spec), n_max, k)
    if slopes is None:
        return tuple(eigenvalue(blocks[r], i) for r, i in levels)
    out = []
    for r, i in levels:
        e, v = eigenpair(blocks[r], i)
        out.append((e, slopes[r].quadratic_form(v)))
    return tuple(out)


def sector_levels_at(
    plan: SweepPlan,
    value: float,
    levels: Sequence[tuple[int, int]],
    slopes: dict[int, BandedSymMatrix] | None = None,
) -> tuple:
    """Absolute energies of the named (residue, index) levels at one grid parameter.

    With ``slopes`` (see :func:`spec_levels`) each level is an (energy,
    slope) pair.  Crossing refinement evaluates its level pair here many times.
    """
    return spec_levels(plan.spec_at(value), plan.n_max, plan.modulus, levels, slopes)


@dataclass(frozen=True)
class SpectrumGrid:
    """Per-sector level curves over the grid: it holds E - E0 and the ground energy.

    ``curves[r]`` has shape (grid length, levels in sector r) and ascends in
    the level index at every point.  ``ground_energy`` keeps the absolute
    per-point minimum E0, from which :meth:`absolute` recovers E.  ``params``
    is ``plan.grid``, the points where the curves were solved, as a read-only
    array; the sector modulus is ``plan.modulus``.
    """

    plan: SweepPlan
    curves: dict[int, np.ndarray]
    converged: dict[int, np.ndarray]
    ground_energy: np.ndarray
    params: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.plan.grid, dtype=float)
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

    def absolute(self, residue: int) -> np.ndarray:
        return self.curves[residue] + self.ground_energy[:, None]


def _certified_levels(
    polys: Iterable[OperatorPoly], n_max: int, n_probe: int, k: int, tol: float
):
    """Absolute sector levels of each polynomial plus probe-certified flags.

    Each polynomial is assembled and split once, at the probe basis.  Its
    n_max blocks are the leading principal sub-blocks of the probe blocks
    (assembly is exact and normal-ordered, so they are bit-equal to blocks
    assembled at n_max), and residues with no state up to n_max are skipped.
    One :func:`certify` call then flags the levels of every polynomial
    against their probe blocks.
    """
    points, main, probe = [], [], []
    for poly in polys:
        blocks = sector_blocks(poly, n_probe, k)
        levels = {}
        for r, b in blocks.items():
            dim = sector_dim(n_max + 1, k, r)
            if dim:
                levels[r] = eigen(b.leading(dim))
        points.append(levels)
        main.extend(levels.values())
        probe.extend(blocks[r] for r in levels)
    flags = iter(certify(main, probe, tol))
    return [(levels, {r: next(flags) for r in levels}) for levels in points]


def run_sweep(plan: SweepPlan, threads: int = 1) -> SpectrumGrid:
    """Evaluate the plan over its whole grid.

    A level is flagged converged when |E(n_max) - E(n_probe)| <= tol_conv *
    max(1, |E|), as in :func:`converged_spectrum`; the flags come from one
    :func:`certify` call per ``CHUNK`` grid points: one residual-bound pass
    over all their levels, then one batched Sturm count of a separator per
    sector block and of the levels the bound leaves open.
    Chunks run in grid order in the calling thread.  ``threads`` is accepted
    for compatibility and must not be negative; it changes neither results
    nor scheduling, since the LAPACK calls hold the GIL and worker threads
    would run them one at a time anyway.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    values = np.asarray(plan.grid, dtype=float)
    curves: dict[int, np.ndarray] = {}
    flags: dict[int, np.ndarray] = {}
    for start in range(0, len(values), CHUNK):
        polys = (standard_hamiltonian(plan.spec_at(v)) for v in values[start : start + CHUNK])
        chunk = _certified_levels(polys, plan.n_max, plan.n_probe, plan.modulus, plan.tol_conv)
        for g, (levels, ok) in enumerate(chunk, start):
            for r, v in levels.items():
                if r not in curves:
                    curves[r] = np.empty((len(values), len(v)))
                    flags[r] = np.empty((len(values), len(v)), dtype=bool)
                curves[r][g] = v
                flags[r][g] = ok[r]

    ground = np.min([c[:, 0] for c in curves.values()], axis=0)
    for c in curves.values():
        c -= ground[:, None]
    return SpectrumGrid(plan, curves, flags, ground)


@dataclass(frozen=True)
class ConvergedSpectrum:
    """Sector-tagged levels with per-level truncation-convergence flags.

    ``n_converged`` counts the leading run of converged levels; only those
    are exposed by default through :meth:`converged_levels`.
    """

    energies: np.ndarray
    residues: np.ndarray
    converged: np.ndarray
    ground_energy: float
    modulus: int

    def __post_init__(self) -> None:
        for name in ("energies", "residues", "converged"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def excitations(self) -> np.ndarray:
        """``energies - ground_energy``, read-only."""
        exc = self.energies - self.ground_energy
        exc.flags.writeable = False
        return exc

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def n_converged(self) -> int:
        bad = np.flatnonzero(~self.converged)
        return int(bad[0]) if len(bad) else len(self.converged)

    def converged_levels(self) -> "ConvergedSpectrum":
        """Leading run of levels certified against the probe truncation."""
        n = self.n_converged
        return ConvergedSpectrum(
            self.energies[:n],
            self.residues[:n],
            self.converged[:n],
            self.ground_energy,
            self.modulus,
        )


def converged_spectrum(
    spec: HamiltonianSpec,
    n_max: int = DEFAULT_N_MAX,
    n_probe: int | None = None,
    tol_conv: float = DEFAULT_TOL_CONV,
    window: tuple[float, float] | None = None,
) -> ConvergedSpectrum:
    """Diagonalize at n_max and flag the levels converged against a larger probe basis.

    A level is converged when |E(n_max) - E(n_probe)| <= tol_conv * max(1, |E|),
    compared sector by sector in sorted order.  The point runs the same code
    as one grid point of :func:`run_sweep`, so both give the same levels and
    flags, and its basis settings pass the same :func:`check_basis`.
    ``window`` restricts the returned levels to an excitation-energy range
    (low, high); a window with low above high or a NaN end raises ValueError.
    """
    if window is not None and not window[0] <= window[1]:
        raise ValueError(f"window must be a (low, high) pair with low <= high, got {window}")
    n_probe = check_basis(n_max, n_probe, tol_conv)
    poly = standard_hamiltonian(spec)
    k = detect_modulus(poly)
    [(levels, ok)] = _certified_levels([poly], n_max, n_probe, k, tol_conv)

    energies = np.concatenate(list(levels.values()))
    residues = np.concatenate([np.full(len(v), r, dtype=int) for r, v in levels.items()])
    flags = np.concatenate(list(ok.values()))

    order = np.lexsort((residues, energies))
    energies, residues, flags = energies[order], residues[order], flags[order]
    ground = float(energies[0])

    if window is not None:
        lo, hi = window
        excitations = energies - ground
        keep = (excitations >= lo) & (excitations <= hi)
        energies, residues, flags = energies[keep], residues[keep], flags[keep]

    return ConvergedSpectrum(energies, residues, flags, ground, k)
