"""Spectra of banded symmetric matrices with certified truncation convergence.

Dense/banded LAPACK drivers do the factorization work; diagonal matrices are
read off exactly.  Truncation convergence is certified against a larger probe
basis level by level, instead of assuming a given n_max is large enough: a
level is converged when it moves by at most tol * max(1, |E|) between the two
bases.  For tridiagonal sector blocks that test is decided by Sturm counts on
the probe block (:func:`certify`), without diagonalizing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fock import BandedSymMatrix, FockSpace, HamiltonianSpec, assemble, standard_hamiltonian
from .sectors import detect_modulus, split

__all__ = [
    "EigenSolverError",
    "EigenResult",
    "ConvergedSpectrum",
    "eigen",
    "eigenvalue",
    "certify",
    "sturm_certifiable",
    "converged_spectrum",
    "DEFAULT_N_MAX",
    "DEFAULT_N_PROBE",
    "DEFAULT_TOL_CONV",
]

DEFAULT_N_MAX = 800
DEFAULT_N_PROBE = 900
DEFAULT_TOL_CONV = 1e-8

# IEEE double machine epsilon; LAPACK backward error is a small multiple.
_EPS = np.finfo(float).eps


class EigenSolverError(RuntimeError):
    """The eigensolver failed to converge; never silently truncated."""


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues (ascending) and optional orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float
    sector_residue: int | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.eigenvalues, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        if self.eigenvectors is not None:
            v = np.asarray(self.eigenvectors, dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, "eigenvectors", v)


def _is_diagonal(matrix: BandedSymMatrix) -> bool:
    return matrix.bandwidth == 0 or all(
        len(d) == 0 or not np.any(d) for d in matrix.diagonals[1:]
    )


def eigen(
    matrix: BandedSymMatrix,
    want_vectors: bool = False,
    sector_residue: int | None = None,
) -> EigenResult:
    """Full spectrum of a banded real symmetric matrix.

    Diagonal matrices return their sorted diagonal exactly (stable argsort,
    basis-state eigenvectors).  Otherwise the banded LAPACK driver is used;
    a LAPACK convergence failure raises EigenSolverError.
    """
    if _is_diagonal(matrix):
        order = np.argsort(matrix.diagonal, kind="stable")
        w = matrix.diagonal[order]
        v = None
        if want_vectors:
            v = np.zeros((matrix.dim, matrix.dim))
            v[order, np.arange(matrix.dim)] = 1.0
        return EigenResult(w, v, residual_bound=0.0, sector_residue=sector_residue)

    ab = matrix.band_lower()
    try:
        if want_vectors:
            w, v = scipy.linalg.eig_banded(ab, lower=True, check_finite=False)
        else:
            w = scipy.linalg.eig_banded(
                ab, lower=True, eigvals_only=True, check_finite=False
            )
            v = None
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolverError(f"banded eigensolver failed: {exc}") from exc

    if v is not None:
        resid = matrix.matvec(v) - v * w[None, :]
        bound = float(np.max(np.sqrt(np.sum(resid**2, axis=0))))
    else:
        scale = float(np.max(np.abs(w))) if len(w) else 0.0
        bound = matrix.dim * _EPS * scale
    return EigenResult(w, v, residual_bound=bound, sector_residue=sector_residue)


def eigenvalue(matrix: BandedSymMatrix, index: int) -> float:
    """The ``index``-th smallest eigenvalue (0-based) alone.

    Diagonal matrices read their sorted diagonal.  Otherwise the banded
    LAPACK driver computes only the selected eigenvalue, by bisection to
    absolute accuracy 2 * safmin on the reduced tridiagonal form; it agrees
    with ``eigen(matrix).eigenvalues[index]`` to the backward error of the
    full solve, at a fraction of its cost.
    """
    if not 0 <= index < matrix.dim:
        raise IndexError(f"level {index} outside a {matrix.dim}-state block")
    if _is_diagonal(matrix):
        return float(np.partition(matrix.diagonal, index)[index])
    try:
        w = scipy.linalg.eig_banded(
            matrix.band_lower(),
            lower=True,
            eigvals_only=True,
            select="i",
            select_range=(index, index),
            check_finite=False,
        )
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolverError(f"banded eigensolver failed: {exc}") from exc
    return float(w[0])


def sturm_certifiable(matrix: BandedSymMatrix) -> bool:
    """Whether :func:`certify` counts on this probe block instead of solving it.

    True for tridiagonal blocks with a nonzero off-diagonal.  Diagonal blocks
    are read off exactly, and wider bands have no reliable unpivoted LDL^T
    inertia, so those two keep their probe spectrum.
    """
    return not _is_diagonal(matrix) and not any(np.any(d) for d in matrix.diagonals[2:])


def _level_flags(vals: np.ndarray, probe_vals: np.ndarray, tol: float) -> np.ndarray:
    """|E_main - E_probe| <= tol * max(1, |E_main|), level by level."""
    return np.abs(vals - probe_vals[: len(vals)]) <= tol * np.maximum(1.0, np.abs(vals))


def _sturm_counts(
    blocks: list[BandedSymMatrix], shifts: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Eigenvalues of each tridiagonal block below each of its shifts.

    One Sturm sequence per (block, shift), the pivots of LDL^T of T - x,

        d_k = (a_k - x) - e_{k-1}^2 / d_{k-1},

    run for all of them at once, row by row; the count is the number of
    negative pivots.  A zero pivot is left to IEEE arithmetic (e^2 / 0 is
    infinite and the next pivot finite again), as LAPACK ``dlaneg`` does.
    Shorter blocks are padded in front with decoupled +inf rows, and absent
    shifts are -inf; neither ever gives a negative pivot.  Returns the counts
    and, per block, whether some sequence met 0/0 (a zero pivot at a zero
    off-diagonal), which leaves its counts meaningless.
    """
    rows = max(b.dim for b in blocks)
    width = max(len(x) for x in shifts)
    a = np.full((rows, len(blocks), 1), np.inf)
    e2 = np.zeros((rows, len(blocks), 1))
    x = np.full((len(blocks), width), -np.inf)
    for j, (block, shift) in enumerate(zip(blocks, shifts)):
        top = rows - block.dim
        a[top:, j, 0] = block.diagonal
        e2[top + 1 :, j, 0] = block.diagonals[1] ** 2
        x[j, : len(shift)] = shift
    d = np.ones_like(x)
    t = np.empty_like(x)
    negative = np.empty(x.shape, dtype=bool)
    count = np.zeros(x.shape, dtype=np.int32)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(rows):
            np.divide(e2[k], d, out=t)
            np.subtract(a[k], x, out=d)
            np.subtract(d, t, out=d)
            np.less(d, 0.0, out=negative)
            np.add(count, negative, out=count)
    failed = np.isnan(d).any(axis=1)
    return [count[j, : len(shift)] for j, shift in enumerate(shifts)], failed


def certify(
    main: list[np.ndarray], probe: list[BandedSymMatrix | np.ndarray], tol: float
) -> list[np.ndarray]:
    """Truncation-convergence flags of sector levels against the probe basis.

    ``main[j]`` holds the ascending eigenvalues of one sector block at n_max;
    ``probe[j]`` is the same sector's block at the probe basis, or its
    ascending eigenvalues when they are already known.  Level i is converged
    when |E_main[i] - E_probe[i]| <= tol * max(1, |E_main[i]|).

    The n_max block is the leading principal submatrix of the probe block
    (assembly is exact and normal-ordered), so Cauchy interlacing gives
    E_probe[i] <= E_main[i], and the test holds exactly when fewer than i + 1
    probe eigenvalues lie below E_main[i] - tol * max(1, |E_main[i]|).  For
    :func:`sturm_certifiable` blocks that count is a Sturm sequence, batched
    over every level of every block; other blocks, and blocks whose sequence
    meets 0/0, are compared against their probe spectrum.
    """
    flags: list[np.ndarray | None] = [None] * len(main)
    batch = []
    for j, (vals, p) in enumerate(zip(main, probe)):
        if isinstance(p, BandedSymMatrix) and sturm_certifiable(p):
            batch.append(j)
        else:
            probe_vals = p if isinstance(p, np.ndarray) else eigen(p).eigenvalues
            flags[j] = _level_flags(vals, probe_vals, tol)
    if batch:
        shifts = [main[j] - tol * np.maximum(1.0, np.abs(main[j])) for j in batch]
        counts, failed = _sturm_counts([probe[j] for j in batch], shifts)
        for j, count, bad in zip(batch, counts, failed):
            if bad:
                flags[j] = _level_flags(main[j], eigen(probe[j]).eigenvalues, tol)
            else:
                flags[j] = count <= np.arange(len(count))
    return flags


@dataclass(frozen=True)
class ConvergedSpectrum:
    """Sector-tagged levels with per-level truncation-convergence flags.

    ``n_converged`` counts the leading run of converged levels; only those
    are exposed by default through :meth:`converged_levels`.
    """

    energies: np.ndarray
    excitations: np.ndarray
    residues: np.ndarray
    converged: np.ndarray
    ground_energy: float
    n_max_used: int
    n_probe: int
    tol_conv: float
    modulus: int | str = 1

    def __post_init__(self) -> None:
        for name in ("energies", "excitations", "residues", "converged"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def n_converged(self) -> int:
        bad = np.flatnonzero(~self.converged)
        return int(bad[0]) if len(bad) else len(self.converged)

    @property
    def levels(self) -> list[tuple[float, int]]:
        return [(float(e), int(r)) for e, r in zip(self.energies, self.residues)]

    def converged_levels(self) -> "ConvergedSpectrum":
        """Leading run of levels certified against the probe truncation."""
        n = self.n_converged
        return ConvergedSpectrum(
            self.energies[:n],
            self.excitations[:n],
            self.residues[:n],
            self.converged[:n],
            self.ground_energy,
            self.n_max_used,
            self.n_probe,
            self.tol_conv,
            self.modulus,
        )


def converged_spectrum(
    spec: HamiltonianSpec,
    n_max: int = DEFAULT_N_MAX,
    n_probe: int = DEFAULT_N_PROBE,
    tol_conv: float = DEFAULT_TOL_CONV,
    window: tuple[float, float] | None = None,
) -> ConvergedSpectrum:
    """Diagonalize at n_max and flag the levels converged against a larger probe basis.

    A level is converged when |E(n_max) - E(n_probe)| <= tol_conv * max(1, |E|),
    compared sector by sector in sorted order; :func:`certify` decides this
    by Sturm counts on the probe blocks, without diagonalizing them.
    ``window`` restricts the returned levels to an excitation-energy range.
    """
    if n_probe <= n_max:
        raise ValueError(f"n_probe={n_probe} must exceed n_max={n_max}")
    poly = standard_hamiltonian(spec)
    k = detect_modulus(poly)
    main = split(assemble(poly, FockSpace(n_max)), k).sectors
    probe = {s.residue: s.block for s in split(assemble(poly, FockSpace(n_probe)), k).sectors}
    vals = [eigen(s.block).eigenvalues for s in main]
    flags = certify(vals, [probe[s.residue] for s in main], tol_conv)

    energies = np.concatenate(vals)
    residues = np.concatenate([np.full(len(v), s.residue, dtype=int) for s, v in zip(main, vals)])
    flags = np.concatenate(flags)

    order = np.lexsort((residues, energies))
    energies, residues, flags = energies[order], residues[order], flags[order]
    ground = float(energies[0])
    excitations = energies - ground

    if window is not None:
        lo, hi = window
        keep = (excitations >= lo) & (excitations <= hi)
        energies, excitations = energies[keep], excitations[keep]
        residues, flags = residues[keep], flags[keep]

    return ConvergedSpectrum(
        energies, excitations, residues, flags, ground, n_max, n_probe, tol_conv, k
    )
