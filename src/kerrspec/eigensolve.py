"""Spectra of banded symmetric matrices with certified truncation convergence.

Dense/banded LAPACK drivers do the factorization work; diagonal matrices are
read off exactly.  Truncation convergence is certified by re-diagonalizing at
a larger probe basis and comparing level by level, instead of assuming a
given n_max is large enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fock import BandedSymMatrix, FockSpace, HamiltonianSpec, assemble, standard_hamiltonian
from .sectors import SectorDecomposition, detect_modulus, split

__all__ = [
    "EigenSolverError",
    "EigenResult",
    "ConvergedSpectrum",
    "eigen",
    "eigenvalue",
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


def _sector_eigenvalues(decomp: SectorDecomposition) -> dict[int, np.ndarray]:
    return {s.residue: eigen(s.block).eigenvalues for s in decomp.sectors}


def converged_spectrum(
    spec: HamiltonianSpec,
    n_max: int = DEFAULT_N_MAX,
    n_probe: int = DEFAULT_N_PROBE,
    tol_conv: float = DEFAULT_TOL_CONV,
    window: tuple[float, float] | None = None,
) -> ConvergedSpectrum:
    """Diagonalize at n_max and at a larger probe basis; flag converged levels.

    A level is converged when |E(n_max) - E(n_probe)| <= tol_conv * max(1, |E|),
    compared sector by sector in sorted order.  ``window`` restricts the
    returned levels to an excitation-energy range.
    """
    if n_probe <= n_max:
        raise ValueError(f"n_probe={n_probe} must exceed n_max={n_max}")
    poly = standard_hamiltonian(spec)
    k = detect_modulus(poly)
    main = split(assemble(poly, FockSpace(n_max)), k)
    probe = split(assemble(poly, FockSpace(n_probe)), k)
    main_vals = _sector_eigenvalues(main)
    probe_vals = _sector_eigenvalues(probe)

    energies, residues, flags = [], [], []
    for r, vals in main_vals.items():
        pv = probe_vals[r]
        m = len(vals)
        diff = np.abs(vals - pv[:m])
        ok = diff <= tol_conv * np.maximum(1.0, np.abs(vals))
        energies.append(vals)
        residues.append(np.full(m, r, dtype=int))
        flags.append(ok)
    energies = np.concatenate(energies)
    residues = np.concatenate(residues)
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
