"""Conserved mod-k occupation structure and symmetry-sector splitting.

A drive that changes the occupation only in steps of k conserves n mod k,
so the Fock-basis matrix decomposes into k independent blocks.  Parity is
the k = 2 case; purely diagonal Hamiltonians conserve n itself, which is
modulus ``MOD_ALL`` = 0 (n = r mod 0 means n = r: every basis state is its
own sector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    COUPLING_DERIVATIVES,
    BandedSymMatrix,
    HamiltonianSpec,
    OperatorPoly,
    check_count,
    standard_hamiltonian,
)

__all__ = [
    "MOD_ALL",
    "SymmetryViolation",
    "Sector",
    "SectorDecomposition",
    "detect_modulus",
    "family_modulus",
    "sector_dim",
    "split",
]

# Modulus of a diagonal Hamiltonian: each n is conserved separately.
MOD_ALL = 0

# Assembly is exact, so any off-sector entry above this is a logic bug.
VIOLATION_TOL = 1e-14


class SymmetryViolation(ValueError):
    """A matrix entry contradicts the claimed mod-k conservation."""


def detect_modulus(poly: OperatorPoly) -> int:
    """Conserved occupation modulus of a Hermitian polynomial.

    Returns the gcd of all occupation steps |p - q| over terms with nonzero
    coefficient: ``MOD_ALL`` (0) when every term is diagonal, and 1 when
    incompatible steps coexist.
    """
    if not poly.is_hermitian():
        raise ValueError("modulus detection expects a Hermitian polynomial")
    return math.gcd(*(abs(t.step) for t in poly.terms if t.coeff != 0.0))


def family_modulus(fixed: HamiltonianSpec, field: str) -> int:
    """Conserved occupation modulus shared by every ``replace(fixed, field=t)``.

    H(fixed) + dH/d(field), a sum that concatenates terms, holds every step
    some member has; a member where a varied coefficient vanishes may conserve more.
    """
    return detect_modulus(standard_hamiltonian(fixed) + COUPLING_DERIVATIVES[field])


@dataclass(frozen=True)
class Sector:
    """One symmetry block: Fock states with n = residue (mod k), in order."""

    residue: int
    block: BandedSymMatrix


@dataclass(frozen=True)
class SectorDecomposition:
    """Full matrix split into mod-k blocks, in residue order."""

    sectors: tuple[Sector, ...]


def sector_dim(dim: int, k: int, residue: int) -> int:
    """Number of the basis states |0>..|dim - 1> in the sector n = residue (mod k)."""
    return len(range(residue, dim, k or dim))


def split(matrix: BandedSymMatrix, k: int) -> SectorDecomposition:
    """Split a banded symmetric matrix into its mod-k sector blocks.

    ``MOD_ALL`` (0) splits with stride ``matrix.dim``: every basis state is
    its own one-state sector.  Raises SymmetryViolation if any stored entry
    sits on a diagonal whose offset is not a multiple of the stride.
    """
    stride = check_count(k, "modulus") or matrix.dim
    for d in range(1, matrix.bandwidth + 1):
        diag = matrix.diagonals[d]
        if d % stride and len(diag) and np.max(np.abs(diag)) > VIOLATION_TOL:
            i = int(np.argmax(np.abs(diag)))
            raise SymmetryViolation(
                f"entry ({i + d}, {i}) = {diag[i]:.3e} violates the claimed modulus"
            )
    sectors = []
    for r in range(min(stride, matrix.dim)):
        # local diagonal dd of sector r: every stride-th entry of diagonal dd * stride
        diags = tuple(diag[r::stride] for diag in matrix.diagonals[::stride])
        sectors.append(Sector(r, BandedSymMatrix(diags)))
    return SectorDecomposition(tuple(sectors))
