"""Compact two-boson (auxiliary-boson) picture of the driven Kerr oscillator.

Adjoining an auxiliary boson s to the physical mode a embeds the problem in
a finite u(2) representation |[N], n> with n + n_s = N.  This module builds
the so(2) generator a^dag s + s^dag a, its quadratic Casimir, the su(2)
pairing operator, the parity-resolved classification of -(a^dag^2 + a^2)
with its representation doubling, and the large-N contraction check back to
the single-mode Fock Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .eigensolve import eigen
from .fock import (
    BandedSymMatrix,
    HamiltonianSpec,
    HigherOrderCorrections,
    NumericFailure,
    check_count,
    pairing_poly,
)
from .sectors import split
from .sweep import converged_spectrum, sector_blocks

__all__ = [
    "U2Rep",
    "CasimirLevel",
    "PairingBranchLevel",
    "ParityBranch",
    "RepClassification",
    "so2_generator",
    "casimir_matrix",
    "pairing_prime_matrix",
    "casimir_spectrum",
    "pairing_prime_spectrum",
    "classify_pairing_sp2",
    "u2_generators",
    "u2_hamiltonian",
    "contraction_check",
]


@dataclass(frozen=True)
class U2Rep:
    """Symmetric u(2) representation [N]: basis |[N], n>, n = 0..N."""

    N: int

    def __post_init__(self) -> None:
        check_count(self.N, "representation label N", 1)

    @property
    def dim(self) -> int:
        return self.N + 1


class CasimirLevel(NamedTuple):
    v: int
    pi_prime: int
    value: float


class PairingLevel(NamedTuple):
    v: int
    value: float


def _pair_amplitude(n, N: int):
    """Coupling <n+2| a^dag^2 s^2 |n> = sqrt((n+1)(n+2)(N-n)(N-n-1)).

    Shared by the Casimir and pairing constructions so their off-diagonal
    entries cancel bit for bit in C2 + P2' = N^2.
    """
    return np.sqrt((n + 1.0) * (n + 2.0)) * np.sqrt((N - n) * (N - n - 1.0))


def so2_generator(rep: U2Rep) -> np.ndarray:
    """Dense symmetric matrix of a^dag s + s^dag a on |[N], n>."""
    n = np.arange(rep.N)
    amp = np.sqrt((n + 1.0) * (rep.N - n))
    return BandedSymMatrix((np.zeros(rep.dim), amp)).to_dense()


def _casimir(rep: U2Rep) -> BandedSymMatrix:
    """Casimir band: <n|C2|n> = 2n(N - n) + N and <n+2|C2|n>, n = 0..N."""
    N = rep.N
    n = np.arange(rep.dim, dtype=float)
    amp = _pair_amplitude(np.arange(N - 1), N)
    return BandedSymMatrix((2.0 * n * (N - n) + N, np.zeros(N), amp))


def casimir_matrix(rep: U2Rep) -> np.ndarray:
    """Quadratic so(2) Casimir (a^dag s + s^dag a)^2 from its boson expansion."""
    return _casimir(rep).to_dense()


def _pairing(rep: U2Rep) -> BandedSymMatrix:
    """Pairing band: <n|P2'|n> = n(n - 1) + (N - n)(N - n - 1) and <n+2|P2'|n>."""
    N = rep.N
    n = np.arange(rep.dim, dtype=float)
    amp = _pair_amplitude(np.arange(N - 1), N)
    return BandedSymMatrix((n * (n - 1.0) + (N - n) * (N - n - 1.0), np.zeros(N), -amp))


def pairing_prime_matrix(rep: U2Rep) -> np.ndarray:
    """su(2) pairing operator from its four-term boson definition."""
    return _pairing(rep).to_dense()


def _branch_labels(N: int):
    """(v, branch sign) of the N + 1 levels of [N], in order: signs +1 and -1
    while N - 2v > 0, the single sign 0 at N - 2v = 0."""
    for v in range(N // 2 + 1):
        for sign in (1, -1) if N - 2 * v > 0 else (0,):
            yield v, sign


def _parity_eigenvalues(band: BandedSymMatrix) -> np.ndarray:
    """Eigenvalues of a band coupling n to n + 2 only: its even block's, then its odd block's."""
    return np.concatenate([eigen(s.block) for s in split(band, 2).sectors])


def u2_generators(rep: U2Rep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """su(2) ladder pair and weight generator (f_plus, f_minus, f_z).

    f_z carries eigenvalue (n - n_s)/2 so that the standard relations
    [f_z, f_pm] = +-f_pm and [f_plus, f_minus] = 2 f_z hold.
    """
    N = rep.N
    fp = np.tril(so2_generator(rep))  # the lower half of a^dag s + s^dag a is a^dag s
    fz = np.diag((np.arange(rep.dim) - (N - np.arange(rep.dim))) / 2.0)
    return fp, fp.T.copy(), fz


def casimir_spectrum(rep: U2Rep) -> list[CasimirLevel]:
    """Casimir eigenvalues labeled (v, pi_prime), checked against (N - 2v)^2 to 1e-6 N^2.

    Values are doubly degenerate in the branch sign, except sigma = 0 for
    even N.  The two parity blocks are solved as tridiagonal matrices, in
    O(N) memory.
    """
    N = rep.N
    vals = np.sort(_parity_eigenvalues(_casimir(rep)))[::-1]  # largest first: v = 0 pair leads
    out: list[CasimirLevel] = []
    for (v, sign), got in zip(_branch_labels(N), vals.tolist(), strict=True):
        expect = float((N - 2 * v) ** 2)
        if abs(got - expect) > 1e-6 * max(1.0, N * N):
            raise NumericFailure(
                f"Casimir eigenvalue {got} does not match sigma^2={expect} at v={v}"
            )
        out.append(CasimirLevel(v, sign, got))
    return out


def pairing_prime_spectrum(rep: U2Rep) -> list[PairingLevel]:
    """Pairing eigenvalues 4Nv(1 - v/N) labeled by v, with branch doubling.

    The operator's band entries are built both as N^2 - C2 and from its
    boson definition, and must agree exactly; its two parity blocks are then
    solved as tridiagonal matrices, in O(N) memory.
    """
    N = rep.N
    pairing, casimir = _pairing(rep), _casimir(rep)
    from_casimir = [N * N - casimir.diagonal] + [-d for d in casimir.diagonals[1:]]
    if len(pairing.diagonals) != len(from_casimir) or not all(
        map(np.array_equal, pairing.diagonals, from_casimir)
    ):
        raise ValueError("pairing operator: boson form and N^2 - C2 disagree")
    vals = np.sort(_parity_eigenvalues(pairing))
    labels = _branch_labels(N)
    return [PairingLevel(v, e) for (v, _), e in zip(labels, vals.tolist(), strict=True)]


@dataclass(frozen=True)
class PairingBranchLevel:
    """One eigenstate of -(a^dag^2 + a^2) within a parity branch."""

    v: int
    m: Fraction
    energy: float

    @property
    def pi_prime(self) -> int:
        """Branch sign: the sign of m."""
        return (self.m > 0) - (self.m < 0)


@dataclass(frozen=True)
class ParityBranch:
    parity: int
    j: Fraction
    levels: tuple[PairingBranchLevel, ...]

    @property
    def count(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class RepClassification:
    """Parity-resolved quasi-spin content of -(a^dag^2 + a^2) at truncation N."""

    N: int
    even: ParityBranch
    odd: ParityBranch


def classify_pairing_sp2(n_max: int) -> RepClassification:
    """Diagonalize -(a^dag^2 + a^2) on the truncated Fock space, by parity.

    Each parity branch of 2j + 1 states carries the quasi-spin j = (dim - 1)/2
    of its block, which by the truncation N mod 4 is N/4 (even branch) or
    N/4 - 1/2 (odd branch) at even N and (N - 1)/4 for both at odd N.  Its
    levels are indexed by v = j - m in ascending energy order.  In the
    untruncated limit the branch spectrum approaches the straight line -2m
    between -N and +N, but the approach is very slow and is not asserted
    here.  ``n_max`` must be an integer of at least 1.
    """
    N = check_count(n_max, "n_max", 1)  # both parities need a state
    blocks = sector_blocks(pairing_poly(2, -1.0), N, 2)
    branches = {}
    for parity, residue in ((+1, 0), (-1, 1)):
        block = blocks[residue]
        j = Fraction(block.dim - 1, 2)
        levels = tuple(
            PairingBranchLevel(v, j - v, e) for v, e in enumerate(eigen(block).tolist())
        )
        branches[parity] = ParityBranch(parity, j, levels)
    return RepClassification(N, branches[+1], branches[-1])


def u2_hamiltonian(eta: float, xi: float, N: int) -> BandedSymMatrix:
    """Driven-Kerr Hamiltonian in the u(2) basis with squeeze a^dag^2 s^2 + h.c.

    The compact squeeze strength is normalized to xi / N so the contracted
    (N -> infinity) Hamiltonian matches the Fock one at equal xi.
    """
    n = np.arange(N + 1, dtype=float)
    diag0 = -eta * n + n * (n - 1.0)
    eps2 = xi / N
    m = np.arange(N - 1)
    diag2 = -eps2 * _pair_amplitude(m, N)
    return BandedSymMatrix((diag0, np.zeros(N), diag2))


def contraction_check(spec: HamiltonianSpec, N: int, n_levels: int) -> float:
    """Max deviation of the lowest u(2) excitation energies from the Fock ones.

    The Fock reference is diagonalized at the same occupation cutoff with a
    probe basis certifying convergence of the compared levels.  The deviation
    must shrink as N grows.
    """
    if spec.xi3 or spec.xi4 or spec.xi2p or spec.higher not in (None, HigherOrderCorrections()):
        raise ValueError("contraction check is defined for the two-photon drive only")
    if not 0 < n_levels <= N:
        raise ValueError("need 0 < n_levels <= N")

    compact = eigen(u2_hamiltonian(spec.eta, spec.xi, N))
    compact_exc = compact[:n_levels] - compact[0]
    ref = converged_spectrum(spec, n_max=N, n_probe=N + 100, tol_conv=1e-10)
    if not np.all(ref.converged[:n_levels]):
        raise ValueError(f"Fock reference not converged for {n_levels} levels at N={N}")
    ref_exc = ref.excitations[:n_levels]
    return float(np.max(np.abs(compact_exc - ref_exc)))
