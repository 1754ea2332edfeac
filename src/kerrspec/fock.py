"""Normal-ordered boson polynomials and their truncated Fock-space matrices.

A single-mode Hamiltonian is kept as a sum of normal-ordered monomials

    coeff * a^dag^p  w(n)  a^q,        w(n) = w_0 + w_1 n + w_2 n^2 + ...

where the number-operator weight w is evaluated at the occupation left
behind after a^q has acted.  Matrix elements in the truncated basis
|0>, ..., |n_max> follow from a|n> = sqrt(n)|n-1>, a^dag|n> = sqrt(n+1)|n+1>;
anything reaching past n_max is projected out.  Hermitian polynomials
assemble into exactly symmetric banded matrices, stored at their true
bandwidth (0 diagonal, 1 tridiagonal), which is all the eigensolvers read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FockSpace",
    "OperatorTerm",
    "OperatorPoly",
    "HigherOrderCorrections",
    "HamiltonianSpec",
    "BandedSymMatrix",
    "NonHermitianError",
    "NumericFailure",
    "check_count",
    "matrix_element",
    "assemble",
    "poly_to_dense",
    "standard_hamiltonian",
    "commutator_residual",
    "number_poly",
    "ladder_poly",
    "pairing_poly",
    "DRIVES",
    "COUPLING_FIELDS",
    "COUPLING_KINDS",
    "COUPLING_DERIVATIVES",
]


class NonHermitianError(ValueError):
    """A Hamiltonian assembly was attempted on a non-Hermitian polynomial."""


class NumericFailure(ValueError):
    """Valid input whose computation failed: an overflow, unconverged levels, a broken identity."""


def check_count(value, name: str, least: float = 0):
    """Return ``value`` if it is an integer (not a bool) of at least ``least``, which is
    0, 1 or -inf (no bound); otherwise raise ValueError naming the argument ``name``."""
    # int is named first: an isinstance against the ABC alone costs about 10 times as much
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(least, "an integer")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock basis |0>, ..., |n_max>."""

    n_max: int

    def __post_init__(self) -> None:
        check_count(self.n_max, "n_max")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class OperatorTerm:
    """One normal-ordered monomial coeff * a^dag^p w(n) a^q.

    ``weight`` lists the polynomial coefficients (w_0, w_1, ...) of the
    number-operator factor inserted between the ladder powers.  It is
    evaluated at the intermediate occupation n - q.
    """

    coeff: float
    p: int
    q: int
    weight: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        check_count(self.p, "p")
        check_count(self.q, "q")
        if len(self.weight) == 0:
            raise ValueError("weight polynomial needs at least one coefficient")
        object.__setattr__(self, "weight", tuple(float(c) for c in self.weight))
        object.__setattr__(self, "coeff", float(self.coeff))

    @property
    def step(self) -> int:
        """Net change p - q in occupation produced by the term."""
        return self.p - self.q


def _poly_eval(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """Horner evaluation of a weight polynomial at every entry of an array."""
    acc = np.full_like(x, coeffs[-1], dtype=float)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _ladder_amplitude(p: int, q: int, n: np.ndarray):
    """sqrt factor of a^dag^p a^q on each |n> of an integer array.

    It is sqrt(n!/(n-q)!) * sqrt((n-q+p)!/(n-q)!), the lowering and the
    raising product each rooted on its own.  For p = q the two products
    coincide and the sqrt is skipped, so diagonal elements are exact:
    sqrt(x)^2 need not round back to x.
    """
    k = n - q
    lowering = 1.0
    for i in range(q):
        lowering = lowering * (n - i)
    if p == q:
        return lowering
    raising = 1.0
    for i in range(1, p + 1):
        raising = raising * (k + i)
    return np.sqrt(lowering) * np.sqrt(raising)


def _entries(term: OperatorTerm, space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Columns n = q, q + 1, ... that ``term`` keeps inside the basis, and its entries there.

    Column n holds <n + p - q| coeff a^dag^p w(n) a^q |n>.  Columns below q
    are annihilated and columns above n_max - (p - q) leave the basis, so
    the columns may be empty.
    """
    n = np.arange(term.q, space.n_max - max(term.step, 0) + 1)
    return n, term.coeff * _poly_eval(term.weight, n - term.q) * _ladder_amplitude(
        term.p, term.q, n
    )


def matrix_element(
    term: OperatorTerm, n: int, space: FockSpace
) -> tuple[int, float] | None:
    """Element <n + p - q| coeff a^dag^p w(n) a^q |n> in the truncated basis.

    Returns ``(row, value)`` or None when the term maps |n> out of the basis
    (n - q < 0 or n + p - q > n_max).
    """
    if check_count(n, "n") > space.n_max:
        raise ValueError(f"n={n} outside basis 0..{space.n_max}")
    cols, values = _entries(term, space)
    if not 0 <= n - term.q < len(cols):
        return None
    return n + term.step, float(values[n - term.q])


@dataclass(frozen=True)
class OperatorPoly:
    """Sum of normal-ordered boson monomials."""

    terms: tuple[OperatorTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        return OperatorPoly(self.terms + other.terms)

    def __rmul__(self, scalar: float) -> "OperatorPoly":
        return OperatorPoly(
            tuple(OperatorTerm(scalar * t.coeff, t.p, t.q, t.weight) for t in self.terms)
        )

    def bandwidth(self) -> int:
        """Largest occupation step |p - q| among terms with nonzero coefficient."""
        steps = [abs(t.step) for t in self.terms if t.coeff != 0.0]
        return max(steps, default=0)

    def max_power(self) -> int:
        """Largest ladder power among terms with nonzero coefficient."""
        powers = [max(t.p, t.q) for t in self.terms if t.coeff != 0.0]
        return max(powers, default=0)

    def is_hermitian(self) -> bool:
        """True when every off-diagonal monomial has its conjugate present.

        Coefficients are aggregated by (p, q, weight) and compared exactly:
        conjugate pairs built from the same floats must match bit for bit.
        """
        agg: dict[tuple[int, int, tuple[float, ...]], float] = {}
        for t in self.terms:
            key = (t.p, t.q, t.weight)
            agg[key] = agg.get(key, 0.0) + t.coeff
        for (p, q, w), c in agg.items():
            if p == q:
                continue
            if agg.get((q, p, w), 0.0) != c:
                return False
        return True


def number_poly(weight: tuple[float, ...]) -> OperatorPoly:
    """Diagonal polynomial w(n) = w_0 + w_1 n + ... as a one-term poly."""
    return OperatorPoly((OperatorTerm(1.0, 0, 0, weight),))


def ladder_poly(coeff: float, p: int, q: int, weight: tuple[float, ...] = (1.0,)) -> OperatorPoly:
    """Single monomial coeff * a^dag^p w(n) a^q."""
    return OperatorPoly((OperatorTerm(coeff, p, q, weight),))


def pairing_poly(k: int, coeff: float = 1.0) -> OperatorPoly:
    """k-photon pairing operator coeff * (a^dag^k + a^k)."""
    return OperatorPoly((OperatorTerm(coeff, k, 0), OperatorTerm(coeff, 0, k)))


def _check_finite(record, names) -> None:
    """Raise ValueError naming the first of the fields ``names`` that is not a finite real."""
    for name in names:
        value = getattr(record, name)
        # a bool is no coupling; float is named first for speed, as int is in check_count
        real = isinstance(value, (float, numbers.Real)) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class HigherOrderCorrections:
    """Third- and fourth-order static corrections, in units of the Kerr scale.

    The sign conventions are stored verbatim: detuning and Kerr renormalizations
    enter with a minus sign, the squeeze-like corrections with a plus sign, and
    the cubic number correction as -(n^3 - 3n^2 - 2n).
    """

    detuning3: float = 0.0       # coefficient of -n
    kerr3: float = 0.0           # coefficient of -n(n-1)
    squeeze3: float = 0.0        # coefficient of +(a^dag^2 + a^2)
    number_squeeze3: float = 0.0  # coefficient of +(a^dag^2 n + n a^2)
    detuning4: float = 0.0       # coefficient of -n
    kerr4: float = 0.0           # coefficient of -n(n-1)
    cubic4: float = 0.0          # coefficient of -(n^3 - 3n^2 - 2n)
    quad_squeeze4: float = 0.0   # coefficient of +(a^dag^4 + a^4)

    def __post_init__(self) -> None:
        _check_finite(self, (f.name for f in fields(self)))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Dimensionless driven-Kerr Hamiltonian parameters (units of the Kerr scale).

    eta is the detuning-to-Kerr ratio; xi, xi3, xi4 multiply the two-, three-
    and four-photon pairing drives with a minus sign; xi2p multiplies the
    number-weighted two-photon drive -(a^dag^2 n + n a^2).
    """

    eta: float = 0.0
    xi: float = 0.0
    xi3: float = 0.0
    xi4: float = 0.0
    xi2p: float = 0.0
    higher: HigherOrderCorrections | None = None

    def __post_init__(self) -> None:
        _check_finite(self, COUPLING_FIELDS)


# Drive -> (HamiltonianSpec field, photon number k, number weight w, partner): each adds
# (-field + partner) (a^dag^k w(n) + w(n) a^k), partner a HigherOrderCorrections field or None.
DRIVES = {
    "P2": ("xi", 2, (1.0,), "squeeze3"),
    "P3": ("xi3", 3, (1.0,), None),
    "P4": ("xi4", 4, (1.0,), "quad_squeeze4"),
    "nP2": ("xi2p", 2, (0.0, 1.0), "number_squeeze3"),
}

# The HamiltonianSpec fields a sweep may vary, and each tracked drive -> its field.
COUPLING_FIELDS = ("eta", *(f for f, *_ in DRIVES.values()))
COUPLING_KINDS = {kind: f for kind, (f, *_) in DRIVES.items()}


def standard_hamiltonian(spec: HamiltonianSpec) -> OperatorPoly:
    """Expand a parameter record into its normal-ordered polynomial.

        -eta n + n(n-1) - xi (a^dag^2 + a^2) - xi3 (a^dag^3 + a^3)
        - xi4 (a^dag^4 + a^4) - xi2p (a^dag^2 n + n a^2)  [+ corrections]

    All diagonal contributions collapse into a single weight polynomial, so
    the squeeze-free Hamiltonian is one term and the two-photon-driven one
    is three.  The pairing terms follow :data:`DRIVES`, in its order.
    """
    h = spec.higher if spec.higher is not None else HigherOrderCorrections()
    detuning = spec.eta + h.detuning3 + h.detuning4
    kerr = 1.0 - h.kerr3 - h.kerr4
    # -(detuning) n + kerr n(n-1) - cubic4 (n^3 - 3n^2 - 2n), as powers of n
    w = (
        0.0,
        -detuning - kerr + 2.0 * h.cubic4,
        kerr + 3.0 * h.cubic4,
        -h.cubic4,
    )
    deg = 3
    while deg > 1 and w[deg] == 0.0:
        deg -= 1
    terms: list[OperatorTerm] = [OperatorTerm(1.0, 0, 0, w[: deg + 1])]
    for field_name, k, weight, partner in DRIVES.values():
        coeff = -getattr(spec, field_name)
        if partner is not None:
            coeff += getattr(h, partner)
        if coeff != 0.0:
            terms += [OperatorTerm(coeff, k, 0, weight), OperatorTerm(coeff, 0, k, weight)]
    return OperatorPoly(tuple(terms))


# Coupling field -> dH/d(field): -n for eta, -(a^dag^k w(n) + w(n) a^k) for each drive.
COUPLING_DERIVATIVES = {
    "eta": number_poly((0.0, -1.0)),
    **{f: ladder_poly(-1.0, k, 0, w) + ladder_poly(-1.0, 0, k, w) for f, k, w, _ in DRIVES.values()},
}


@dataclass(frozen=True)
class BandedSymMatrix:
    """Real symmetric matrix stored by its lower diagonals.

    It is built from ``diagonals`` alone, ``diagonals[d][i] = M[i + d, i]``:
    ``dim`` is the length of diagonal 0, and diagonal d must hold
    max(dim - d, 0) entries.  Trailing diagonals with no nonzero entry
    (empty ones included) are dropped on construction, so ``bandwidth`` is
    the true one: 0 means diagonal and 1 tridiagonal.  Storage is immutable
    after construction.
    """

    diagonals: tuple[np.ndarray, ...] = field(repr=False)
    dim: int = field(init=False)
    bandwidth: int = field(init=False)

    def __post_init__(self) -> None:
        dim = len(self.diagonals[0]) if self.diagonals else 0
        if dim < 1:
            raise ValueError("diagonal 0 must hold at least one entry")
        frozen = []
        for d, diag in enumerate(self.diagonals):
            diag = np.asarray(diag, dtype=float)
            want = max(dim - d, 0)
            if diag.shape != (want,):
                raise ValueError(f"diagonal {d} must have length {want}")
            if not np.all(np.isfinite(diag)):
                raise NumericFailure(f"non-finite entries on diagonal {d}")
            diag = diag.copy()
            diag.flags.writeable = False
            frozen.append(diag)
        while len(frozen) > 1 and not np.any(frozen[-1]):
            frozen.pop()
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bandwidth", len(frozen) - 1)
        object.__setattr__(self, "diagonals", tuple(frozen))

    @property
    def diagonal(self) -> np.ndarray:
        return self.diagonals[0]

    def to_dense(self) -> np.ndarray:
        """Dense symmetric copy; transposed elements are bit-equal by fill."""
        out = np.zeros((self.dim, self.dim))
        for d, diag in enumerate(self.diagonals):
            idx = np.arange(len(diag))
            out[idx + d, idx] = diag
            out[idx, idx + d] = diag
        return out

    def quadratic_form(self, v: np.ndarray) -> float:
        """v^T M v, from the stored diagonals."""
        total = float(self.diagonal @ (v * v))
        for d in range(1, self.bandwidth + 1):
            total += 2.0 * float(self.diagonals[d] @ (v[d:] * v[:-d]))
        return total

    def leading(self, dim: int) -> "BandedSymMatrix":
        """The leading principal ``dim`` x ``dim`` submatrix."""
        if dim == self.dim:
            return self
        return BandedSymMatrix(tuple(d[: max(dim - i, 0)] for i, d in enumerate(self.diagonals)))

    def band_lower(self) -> np.ndarray:
        """LAPACK lower-banded storage: ab[d, i] = M[i + d, i], zero padded."""
        ab = np.zeros((self.bandwidth + 1, self.dim))
        for d, diag in enumerate(self.diagonals):
            ab[d, : len(diag)] = diag
        return ab


def assemble(poly: OperatorPoly, space: FockSpace) -> BandedSymMatrix:
    """Assemble a Hermitian polynomial into its exact banded symmetric matrix.

    Only monomials with p >= q are accumulated; their conjugates fill the
    upper triangle through the symmetric storage, so the matrix is symmetric
    bit for bit.
    """
    if not poly.is_hermitian():
        raise NonHermitianError("polynomial is not Hermitian; cannot assemble")
    dim = space.dim
    b = poly.bandwidth()
    diags = [np.zeros(max(dim - d, 0)) for d in range(b + 1)]
    for term in poly.terms:
        if term.coeff == 0.0 or term.p < term.q:
            continue
        n, values = _entries(term, space)
        diags[term.step][term.q : term.q + len(n)] += values
    return BandedSymMatrix(tuple(diags))


def poly_to_dense(poly: OperatorPoly, space: FockSpace) -> np.ndarray:
    """Dense matrix of an arbitrary (possibly non-Hermitian) polynomial.

    Used for commutator checks on ladder operators that are not Hermitian
    on their own; truncation drops elements reaching past n_max.
    """
    out = np.zeros((space.dim, space.dim))
    for term in poly.terms:
        if term.coeff == 0.0:
            continue
        n, values = _entries(term, space)
        out[n + term.step, n] += values
    return out


def commutator_residual(
    a: OperatorPoly, b: OperatorPoly, expected: OperatorPoly, space: FockSpace
) -> float:
    """Max-abs entry of [a, b] - expected on the truncation-safe interior block.

    The interior excludes the last p_max rows and columns, where p_max is the
    largest ladder power appearing in a, b, or expected; there the truncated
    product equals the untruncated one.
    """
    p_max = max(a.max_power(), b.max_power(), expected.max_power())
    da = poly_to_dense(a, space)
    db = poly_to_dense(b, space)
    de = poly_to_dense(expected, space)
    resid = da @ db - db @ da - de
    stop = space.n_max - p_max + 1
    if stop < 1:
        raise ValueError(f"n_max={space.n_max} too small for interior block of power {p_max}")
    return float(np.max(np.abs(resid[:stop, :stop])))
