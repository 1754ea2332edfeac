"""Normal-ordered boson polynomials and their truncated Fock-space matrices.

A single-mode Hamiltonian is kept as a sum of normal-ordered monomials

    coeff * a^dag^p  w(n)  a^q,        w(n) = w_0 + w_1 n + w_2 n^2 + ...

where the number-operator weight w is evaluated at the occupation left
behind after a^q has acted.  Matrix elements in the truncated basis
|0>, ..., |n_max> follow from a|n> = sqrt(n)|n-1>, a^dag|n> = sqrt(n+1)|n+1>;
anything reaching past n_max is projected out.  Hermitian polynomials
assemble into exactly symmetric banded matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "matrix_element",
    "assemble",
    "poly_to_dense",
    "standard_hamiltonian",
    "commutator_residual",
    "number_poly",
    "ladder_poly",
    "pairing_poly",
    "COUPLING_FIELDS",
    "COUPLING_KINDS",
]


class NonHermitianError(ValueError):
    """A Hamiltonian assembly was attempted on a non-Hermitian polynomial."""


class NumericFailure(ValueError):
    """Valid input whose computation failed: an overflow, unconverged levels, a broken identity."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock basis |0>, ..., |n_max>."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {self.n_max}")

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
        if self.p < 0 or self.q < 0:
            raise ValueError("ladder powers must be non-negative")
        if len(self.weight) == 0:
            raise ValueError("weight polynomial needs at least one coefficient")
        object.__setattr__(self, "weight", tuple(float(c) for c in self.weight))
        object.__setattr__(self, "coeff", float(self.coeff))

    @property
    def step(self) -> int:
        """Net change p - q in occupation produced by the term."""
        return self.p - self.q

    def conjugate(self) -> "OperatorTerm":
        """Hermitian conjugate: (a^dag^p w(n) a^q)^dag = a^dag^q w(n) a^p."""
        return OperatorTerm(self.coeff, self.q, self.p, self.weight)


def _poly_eval(coeffs: tuple[float, ...], x) -> float:
    """Horner evaluation of a weight polynomial; works on scalars and arrays."""
    acc = coeffs[-1] if np.isscalar(x) else np.full_like(x, coeffs[-1], dtype=float)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _ladder_amplitude(p: int, q: int, n):
    """sqrt factor of a^dag^p a^q on |n> (n scalar or integer array).

    The lowering and raising products are accumulated separately so the
    scalar and vectorized paths round identically.  For p = q the two
    products coincide and the sqrt is skipped, keeping diagonal elements
    exact.
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


def matrix_element(
    term: OperatorTerm, n: int, space: FockSpace
) -> tuple[int, float] | None:
    """Element <n + p - q| coeff a^dag^p w(n) a^q |n> in the truncated basis.

    Returns ``(row, value)`` or None when the term maps |n> out of the basis
    (n - q < 0 or n + p - q > n_max).
    """
    if not 0 <= n <= space.n_max:
        raise ValueError(f"n={n} outside basis 0..{space.n_max}")
    k = n - term.q
    row = n + term.step
    if k < 0 or row > space.n_max:
        return None
    value = term.coeff * _poly_eval(term.weight, k) * _ladder_amplitude(term.p, term.q, n)
    return row, float(value)


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

    def __neg__(self) -> "OperatorPoly":
        return (-1.0) * self

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


# HamiltonianSpec fields that act as sweepable coupling strengths.
COUPLING_FIELDS = ("eta", "xi", "xi3", "xi4", "xi2p")

# Crossing-tracking perturbations P2, P3, P4, nP2 -> the field each one scales.
COUPLING_KINDS = {"P2": "xi", "P3": "xi3", "P4": "xi4", "nP2": "xi2p"}


def standard_hamiltonian(spec: HamiltonianSpec) -> OperatorPoly:
    """Expand a parameter record into its normal-ordered polynomial.

        -eta n + n(n-1) - xi (a^dag^2 + a^2) - xi3 (a^dag^3 + a^3)
        - xi4 (a^dag^4 + a^4) - xi2p (a^dag^2 n + n a^2)  [+ corrections]

    All diagonal contributions collapse into a single weight polynomial, so
    the squeeze-free Hamiltonian is one term and the two-photon-driven one
    is three.
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

    two_photon = -spec.xi + h.squeeze3
    if two_photon != 0.0:
        terms += [OperatorTerm(two_photon, 2, 0), OperatorTerm(two_photon, 0, 2)]
    if spec.xi3 != 0.0:
        terms += [OperatorTerm(-spec.xi3, 3, 0), OperatorTerm(-spec.xi3, 0, 3)]
    four_photon = -spec.xi4 + h.quad_squeeze4
    if four_photon != 0.0:
        terms += [OperatorTerm(four_photon, 4, 0), OperatorTerm(four_photon, 0, 4)]
    number_squeeze = -spec.xi2p + h.number_squeeze3
    if number_squeeze != 0.0:
        terms += [
            OperatorTerm(number_squeeze, 2, 0, (0.0, 1.0)),
            OperatorTerm(number_squeeze, 0, 2, (0.0, 1.0)),
        ]
    return OperatorPoly(tuple(terms))


@dataclass(frozen=True)
class BandedSymMatrix:
    """Real symmetric matrix stored by its lower diagonals.

    ``diagonals[d][i] = M[i + d, i]``; entries beyond offset ``bandwidth``
    vanish.  Storage is immutable after construction.
    """

    dim: int
    bandwidth: int
    diagonals: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.diagonals) != self.bandwidth + 1:
            raise ValueError("need one stored diagonal per offset 0..bandwidth")
        frozen = []
        for d, diag in enumerate(self.diagonals):
            diag = np.asarray(diag, dtype=float)
            want = max(self.dim - d, 0)
            if diag.shape != (want,):
                raise ValueError(f"diagonal {d} must have length {want}")
            if not np.all(np.isfinite(diag)):
                raise NumericFailure(f"non-finite entries on diagonal {d}")
            diag = diag.copy()
            diag.flags.writeable = False
            frozen.append(diag)
        object.__setattr__(self, "diagonals", tuple(frozen))

    @property
    def diagonal(self) -> np.ndarray:
        return self.diagonals[0]

    def element(self, i: int, j: int) -> float:
        d = abs(i - j)
        if d > self.bandwidth:
            return 0.0
        return float(self.diagonals[d][min(i, j)])

    def to_dense(self) -> np.ndarray:
        """Dense symmetric copy; transposed elements are bit-equal by fill."""
        out = np.zeros((self.dim, self.dim))
        for d, diag in enumerate(self.diagonals):
            idx = np.arange(len(diag))
            out[idx + d, idx] = diag
            out[idx, idx + d] = diag
        return out

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
        d = term.step
        n_lo, n_hi = term.q, space.n_max - d
        if n_hi < n_lo:
            continue
        n = np.arange(n_lo, n_hi + 1)
        values = term.coeff * _poly_eval(term.weight, n - term.q) * _ladder_amplitude(
            term.p, term.q, n
        )
        diags[d][n_lo : n_hi + 1] += values
    return BandedSymMatrix(dim, b, tuple(diags))


def poly_to_dense(poly: OperatorPoly, space: FockSpace) -> np.ndarray:
    """Dense matrix of an arbitrary (possibly non-Hermitian) polynomial.

    Used for commutator checks on ladder operators that are not Hermitian
    on their own; truncation drops elements reaching past n_max.
    """
    out = np.zeros((space.dim, space.dim))
    for term in poly.terms:
        if term.coeff == 0.0:
            continue
        for n in range(space.dim):
            hit = matrix_element(term, n, space)
            if hit is not None:
                row, value = hit
                out[row, n] += value
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
