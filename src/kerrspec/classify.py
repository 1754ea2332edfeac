"""Quasi-spin labels, degeneracy grouping, and crossing detection.

At integer detuning ratio eta the squeeze-free spectrum organizes into a
(j, m) multiplet with j = (eta + 1)/2, realized by two bookkeeping bosons
with n1 + n2 = eta + 1; excitation energies are m^2 - 1/4 (eta even) or m^2
(eta odd), exactly.  Crossings between different symmetry sectors are real;
within a sector they are avoided, and both kinds are located by refining a
parameter sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .eigensolve import DEFAULT_N_MAX, DEFAULT_TOL_CONV, _level_flags, check_basis
from .fock import COUPLING_DERIVATIVES, COUPLING_KINDS, HamiltonianSpec
from .sectors import family_modulus, sector_dim
from .sweep import (
    ConvergedSpectrum,
    SpectrumGrid,
    SweepPlan,
    sector_blocks,
    sector_levels_at,
    spec_levels,
)

# perfbench/spans.py traces the library by wrapping these names in each
# caller's namespace, this module included; they stay bound here.
from .eigensolve import eigen  # noqa: F401
from .fock import assemble  # noqa: F401
from .sectors import split  # noqa: F401

__all__ = [
    "DEFAULT_MAX_LEVELS",
    "DEFAULT_TOL_DEG",
    "QuasiSpinLabel",
    "TwoBosonState",
    "KerrLevel",
    "DegeneracyGroup",
    "CrossingEvent",
    "LevelPair",
    "TrackedCrossing",
    "UnconvergedCrossingWarning",
    "UnrefinedCrossingWarning",
    "kerr_exact_levels",
    "degeneracy_groups",
    "detect_crossings",
    "check_track_pair",
    "track_crossing_location",
]

# True splittings in the braiding region sit orders of magnitude above the
# eigensolver backward error at the default basis size.
DEFAULT_TOL_DEG = 1e-6

# Curves per sector that the crossing scan compares, by default.
DEFAULT_MAX_LEVELS = 12

# Bracket width, in the swept parameter, at which a crossing root is accepted;
# the relative part of the tolerance is ROOT_RTOL |t|.
ROOT_XTOL = 1e-12
ROOT_RTOL = 4 * float(np.finfo(float).eps)
ROOT_MAXITER = 100

# track_crossing_location's first bracket half-width in eta around the previous
# location, and how many times it doubles the bracket before giving up.
BRACKET_HALFWIDTH = 0.5
BRACKET_WIDENINGS = 3


class UnconvergedCrossingWarning(UserWarning):
    """A located crossing sits within one grid step of an unconverged level."""


class UnrefinedCrossingWarning(UserWarning):
    """An avoided crossing is reported at its grid node, unrefined."""


@dataclass(frozen=True)
class QuasiSpinLabel:
    """Quasi-spin quantum numbers attached to an eigenstate."""

    j: Fraction
    m: Fraction
    parity: int

    def __post_init__(self) -> None:
        if abs(self.m) > self.j:
            raise ValueError(f"|m|={self.m} exceeds j={self.j}")
        if (self.j - self.m).denominator != 1:
            raise ValueError(f"j - m must be an integer, got {self.j - self.m}")


@dataclass(frozen=True)
class TwoBosonState:
    """Bookkeeping-boson realization |n1, n2> of a quasi-spin state."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("occupations must be non-negative")

    @property
    def N(self) -> int:
        return self.n1 + self.n2

    @property
    def j(self) -> Fraction:
        return Fraction(self.N, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.n2 - self.n1, 2)

    @property
    def parity(self) -> int:
        return -1 if self.n1 % 2 else 1


@dataclass(frozen=True)
class KerrLevel:
    """One exactly-known squeeze-free level, fixed by its two-boson state."""

    state: TwoBosonState

    @property
    def label(self) -> QuasiSpinLabel:
        return QuasiSpinLabel(self.state.j, self.state.m, self.state.parity)

    @property
    def energy(self) -> int:
        """Excitation energy m^2 - 1/4 at odd N, m^2 at even N, an integer."""
        m = self.state.m
        return int(m * m - Fraction(self.state.N % 2, 4))


def kerr_exact_levels(eta: int) -> list[KerrLevel]:
    """Exact excitation spectrum of -eta n + n(n-1) at integer eta.

    The multiplet spans Fock occupations n1 = 0..eta+1 with m = (n2 - n1)/2;
    energies are m^2 - 1/4 for even eta and m^2 for odd eta, in integer
    arithmetic.  All eta + 2 levels are returned, sorted by (energy, n1).
    An integral float such as 4.0 is taken as its integer.
    """
    if not eta >= 0 or eta % 1:  # also refuses inf and nan
        raise ValueError(f"eta must be a non-negative integer, got {eta}")
    N = int(eta) + 1
    levels = [KerrLevel(TwoBosonState(n1, N - n1)) for n1 in range(N + 1)]
    levels.sort(key=lambda lv: (lv.energy, lv.state.n1))
    return levels


@dataclass(frozen=True)
class DegeneracyGroup:
    """A cluster of levels whose pairwise gaps sit below the tolerance."""

    indices: tuple[int, ...]
    energies: tuple[float, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.indices)

    @property
    def max_internal_gap(self) -> float:
        return float(np.max(np.diff(self.energies))) if len(self.energies) > 1 else 0.0


def degeneracy_groups(
    levels: ConvergedSpectrum | np.ndarray, tol_deg: float = DEFAULT_TOL_DEG
) -> list[DegeneracyGroup]:
    """Cluster ascending levels into groups with gaps <= tol_deg * max(1, |E|).

    Operates on the converged prefix of a ConvergedSpectrum; a plain
    ascending array may be passed directly.  Levels that are not finite or
    not ascending raise ValueError.
    """
    if isinstance(levels, ConvergedSpectrum):
        energies = np.asarray(levels.converged_levels().energies, dtype=float)
    else:
        energies = np.asarray(levels, dtype=float)
    if not np.isfinite(energies).all():
        raise ValueError("levels must be finite")
    if (np.diff(energies) < 0).any():
        raise ValueError("levels must be ascending")
    groups: list[DegeneracyGroup] = []
    start = 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or (
            energies[i] - energies[i - 1]
            > tol_deg * max(1.0, abs(energies[i]), abs(energies[i - 1]))
        ):
            groups.append(
                DegeneracyGroup(tuple(range(start, i)), tuple(float(e) for e in energies[start:i]))
            )
            start = i
    return groups


@dataclass(frozen=True)
class CrossingEvent:
    """A located degeneracy (inter-sector) or gap minimum (intra-sector)."""

    param_value: float
    level_pair: tuple[int, int, int, int]  # residue_a, index_a, residue_b, index_b
    min_gap: float

    @property
    def kind(self) -> str:
        """``avoided_crossing`` for two levels of one sector, else ``true_crossing``."""
        return "avoided_crossing" if self.level_pair[0] == self.level_pair[2] else "true_crossing"


def _pair_gap(plan: SweepPlan, ra: int, ia: int, rb: int, ib: int):
    """Signed level difference E_a - E_b as a function of the sweep parameter."""
    wanted = ((ra, ia), (rb, ib))

    def f(t: float) -> float:
        ea, eb = sector_levels_at(plan, t, wanted)
        return ea - eb

    return f


def _brent(f, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, float]:
    """Brent root of f on [lo, hi]; returns (root, f(root)).

    The end values are taken as given, not re-solved: a crossing that sits
    on a grid node has an end value that is pure roundoff, and a fresh solve
    there may carry the other sign.  The iteration is SciPy's ``brentq``,
    step for step (secant or inverse quadratic interpolation, else
    bisection), converged once the bracket half-width falls below
    (ROOT_XTOL + ROOT_RTOL |t|) / 2; the root is always a point where f was
    evaluated or given.
    """
    x_pre, x_cur, f_pre, f_cur = lo, hi, f_lo, f_hi
    if f_pre == 0:
        return x_pre, f_pre
    if f_cur == 0:
        return x_cur, f_cur
    if (f_pre < 0) == (f_cur < 0):
        raise ValueError(f"no sign change of f on [{lo}, {hi}]")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(ROOT_MAXITER):
        # f_cur == 0 returns below, whatever the bracket
        if (f_pre < 0) != (f_cur < 0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0 or abs(s_bis) < delta:
            return x_cur, f_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0 else -delta
        f_cur = f(x_cur)
    raise RuntimeError(f"Brent root not converged after {ROOT_MAXITER} iterations")


def _gap_minimum(plan: SweepPlan, r: int, i: int, slopes, lo: float, hi: float):
    """Minimum of the gap E_{i+1} - E_i of sector r on [lo, hi]: (t, gap at t).

    The minimum is the zero of the exact gap slope dE_{i+1}/dt - dE_i/dt,
    found by :func:`_brent` from the slopes at ``lo`` and ``hi``.  Returns
    None unless that slope rises through zero there.
    """
    wanted = ((r, i + 1), (r, i))
    gaps = {}

    def slope(t: float) -> float:
        (e_hi, s_hi), (e_lo, s_lo) = sector_levels_at(plan, t, wanted, slopes)
        gaps[t] = e_hi - e_lo
        return s_hi - s_lo

    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo > 0 or s_hi < 0:
        return None
    t, _ = _brent(slope, lo, hi, s_lo, s_hi)
    return t, abs(gaps[t])


def _report(events: list[CrossingEvent], grid: SpectrumGrid, event: CrossingEvent, g: int) -> None:
    """Append ``event``, located at or next to grid node ``g``, and warn about
    each of its levels that is not certified within one grid step of it."""
    events.append(event)
    ra, ia, rb, ib = event.level_pair
    for r, i in ((ra, ia), (rb, ib)):
        flags = grid.converged[r]
        if not flags[max(g - 1, 0) : g + 2, i].all():
            warnings.warn(
                f"crossing near param={event.param_value:.6g} involves an unconverged level "
                f"(sector {r}, index {i})",
                UnconvergedCrossingWarning,
                stacklevel=3,
            )


def detect_crossings(
    grid: SpectrumGrid,
    max_levels: int | None = DEFAULT_MAX_LEVELS,
) -> list[CrossingEvent]:
    """Locate true (inter-sector) and avoided (intra-sector) crossings.

    A sign change of an inter-sector level difference between two grid nodes
    is refined by Brent's root finder, started from the grid's values at the
    two nodes; a crossing that sits on a node, where the grid difference is
    roundoff of either sign, is thus reported once, at that node.  An
    interior local minimum of an intra-sector adjacent gap is refined to the
    zero of the gap's exact slope over the two grid intervals around it, by
    the same root finder; the slopes are Hellmann-Feynman values of the two
    levels' eigenvectors.  Every evaluation solves only the two levels
    compared, through ``sector_levels_at``.

    Both kinds are located to ``ROOT_XTOL`` + ``ROOT_RTOL`` |t| in the
    parameter t, up to the roundoff of the compared quantity.  A gap minimum
    whose slope does not rise through zero on its two intervals is reported
    at its grid node with the grid's gap, with an
    :class:`UnrefinedCrossingWarning`.  ``min_gap`` is |E_a - E_b| at the
    returned parameter.  At most ``max_levels`` curves per sector are scanned.
    Each level of an event that is not certified within one grid step of it
    gets an :class:`UnconvergedCrossingWarning`.

    Each sector's levels are compared with the columns of all later sectors
    at once, taken in slices so that no comparison array holds more than
    G x (the levels scanned in this sector and all later ones) elements,
    G being the grid length.  ``max_levels`` is None (every level) or at
    least 1; anything else raises ValueError.
    """
    if max_levels is not None and max_levels < 1:
        raise ValueError(f"max_levels must be None or at least 1, got {max_levels!r}")
    plan, params = grid.plan, grid.params
    events: list[CrossingEvent] = []
    curves = [grid.curves[r][:, :max_levels] for r in grid.residues]
    later = np.concatenate(curves, axis=1)
    columns = [(r, j) for r, c in zip(grid.residues, curves) for j in range(c.shape[1])]

    for ra, A in zip(grid.residues, curves):
        later, columns = later[:, A.shape[1] :], columns[A.shape[1] :]
        width = 1 + len(columns) // max(A.shape[1], 1)  # La * width <= La + len(columns)
        for c0 in range(0, len(columns), width):
            diff = A[:, :, None] - later[:, None, c0 : c0 + width]
            sign = np.sign(diff)
            for g, i, c in np.argwhere(sign == 0):
                rb, jb = columns[c0 + c]
                event = CrossingEvent(float(params[g]), (ra, int(i), rb, jb), 0.0)
                _report(events, grid, event, int(g))
            for g, i, c in np.argwhere(sign[:-1] * sign[1:] < 0):
                rb, jb = columns[c0 + c]
                f = _pair_gap(plan, ra, int(i), rb, jb)
                lo, hi = float(params[g]), float(params[g + 1])
                root, gap = _brent(f, lo, hi, float(diff[g, i, c]), float(diff[g + 1, i, c]))
                event = CrossingEvent(root, (ra, int(i), rb, jb), abs(gap))
                _report(events, grid, event, int(g))

    slopes = None  # sector blocks of dH/d(param), built at the first gap minimum
    for r, C in zip(grid.residues, curves):
        if C.shape[1] < 2:
            continue
        gaps = C[:, 1:] - C[:, :-1]
        for i in range(gaps.shape[1]):
            g = gaps[:, i]
            interior = np.arange(1, len(g) - 1)
            mins = interior[(g[interior] < g[interior - 1]) & (g[interior] <= g[interior + 1])]
            for m in mins:
                if slopes is None:
                    slopes = sector_blocks(
                        COUPLING_DERIVATIVES[plan.varying], plan.n_max, plan.modulus
                    )
                lo, hi = float(params[m - 1]), float(params[m + 1])
                found = _gap_minimum(plan, r, i, slopes, lo, hi)
                if found is None:
                    warnings.warn(
                        f"avoided crossing near param={params[m]:.6g} (sector {r}, levels "
                        f"{i} and {i + 1}) left at its grid node: the gap slope does not "
                        "rise through zero on the two grid intervals around it",
                        UnrefinedCrossingWarning,
                        stacklevel=2,
                    )
                t, gap = found or (float(params[m]), float(g[m]))
                event = CrossingEvent(t, (r, i + 1, r, i), gap)
                _report(events, grid, event, int(m))

    events.sort(key=lambda e: (e.param_value, e.level_pair))
    return events


class LevelPair(NamedTuple):
    """Two levels addressed by sector residue and in-sector sorted index."""

    residue_a: int
    index_a: int
    residue_b: int
    index_b: int


class TrackedCrossing(NamedTuple):
    """One grid point of :func:`track_crossing_location`; eta_star is None where it was lost.

    ``converged`` is True where both levels at the root agree between n_max
    and n_probe, as :func:`~kerrspec.eigensolve.certify` tests them; a lost
    point is not converged.
    """

    coupling_value: float
    eta_star: float | None
    gap: float
    converged: bool

    @property
    def found(self) -> bool:
        return self.eta_star is not None


def check_track_pair(
    pair: LevelPair, coupling: str, n_max: int, fixed: HamiltonianSpec = HamiltonianSpec()
) -> int:
    """Raise ValueError unless ``pair`` names two different levels that exist under
    ``coupling`` over the base spec ``fixed`` at ``n_max``.

    k is :func:`family_modulus` of ``fixed`` and the coupling's field (the
    track's eta moves a diagonal term only); sector r holds the states r,
    r + k, ... <= n_max.  Returns k.  A level paired with itself has a gap
    that is identically zero, so every bracket would report a root.
    """
    if coupling not in COUPLING_KINDS:
        raise ValueError(f"coupling must be one of {sorted(COUPLING_KINDS)}")
    if pair[:2] == pair[2:]:
        raise ValueError(f"pair names the level {tuple(pair[:2])} twice")
    k = family_modulus(fixed, COUPLING_KINDS[coupling])
    for r, i in (pair[:2], pair[2:]):
        if not (0 <= r < k and 0 <= i < sector_dim(n_max + 1, k, r)):
            raise ValueError(
                f"pair level ({r}, {i}) is not among the {coupling} track's sector levels "
                f"(modulus {k}) at n_max={n_max}"
            )
    return k


def track_crossing_location(
    pair: LevelPair,
    coupling: str,
    xi_grid,
    eta0: int,
    n_max: int = DEFAULT_N_MAX,
    n_probe: int | None = None,
    tol_conv: float = DEFAULT_TOL_CONV,
    fixed: HamiltonianSpec = HamiltonianSpec(),
) -> list[TrackedCrossing]:
    """Follow the detuning eta*(xi) where a level pair stays degenerate.

    ``coupling`` is one of P2, P3, P4, nP2, and its field takes each value
    xi of ``xi_grid`` over the base spec ``fixed``, whose ``eta`` and
    coupling field are overridden; at xi = 0 the pair crosses at eta0.
    Each step brackets the signed pair difference in eta around the
    previous location, ``BRACKET_HALFWIDTH`` either side, doubling the
    bracket up to ``BRACKET_WIDENINGS`` times, and refines the root with
    Brent's method to ``ROOT_XTOL`` + ``ROOT_RTOL`` |eta|.  Each evaluation
    solves only the two levels of the pair at ``n_max``; the bracket ends
    are not solved twice, and ``gap`` is |E_a - E_b| at the root.  The two
    levels are solved once more at ``n_probe`` at each root, and the point
    is ``converged`` when both pass |E(n_max) - E(n_probe)| <= tol_conv *
    max(1, |E|).  A bracket that never changes sign (the pair has merged
    into the avoided regime) is reported as not found.  Basis settings that
    :func:`check_basis` refuses, or a pair that :func:`check_track_pair`
    refuses, raise ValueError before anything is solved.
    """
    n_probe = check_basis(n_max, n_probe, tol_conv)
    k = check_track_pair(pair, coupling, n_max, fixed)
    field_name = COUPLING_KINDS[coupling]
    ra, ia, rb, ib = pair
    wanted = ((ra, ia), (rb, ib))

    def pair_levels(eta: float, xi: float, n: int) -> tuple[float, float]:
        return spec_levels(replace(fixed, eta=eta, **{field_name: xi}), n, k, wanted)

    center = float(eta0)
    out: list[TrackedCrossing] = []
    for xi in xi_grid:
        xi = float(xi)
        levels = {}  # eta -> the pair's n_max levels at this xi

        def f(eta: float) -> float:
            ea, eb = levels[eta] = pair_levels(eta, xi, n_max)
            return ea - eb

        w = BRACKET_HALFWIDTH
        for _ in range(BRACKET_WIDENINGS + 1):
            lo, hi = center - w, center + w
            f_lo, f_hi = f(lo), f(hi)
            if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0) != (f_hi < 0):
                root, gap = _brent(f, lo, hi, f_lo, f_hi)
                probe = pair_levels(root, xi, n_probe)
                ok = _level_flags(np.array(levels[root]), np.array(probe), tol_conv).all()
                out.append(TrackedCrossing(xi, float(root), abs(gap), bool(ok)))
                center = float(root)
                break
            w *= 2.0
        else:
            out.append(TrackedCrossing(xi, None, min(abs(f_lo), abs(f_hi)), False))
    return out
