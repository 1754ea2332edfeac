"""Quasi-spin labels, degeneracy grouping, and crossing detection.

At integer detuning ratio eta the squeeze-free spectrum organizes into a
(j, m) multiplet with j = (eta + 1)/2, realized by two bookkeeping bosons
with n1 + n2 = eta + 1; excitation energies are m^2 - 1/4 (eta even) or m^2
(eta odd), exactly.  Crossings between different symmetry sectors are real;
within a sector they are avoided, and both kinds are located by refining a
parameter sweep.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .eigensolve import ConvergedSpectrum, DEFAULT_N_MAX
from .fock import HamiltonianSpec, standard_hamiltonian
from .sectors import detect_modulus
from .sweep import SpectrumGrid, SweepPlan, sector_levels_at, spec_levels

# perfbench/spans.py traces the library by wrapping these names in each
# caller's namespace, this module included; they stay bound here.
from .eigensolve import eigen  # noqa: F401
from .fock import assemble  # noqa: F401
from .sectors import split  # noqa: F401

__all__ = [
    "DEFAULT_TOL_DEG",
    "QuasiSpinLabel",
    "TwoBosonState",
    "KerrLevel",
    "DegeneracyGroup",
    "CrossingEvent",
    "LevelPair",
    "TrackedCrossing",
    "UnconvergedCrossingWarning",
    "kerr_exact_levels",
    "degeneracy_groups",
    "detect_crossings",
    "track_crossing_location",
]

# True splittings in the braiding region sit orders of magnitude above the
# eigensolver backward error at the default basis size.
DEFAULT_TOL_DEG = 1e-6

# Bracket width, in the swept parameter, at which a crossing root is accepted.
ROOT_XTOL = 1e-12

COUPLING_KINDS = {"P2": "xi", "P3": "xi3", "P4": "xi4", "nP2": "xi2p"}


class UnconvergedCrossingWarning(UserWarning):
    """A located crossing sits within one grid step of an unconverged level."""


@dataclass(frozen=True)
class QuasiSpinLabel:
    """Quasi-spin quantum numbers attached to an eigenstate."""

    j: Fraction
    m: Fraction
    parity: int
    v: int | None = None
    pi_prime: int | None = None

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


class KerrLevel(NamedTuple):
    """One exactly-known squeeze-free level: excitation energy plus labels."""

    energy: int
    label: QuasiSpinLabel
    state: TwoBosonState


def kerr_exact_levels(eta: int, count: int | None = None) -> list[KerrLevel]:
    """Exact excitation spectrum of -eta n + n(n-1) at integer eta.

    The multiplet spans Fock occupations n1 = 0..eta+1 with m = (n2 - n1)/2;
    energies are m^2 - 1/4 for even eta and m^2 for odd eta, in integer
    arithmetic.  Levels are sorted by (energy, n1).
    """
    if eta < 0 or int(eta) != eta:
        raise ValueError(f"eta must be a non-negative integer, got {eta}")
    eta = int(eta)
    N = eta + 1
    j = Fraction(N, 2)
    if count is None:
        count = N + 1
    if not 0 < count <= N + 1:
        raise ValueError(f"count must be in 1..{N + 1} (multiplet size)")
    entries = []
    for n1 in range(N + 1):
        state = TwoBosonState(n1, N - n1)
        m = state.m
        exc = m * m - Fraction(1, 4) if eta % 2 == 0 else m * m
        assert exc.denominator == 1
        label = QuasiSpinLabel(j=j, m=m, parity=state.parity)
        entries.append(KerrLevel(int(exc), label, state))
    entries.sort(key=lambda lv: (lv.energy, lv.state.n1))
    return entries[:count]


@dataclass(frozen=True)
class DegeneracyGroup:
    """A cluster of levels whose pairwise gaps sit below the tolerance."""

    indices: tuple[int, ...]
    energies: tuple[float, ...]
    max_internal_gap: float

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


def degeneracy_groups(
    levels: ConvergedSpectrum | np.ndarray,
    tol_deg: float = DEFAULT_TOL_DEG,
    all_levels: bool = False,
) -> list[DegeneracyGroup]:
    """Cluster ascending levels into groups with gaps <= tol_deg * max(1, |E|).

    Operates on the converged prefix of a ConvergedSpectrum unless
    ``all_levels`` is set; a plain ascending array may be passed directly.
    """
    if isinstance(levels, ConvergedSpectrum):
        spectrum = levels if all_levels else levels.converged_levels()
        energies = np.asarray(spectrum.energies, dtype=float)
    else:
        energies = np.asarray(levels, dtype=float)
    groups: list[DegeneracyGroup] = []
    start = 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or (
            energies[i] - energies[i - 1]
            > tol_deg * max(1.0, abs(energies[i]), abs(energies[i - 1]))
        ):
            chunk = energies[start:i]
            gap = float(np.max(np.diff(chunk))) if len(chunk) > 1 else 0.0
            groups.append(
                DegeneracyGroup(tuple(range(start, i)), tuple(float(e) for e in chunk), gap)
            )
            start = i
    return groups


@dataclass(frozen=True)
class CrossingEvent:
    """A located degeneracy (inter-sector) or gap minimum (intra-sector)."""

    kind: str  # "true_crossing" | "avoided_crossing"
    param_value: float
    level_pair: tuple[int, int, int, int]  # residue_a, index_a, residue_b, index_b
    min_gap: float
    labels: tuple[QuasiSpinLabel, QuasiSpinLabel] | None = None

    def __post_init__(self) -> None:
        ra, _, rb, _ = self.level_pair
        if self.kind == "true_crossing" and ra == rb:
            raise ValueError("true crossings join different sectors")
        if self.kind == "avoided_crossing" and ra != rb:
            raise ValueError("avoided crossings stay within one sector")
        if self.kind not in ("true_crossing", "avoided_crossing"):
            raise ValueError(f"unknown crossing kind {self.kind!r}")


def _pair_gap(plan: SweepPlan, k, ra: int, ia: int, rb: int, ib: int):
    """Signed level difference E_a - E_b as a function of the sweep parameter."""
    wanted = ((ra, ia), (rb, ib))

    def f(t: float) -> float:
        ea, eb = sector_levels_at(plan, t, k, wanted)
        return ea - eb

    return f


def _root_in_bracket(f, lo: float, hi: float, f_lo: float, f_hi: float):
    """Brent root of f on [lo, hi]; returns (root, |f(root)|).

    The end values are taken as given, not re-solved: a crossing that sits
    on a grid node has an end value that is pure roundoff, and a fresh solve
    there may carry the other sign.
    """
    known = {lo: f_lo, hi: f_hi}

    def g(t: float) -> float:
        if t not in known:
            known[t] = f(t)
        return known[t]

    root = brentq(g, lo, hi, xtol=ROOT_XTOL)
    return root, abs(g(root))


def _warn_if_unconverged(grid: SpectrumGrid, g: int, r: int, i: int, t: float) -> None:
    flags = grid.converged[r]
    lo, hi = max(g - 1, 0), min(g + 2, flags.shape[0])
    if not flags[lo:hi, i].all():
        warnings.warn(
            f"crossing near param={t:.6g} involves an unconverged level "
            f"(sector {r}, index {i})",
            UnconvergedCrossingWarning,
            stacklevel=3,
        )


def detect_crossings(
    grid: SpectrumGrid,
    max_levels: int | None = 30,
) -> list[CrossingEvent]:
    """Locate true (inter-sector) and avoided (intra-sector) crossings.

    A sign change of an inter-sector level difference between two grid nodes
    is refined by Brent's root finder, started from the grid's values at the
    two nodes; a crossing that sits on a node, where the grid difference is
    roundoff of either sign, is thus reported once, at that node.  An
    interior local minimum of an intra-sector adjacent gap is refined by
    Brent's bounded minimizer over the two grid intervals around it.  Every
    evaluation solves only the two levels compared, through
    ``sector_levels_at``.

    True crossings are located to ``ROOT_XTOL`` + 4 eps |t| in the parameter
    t.  Avoided-crossing minima are located to about 2 sqrt(eps) |t| +
    ``ROOT_XTOL``: the gap is quadratic there, so energies accurate to eps
    fix its position no better.  ``min_gap`` is |E_a - E_b| at the returned parameter.  At
    most ``max_levels`` curves per sector are scanned.
    """
    params = grid.params
    events: list[CrossingEvent] = []
    residues = grid.residues

    for xa in range(len(residues)):
        for xb in range(xa + 1, len(residues)):
            ra, rb = residues[xa], residues[xb]
            A = grid.curves[ra][:, :max_levels]
            B = grid.curves[rb][:, :max_levels]
            diff = A[:, :, None] - B[:, None, :]
            sign = np.sign(diff)
            node_hits = np.argwhere(sign == 0)
            for g, i, jj in node_hits:
                events.append(
                    CrossingEvent(
                        "true_crossing",
                        float(params[g]),
                        (ra, int(i), rb, int(jj)),
                        0.0,
                    )
                )
                _warn_if_unconverged(grid, int(g), ra, int(i), float(params[g]))
            flips = np.argwhere(sign[:-1] * sign[1:] < 0)
            for g, i, jj in flips:
                f = _pair_gap(grid.plan, grid.modulus, ra, int(i), rb, int(jj))
                root, gap = _root_in_bracket(
                    f,
                    float(params[g]),
                    float(params[g + 1]),
                    float(diff[g, i, jj]),
                    float(diff[g + 1, i, jj]),
                )
                events.append(
                    CrossingEvent("true_crossing", root, (ra, int(i), rb, int(jj)), gap)
                )
                _warn_if_unconverged(grid, int(g), ra, int(i), root)
                _warn_if_unconverged(grid, int(g), rb, int(jj), root)

    for r in residues:
        C = grid.curves[r][:, :max_levels]
        if C.shape[1] < 2:
            continue
        gaps = C[:, 1:] - C[:, :-1]
        for i in range(gaps.shape[1]):
            g = gaps[:, i]
            interior = np.arange(1, len(g) - 1)
            mins = interior[(g[interior] < g[interior - 1]) & (g[interior] <= g[interior + 1])]
            for m in mins:
                fn = _pair_gap(grid.plan, grid.modulus, r, i + 1, r, i)
                best = minimize_scalar(
                    fn,
                    bounds=(float(params[m - 1]), float(params[m + 1])),
                    method="bounded",
                    options={"xatol": ROOT_XTOL},
                )
                t = float(best.x)
                events.append(
                    CrossingEvent("avoided_crossing", t, (r, i + 1, r, i), abs(best.fun))
                )
                _warn_if_unconverged(grid, int(m), r, i, t)

    events.sort(key=lambda e: (e.param_value, e.level_pair))
    return events


class LevelPair(NamedTuple):
    """Two levels addressed by sector residue and in-sector sorted index."""

    residue_a: int
    index_a: int
    residue_b: int
    index_b: int


class TrackedCrossing(NamedTuple):
    coupling_value: float
    eta_star: float | None
    found: bool
    gap: float


def track_crossing_location(
    pair: LevelPair,
    coupling: str,
    xi_grid,
    eta0: int,
    n_max: int = DEFAULT_N_MAX,
    bracket_halfwidth: float = 0.5,
    max_expand: int = 3,
) -> list[TrackedCrossing]:
    """Follow the detuning eta*(xi) where a level pair stays degenerate.

    ``coupling`` is one of P2, P3, P4, nP2; at xi = 0 the pair crosses at
    eta0.  Each step brackets the signed pair difference in eta around the
    previous location, widening the bracket up to ``max_expand`` times, and
    refines the root with Brent's method to ``ROOT_XTOL`` in eta.  Each evaluation
    solves only the two levels of the pair at ``n_max``; the bracket ends are
    not solved twice, and ``gap`` is |E_a - E_b| at the root.  A bracket that
    never changes sign (the pair has merged into the avoided regime) is
    reported as not found.
    """
    if coupling not in COUPLING_KINDS:
        raise ValueError(f"coupling must be one of {sorted(COUPLING_KINDS)}")
    field_name = COUPLING_KINDS[coupling]
    k = detect_modulus(
        standard_hamiltonian(HamiltonianSpec(eta=float(eta0), **{field_name: 1.0}))
    )
    ra, ia, rb, ib = pair
    wanted = ((ra, ia), (rb, ib))

    def level_diff(eta: float, xi: float) -> float:
        spec = HamiltonianSpec(eta=eta, **{field_name: xi})
        ea, eb = spec_levels(spec, n_max, k, wanted)
        return ea - eb

    center = float(eta0)
    out: list[TrackedCrossing] = []
    for xi in xi_grid:
        xi = float(xi)
        f = functools.partial(level_diff, xi=xi)
        w = bracket_halfwidth
        found = False
        for _ in range(max_expand + 1):
            lo, hi = center - w, center + w
            f_lo, f_hi = f(lo), f(hi)
            if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0) != (f_hi < 0):
                root, gap = _root_in_bracket(f, lo, hi, f_lo, f_hi)
                found = True
                break
            w *= 2.0
        if found:
            out.append(TrackedCrossing(xi, float(root), True, gap))
            center = float(root)
        else:
            out.append(TrackedCrossing(xi, None, False, min(abs(f_lo), abs(f_hi))))
    return out
