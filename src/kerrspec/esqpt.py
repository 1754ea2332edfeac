"""Gap closure analysis and critical-coupling estimators.

As the two-photon drive grows, opposite-parity level pairs merge below a
separatrix energy; the closing of the v-th gap locates a critical coupling.
Three estimators are provided: the maximum of -d(gap)/dxi (inflection of the
gap), a straight-line extrapolation of the falling gap to zero, and the
first coupling where the gap drops below a fixed fraction of the pair's mean
energy and stays there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classify import DEFAULT_TOL_DEG
from .fock import NO_CORRECTIONS, NumericFailure, check_count
from .sectors import sector_dim
from .sweep import SpectrumGrid, SweepPlan

__all__ = [
    "GapCurve",
    "CriticalPointEstimate",
    "SeparatrixModel",
    "check_gap_sweep",
    "gap_curves",
    "xi_c_max_rate",
    "xi_c_linear_extrapolation",
    "xi_c_difference_bound",
    "separatrix_from_estimates",
    "LINEXT_WINDOW",
    "DIFF_BOUND_FRACTION",
]

# Linear-extrapolation fit window, as fractions of the gap at the max-rate
# point: clear of both the flat head and the exponential tail.
LINEXT_WINDOW = (0.20, 0.60)
# Smallest number of window samples accepted for the straight-line fit.
LINEXT_MIN_POINTS = 3
# Relative gap threshold for the difference-bound estimator.
DIFF_BOUND_FRACTION = 0.005


@dataclass(frozen=True)
class GapCurve:
    """Parity-pair splitting and mean excitation energy along a coupling grid."""

    v: int
    xi: np.ndarray
    gap: np.ndarray
    mean_energy: np.ndarray

    def __post_init__(self) -> None:
        for name in ("xi", "gap", "mean_energy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (len(self.xi) == len(self.gap) == len(self.mean_energy)):
            raise ValueError("grid, gap, and energy arrays must share a length")
        if np.min(self.gap) < -DEFAULT_TOL_DEG:
            raise NumericFailure(
                f"gap dips to {np.min(self.gap):.3e}; pairing convention violated"
            )


class CriticalPointEstimate(NamedTuple):
    """One gap-closure estimate: pair index, method, coupling, energy."""

    v: int
    method: str
    xi_c: float
    E_c: float

    @property
    def rel_dev(self) -> float:
        """Relative deviation |E_c - xi_c^2| / xi_c^2 of E_c from the square-law separatrix."""
        return abs(self.E_c - self.xi_c**2) / self.xi_c**2


def check_gap_sweep(plan: SweepPlan, v_max: int) -> None:
    """Raise ValueError unless :func:`gap_curves` can pair v = 0..v_max on this sweep.

    That needs a two-photon sweep with parity sectors, no detuning (eta,
    detuning3, detuning4) and 0 <= v_max below the number of odd levels.
    """
    check_count(v_max, "v_max")
    if plan.varying != "xi":
        raise ValueError("gap curves require a sweep in the two-photon coupling")
    h = plan.fixed.higher or NO_CORRECTIONS
    detuning = {"eta": plan.fixed.eta, "detuning3": h.detuning3, "detuning4": h.detuning4}
    if any(detuning.values()):
        raise ValueError(f"gap curves are defined for the undetuned Hamiltonian, got {detuning}")
    if plan.modulus != 2:
        raise ValueError(f"expected parity sectors, got modulus {plan.modulus}")
    odd = sector_dim(plan.n_max + 1, 2, 1)
    if v_max >= odd:
        raise ValueError(f"v_max={v_max} needs {v_max + 1} odd levels and the basis has {odd}")


def gap_curves(grid: SpectrumGrid, v_max: int) -> list[GapCurve]:
    """Pair the v-th odd level with the v-th even level for v = 0..v_max.

    The sweep must pass :func:`check_gap_sweep`; gaps are oriented positive
    and every participating level must be converged over the whole grid.
    """
    check_gap_sweep(grid.plan, v_max)
    even, odd = grid.curves[0], grid.curves[1]
    curves = []
    for v in range(v_max + 1):
        bad = ~(grid.converged[0][:, v] & grid.converged[1][:, v])
        if bad.any():
            raise NumericFailure(
                f"pair v={v} is unconverged at {int(bad.sum())} grid points"
            )
        gap = odd[:, v] - even[:, v]
        nonzero = np.flatnonzero(np.abs(gap) > DEFAULT_TOL_DEG)
        if len(nonzero) and gap[nonzero[0]] < 0:
            gap = -gap
        mean = 0.5 * (odd[:, v] + even[:, v])
        curves.append(GapCurve(v, grid.params, gap, mean))
    return curves


def xi_c_max_rate(curve: GapCurve) -> CriticalPointEstimate | None:
    """Coupling of steepest gap descent, refined by quadratic interpolation.

    Central differences locate the maximum of -d(gap)/dxi; the three grid
    points around it fix a parabola whose vertex is the estimate.  Returns
    None when the extremum is flat or not interior.
    """
    rate = -np.gradient(curve.gap, curve.xi)
    if np.ptp(rate) <= 1e-12 * max(1.0, float(np.max(np.abs(curve.gap)))):
        return None
    k = int(np.argmax(rate))
    if k == 0 or k == len(rate) - 1:
        return None
    x3, r3 = curve.xi[k - 1 : k + 2], rate[k - 1 : k + 2]
    a, b, _ = np.polyfit(x3, r3, 2)
    xi_c = float(-b / (2.0 * a)) if a < 0 else float(curve.xi[k])
    xi_c = float(np.clip(xi_c, x3[0], x3[2]))
    e_c = float(np.interp(xi_c, curve.xi, curve.mean_energy))
    return CriticalPointEstimate(curve.v, "max_rate", xi_c, e_c)


def xi_c_linear_extrapolation(curve: GapCurve) -> CriticalPointEstimate | None:
    """Straight-line extrapolation of the falling gap to zero.

    The fit window holds samples past the max-rate point where the gap sits
    between the LINEXT_WINDOW fractions of its value there; when the max-rate
    point is undefined (flat derivative) the curve maximum serves as the
    reference instead.
    """
    mr = xi_c_max_rate(curve)
    if mr is not None:
        g_ref = float(np.interp(mr.xi_c, curve.xi, curve.gap))
        eligible = curve.xi >= mr.xi_c
    else:
        g_ref = float(np.max(curve.gap))
        eligible = np.ones(len(curve.xi), dtype=bool)
    lo, hi = LINEXT_WINDOW
    mask = eligible & (curve.gap >= lo * g_ref) & (curve.gap <= hi * g_ref)
    if mask.sum() < LINEXT_MIN_POINTS:
        return None
    slope, intercept = np.polyfit(curve.xi[mask], curve.gap[mask], 1)
    if slope >= 0:
        return None
    xi_c = float(-intercept / slope)
    if not curve.xi[0] <= xi_c <= curve.xi[-1]:
        return None
    e_c = float(np.interp(xi_c, curve.xi, curve.mean_energy))
    return CriticalPointEstimate(curve.v, "linear_extrapolation", xi_c, e_c)


def xi_c_difference_bound(curve: GapCurve) -> CriticalPointEstimate | None:
    """First coupling where gap <= DIFF_BOUND_FRACTION * (pair mean energy), persistently.

    The condition must hold from the reported point to the end of the grid,
    which suppresses spurious early triggers; the crossing is interpolated
    linearly between the bracketing samples.
    """
    h = curve.gap - DIFF_BOUND_FRACTION * curve.mean_energy
    ok = h <= 0.0
    if not ok[-1]:
        return None
    idx = len(ok) - 1
    while idx > 0 and ok[idx - 1]:
        idx -= 1
    if idx == 0:
        xi_c = float(curve.xi[0])
    else:
        x0, x1 = curve.xi[idx - 1], curve.xi[idx]
        h0, h1 = h[idx - 1], h[idx]
        xi_c = float(x0 + h0 * (x1 - x0) / (h0 - h1)) if h0 != h1 else float(x1)
    e_c = float(np.interp(xi_c, curve.xi, curve.mean_energy))
    return CriticalPointEstimate(curve.v, "difference_bound", xi_c, e_c)


def separatrix_from_estimates(
    estimates: list[CriticalPointEstimate | None],
) -> list[CriticalPointEstimate]:
    """The estimates that map the separatrix, with None dropped.

    At least three are required, each at a nonzero xi_c, so that every
    :attr:`CriticalPointEstimate.rel_dev` from the square law E_c = xi_c^2
    is defined; NumericFailure otherwise.
    """
    points = [e for e in estimates if e is not None]
    if len(points) < 3:
        raise NumericFailure("need at least three estimates to map the separatrix")
    for e in points:
        if e.xi_c == 0.0:
            raise NumericFailure(f"estimate at xi_c=0 (v={e.v}) has no square-law reference")
    return points


@dataclass(frozen=True)
class SeparatrixModel:
    """Closed-form separatrix estimates for spectral phase boundaries.

    kinds: ``kerr`` eta/2 + eta^2/4 (exact, squeeze-free); ``squeeze`` xi^2;
    ``combined`` eta/2 + eta^2/4 + eta xi and ``combined_prime`` eta xi (both
    approximate, for the doubly-driven phase diagram).
    """

    kind: str

    _KINDS = ("kerr", "squeeze", "combined", "combined_prime")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")

    def evaluate(self, eta=0.0, xi=0.0):
        eta = np.asarray(eta, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if self.kind == "kerr":
            return eta / 2.0 + eta**2 / 4.0
        if self.kind == "squeeze":
            return xi**2
        if self.kind == "combined":
            return eta / 2.0 + eta**2 / 4.0 + eta * xi
        return eta * xi
