"""Spectra of banded symmetric blocks and their truncation certificate.

Every solver branches on the block's ``bandwidth`` alone: diagonal blocks
(0) are read off exactly, and the others go to banded LAPACK drivers:
``dsbevd`` for whole spectra; for one level, ``dstebz`` (then ``dstein``
for its vector) on a tridiagonal block and ``dsbevx`` on bandwidths of 2
or more.
They are called straight from scipy's compiled ``_flapack`` extension,
with the arguments that scipy's ``eig_banded`` and ``eigh_tridiagonal``
pass, so the results are theirs bit for bit without the cost of importing
scipy's linalg package (see :func:`_load_lapack`).  :func:`certify`
decides, level by level, whether a block's eigenvalues at n_max agree with
those of the same sector at a larger probe basis to tol * max(1, |E|); it
decides by Sturm counts, without diagonalizing them, for probe blocks of
bandwidth 0 or 1.  :func:`check_basis` is the one rule for the basis
settings n_max, n_probe and tol_conv.  Turning a Hamiltonian into certified
sector levels is :mod:`kerrspec.sweep`'s job.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
from pathlib import Path

import numpy as np

from .fock import BandedSymMatrix

__all__ = [
    "EigenSolverError",
    "eigen",
    "eigenvalue",
    "eigenpair",
    "certify",
    "check_basis",
    "DEFAULT_N_MAX",
    "DEFAULT_TOL_CONV",
]

DEFAULT_N_MAX = 800
DEFAULT_TOL_CONV = 1e-8


class EigenSolverError(RuntimeError):
    """The eigensolver failed to converge; never silently truncated."""


def _load_lapack():
    """scipy's compiled LAPACK wrappers, without running scipy.linalg's __init__.

    Importing scipy.linalg costs about 0.3 s and 20 MiB, mostly its array-API
    layer; the extension alone loads in milliseconds.  It is loaded under a
    private name: loading registers it in ``sys.modules``, and under scipy's
    own name a later ``import scipy.linalg`` would leave its ``_flapack``
    unbound; under its own it lives beside scipy's copy, whichever is loaded
    first.  Where the file is absent (a meson-python editable install of
    scipy) it is imported from scipy.linalg.
    """
    import scipy  # on Windows, registers the directory of scipy's bundled OpenBLAS

    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location("kerrspec._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.linalg import _flapack

    return _flapack


_lapack = _load_lapack()
# LAPACK's dlamch("S"); scipy passes twice it as the absolute bisection tolerance.
_ABSTOL = 2 * np.finfo(float).tiny


def _check_info(info: int, driver: str) -> None:
    """Raise on a LAPACK failure as scipy's wrappers do, non-convergence as EigenSolverError."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {driver}")
    if info > 0:
        raise EigenSolverError(
            f"banded eigensolver failed: {driver} did not converge (LAPACK info={info})"
        )


def _is_integer(n) -> bool:
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def check_basis(
    n_max: int, n_probe: int | None = None, tol_conv: float = DEFAULT_TOL_CONV
) -> int:
    """Validate the basis settings of a certified spectrum; returns n_probe.

    Raises ValueError, naming the setting, unless n_max is a non-negative
    integer, n_probe is an integer above it and tol_conv is finite and not
    negative.  An omitted n_probe is n_max + max(50, n_max // 8): 900 at
    n_max 800.
    """
    if not _is_integer(n_max) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    if n_probe is None:
        n_probe = n_max + max(50, n_max // 8)
    elif not _is_integer(n_probe):
        raise ValueError(f"n_probe must be an integer, got {n_probe!r}")
    elif not n_probe > n_max:
        raise ValueError(f"n_probe={n_probe} must exceed n_max={n_max}")
    if not (math.isfinite(tol_conv) and tol_conv >= 0):
        raise ValueError(f"tol_conv must be finite and not negative, got {tol_conv!r}")
    return n_probe


def eigen(matrix: BandedSymMatrix) -> np.ndarray:
    """Ascending eigenvalues of a banded real symmetric matrix, read-only.

    Diagonal matrices return their diagonal, stably sorted, exactly.
    Otherwise the banded LAPACK driver ``dsbevd`` is used; a LAPACK
    convergence failure raises EigenSolverError.
    """
    if matrix.bandwidth == 0:
        w = np.sort(matrix.diagonal, kind="stable")
    else:
        w, _, info = _lapack.dsbevd(matrix.band_lower(), compute_v=0, lower=1)
        _check_info(info, "dsbevd")
    w.flags.writeable = False
    return w


def _level(
    matrix: BandedSymMatrix, index: int, compute_v: bool
) -> tuple[float, np.ndarray | None]:
    """Level ``index`` (0-based) and, if ``compute_v``, a unit eigenvector (else None)."""
    if not 0 <= index < matrix.dim:
        raise IndexError(f"level {index} outside a {matrix.dim}-state block")
    if matrix.bandwidth == 0:
        n = np.argsort(matrix.diagonal, kind="stable")[index]
        return float(matrix.diagonal[n]), (np.eye(1, matrix.dim, n)[0] if compute_v else None)
    if matrix.bandwidth > 1:
        w, v, _, _, info = _lapack.dsbevx(
            matrix.band_lower(), 0.0, 1.0, index + 1, index + 1, compute_v=int(compute_v),
            range=2, lower=1, abstol=_ABSTOL, mmax=1,
        )
        _check_info(info, "dsbevx")
    else:
        d, e = matrix.diagonal, matrix.diagonals[1]
        m, w, iblock, isplit, info = _lapack.dstebz(
            d, e, 2, 0.0, 1.0, index + 1, index + 1, _ABSTOL, "B"
        )
        _check_info(info, "dstebz")
        if compute_v:
            v, info = _lapack.dstein(d, e, w[:m], iblock, isplit)
            _check_info(info, "dstein")
    return float(w[0]), (v[:, 0] if compute_v else None)


def eigenvalue(matrix: BandedSymMatrix, index: int) -> float:
    """The ``index``-th smallest eigenvalue (0-based) alone.

    Diagonal matrices read their stably sorted diagonal.  Otherwise LAPACK
    computes only the selected eigenvalue, by bisection to absolute accuracy
    2 * safmin: ``dstebz`` on a tridiagonal block, ``dsbevx`` (which reduces
    the band to tridiagonal form first) on a wider one.  It agrees with
    ``eigen(matrix)[index]`` to the backward error of the full solve, at a
    fraction of its cost.
    """
    return _level(matrix, index, compute_v=False)[0]


def eigenpair(matrix: BandedSymMatrix, index: int) -> tuple[float, np.ndarray]:
    """The ``index``-th smallest eigenvalue (0-based) and a unit eigenvector.

    The value is the one :func:`eigenvalue` returns, from the same driver;
    diagonal matrices give the exact unit vector of the entry they read, and
    tridiagonal ones inverse-iterate for the vector with ``dstein``.
    """
    return _level(matrix, index, compute_v=True)


def _level_flags(vals: np.ndarray, probe_vals: np.ndarray, tol: float) -> np.ndarray:
    """|E_main - E_probe| <= tol * max(1, |E_main|), level by level."""
    return np.abs(vals - probe_vals[: len(vals)]) <= tol * np.maximum(1.0, np.abs(vals))


# A (block, shift) Sturm sequence is settled once its pivot d_k >= f_k and
# every later row j has a_j - x >= (f_{j-1} + f_j) * (1 + SETTLE_MARGIN) +
# SETTLE_MARGIN * |a_j|, where f_j = max(|e_j|, PIVOT_FLOOR) (see _sturm_counts).
# The margin covers the rounding of the pivots and of the test itself; the
# floor keeps e_j^2 / d_j below f_j when e_j^2 underflows.
SETTLE_MARGIN = 1e-12
PIVOT_FLOOR = 1e-150
# Rows between two drops of the settled shift columns.
SETTLE_EVERY = 16


def _settle_bounds(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The settling test of :func:`_sturm_counts` for padded rows of many blocks.

    ``a[k, j]`` is row k's diagonal entry of block j (+inf in the padding)
    and ``e[k, j]`` its coupling |e_{k-1}| to the row above (0 where there is
    none).  Returns f_k = max(|e_k|, PIVOT_FLOOR), the floored coupling to
    the row below, and the bound that a shift must stay below after row k:
    the minimum over rows j > k of
    a_j - (f_{j-1} + f_j) * (1 + SETTLE_MARGIN) - SETTLE_MARGIN * |a_j|.
    """
    last = np.full((1, a.shape[1]), PIVOT_FLOOR)
    above = np.maximum(e, PIVOT_FLOOR)
    below = np.concatenate([above[1:], last])
    with np.errstate(invalid="ignore"):
        c = a - ((above + below) * (1.0 + SETTLE_MARGIN) + SETTLE_MARGIN * np.abs(a))
    c[np.isinf(a)] = np.inf
    suffix = np.minimum.accumulate(c[::-1], axis=0)[::-1]
    bound = np.concatenate([suffix[1:], np.full_like(last, np.inf)])
    return below[:, :, None], bound[:, :, None]


def _sturm_counts(
    blocks: list[BandedSymMatrix], shifts: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Eigenvalues of each block of bandwidth 0 or 1 below each of its shifts.

    One Sturm sequence per (block, shift), the pivots of LDL^T of T - x,

        d_k = (a_k - x) - e_{k-1}^2 / d_{k-1},

    run for all of them at once, row by row; the count is the number of
    negative pivots, and a diagonal block is the tridiagonal one with e = 0.
    A zero pivot is left to IEEE arithmetic (e^2 / 0 is infinite and the
    next pivot finite again), as LAPACK ``dlaneg`` does.
    Shorter blocks are padded in front with decoupled +inf rows, and absent
    shifts are -inf; neither ever gives a negative pivot.  Returns the counts
    and, per block, whether some sequence met 0/0 (a zero pivot at a zero
    off-diagonal), which leaves its counts meaningless.

    A sequence stops early once its count is final.  If d_k >= |e_k| and
    every later row has a_j - x >= |e_{j-1}| + |e_j|, then e_k^2 / d_k <=
    |e_k| and d_{k+1} >= |e_{k+1}|, and so on: no later pivot is negative
    (nor 0/0).  The test carries a relative margin and a floor on |e|, so
    that it also holds for the rounded pivots (``SETTLE_MARGIN``).  Every
    ``SETTLE_EVERY`` rows the leading shift columns settled in every block
    are dropped and the rest copied to contiguous arrays; shifts ascend
    within a block, so low shifts settle first.  The counts are those of the
    full recurrence, count for count.
    """
    rows = max(b.dim for b in blocks)
    width = max(len(x) for x in shifts)
    a = np.full((rows, len(blocks)), np.inf)
    e = np.zeros((rows, len(blocks)))
    x = np.full((len(blocks), width), -np.inf)
    for j, (block, shift) in enumerate(zip(blocks, shifts)):
        top = rows - block.dim
        a[top:, j] = block.diagonal
        if block.bandwidth == 1:
            e[top + 1 :, j] = np.abs(block.diagonals[1])
        x[j, : len(shift)] = shift
    floor, bound = _settle_bounds(a, e)
    a, e2 = a[:, :, None], (e * e)[:, :, None]
    out = np.zeros(x.shape, dtype=np.int32)
    done = 0  # out[:, :done] holds final counts
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
            if (k + 1) % SETTLE_EVERY:
                continue
            settled = ((d >= floor[k]) & (x < bound[k])).all(axis=0)
            drop = len(settled) if settled.all() else int(np.argmin(settled))
            if drop:
                out[:, done : done + drop] = count[:, :drop]
                done += drop
                if done == width:
                    break
                x, d, count = (np.ascontiguousarray(v[:, drop:]) for v in (x, d, count))
                t = np.empty_like(x)
                negative = np.empty(x.shape, dtype=bool)
    if done < width:
        out[:, done:] = count
    failed = np.isnan(d).any(axis=1)
    return [out[j, : len(shift)] for j, shift in enumerate(shifts)], failed


def certify(main: list[np.ndarray], probe: list[BandedSymMatrix], tol: float) -> list[np.ndarray]:
    """Truncation-convergence flags of sector levels against the probe basis.

    ``main[j]`` holds the ascending eigenvalues of one sector block at n_max
    and ``probe[j]`` is the same sector's block at the probe basis.  Level i
    is converged when |E_main[i] - E_probe[i]| <= tol * max(1, |E_main[i]|).

    The n_max block is the leading principal submatrix of the probe block
    (assembly is exact and normal-ordered), so Cauchy interlacing gives
    E_probe[i] <= E_main[i], and the test holds exactly when fewer than i + 1
    probe eigenvalues lie below E_main[i] - tol * max(1, |E_main[i]|).  For
    probe blocks of bandwidth 0 or 1 that count is a Sturm sequence, batched
    over every level of every such block.  Wider bands have no reliable
    unpivoted LDL^T inertia, so those, and blocks whose sequence meets 0/0,
    are compared against their diagonalized probe spectrum.
    """
    counted = [j for j, p in enumerate(probe) if p.bandwidth <= 1]
    counts: list[np.ndarray | None] = [None] * len(main)
    if counted:
        shifts = [main[j] - tol * np.maximum(1.0, np.abs(main[j])) for j in counted]
        found, failed = _sturm_counts([probe[j] for j in counted], shifts)
        for j, count, bad in zip(counted, found, failed):
            counts[j] = None if bad else count
    return [
        _level_flags(vals, eigen(p), tol) if count is None else count <= np.arange(len(count))
        for vals, p, count in zip(main, probe, counts)
    ]
