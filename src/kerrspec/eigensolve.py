"""Spectra of banded symmetric blocks and their truncation certificate.

Every solver branches on the block's ``bandwidth`` alone: diagonal blocks
(0) are read off exactly, and the others go to banded LAPACK drivers:
``dsbevd`` for whole spectra and ``dsbevx`` for single levels.  Both are
called straight from scipy's compiled ``_flapack`` extension, with the
arguments that scipy's ``eig_banded`` passes, so the results are its own
bit for bit without the cost of importing scipy's linalg package (see
:func:`_load_lapack`).  :func:`certify` decides, level by level, whether a
block's eigenvalues at n_max agree with those of the same sector at a larger
probe basis to tol * max(1, |E|).  For tridiagonal probe blocks it does so,
as a rule, without diagonalizing them: a residual bound places a probe
eigenvalue next to most levels, and one batch of Sturm counts, each a walk
over every probe row, confirms the placement at a separator per block and
counts the other levels one by one; a diagonal probe block is compared
against its exactly sorted diagonal.  :func:`check_basis` is the one rule
for the basis settings n_max, n_probe and tol_conv.  Turning a Hamiltonian
into certified sector levels is :mod:`kerrspec.sweep`'s job.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from pathlib import Path

import numpy as np

from .fock import BandedSymMatrix, check_count

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


def check_basis(
    n_max: int, n_probe: int | None = None, tol_conv: float = DEFAULT_TOL_CONV
) -> int:
    """Validate the basis settings of a certified spectrum; returns n_probe.

    Raises ValueError, naming the setting, unless n_max is a non-negative
    integer, n_probe is an integer above it and tol_conv is finite and not
    negative.  An omitted n_probe is n_max + max(50, n_max // 8): 900 at
    n_max 800.
    """
    check_count(n_max, "n_max")
    if n_probe is None:
        n_probe = n_max + max(50, n_max // 8)
    elif not check_count(n_probe, "n_probe") > n_max:
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
    """Level ``index`` (0-based) and, if ``compute_v``, a unit eigenvector (else None).

    Diagonal blocks are read off exactly and every other one goes to ``dsbevx``.
    """
    if not 0 <= check_count(index, "index", -math.inf) < matrix.dim:
        raise IndexError(f"level {index} outside a {matrix.dim}-state block")
    if matrix.bandwidth == 0:
        n = np.argsort(matrix.diagonal, kind="stable")[index]
        return float(matrix.diagonal[n]), (np.eye(1, matrix.dim, n)[0] if compute_v else None)
    w, v, _, _, info = _lapack.dsbevx(
        matrix.band_lower(), 0.0, 1.0, index + 1, index + 1, compute_v=int(compute_v),
        range=2, lower=1, abstol=_ABSTOL, mmax=1,
    )
    _check_info(info, "dsbevx")
    return float(w[0]), (v[:, 0] if compute_v else None)


def eigenvalue(matrix: BandedSymMatrix, index: int) -> float:
    """The ``index``-th smallest eigenvalue (0-based) alone.

    Diagonal matrices read their stably sorted diagonal.  Otherwise LAPACK
    ``dsbevx`` reduces the band to tridiagonal form and computes only the
    selected eigenvalue, by bisection to absolute accuracy 2 * safmin.  It
    agrees with ``eigen(matrix)[index]`` to the backward error of the full
    solve, at a fraction of its cost.
    """
    return _level(matrix, index, compute_v=False)[0]


def eigenpair(matrix: BandedSymMatrix, index: int) -> tuple[float, np.ndarray]:
    """The ``index``-th smallest eigenvalue (0-based) and a unit eigenvector.

    The value is the one :func:`eigenvalue` returns, from the same driver;
    diagonal matrices give the exact unit vector of the entry they read, and
    the others the vector ``dsbevx`` finds by inverse iteration and
    transforms back from its tridiagonal form.
    """
    return _level(matrix, index, compute_v=True)


def _level_flags(vals: np.ndarray, probe_vals: np.ndarray, tol: float) -> np.ndarray:
    """|E_main - E_probe| <= tol * max(1, |E_main|), level by level."""
    return np.abs(vals - probe_vals[: len(vals)]) <= tol * np.maximum(1.0, np.abs(vals))


def _stacked(arrays: list[np.ndarray], rows: int, fill: float) -> np.ndarray:
    """``arrays[j]`` as column j of a (rows, len(arrays)) array, at its bottom, over ``fill``."""
    out = np.full((rows, len(arrays)), fill)
    for j, v in enumerate(arrays):
        out[rows - len(v) :, j] = v
    return out


def _sturm_counts(
    blocks: list[BandedSymMatrix], shifts: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Eigenvalues of each tridiagonal block below each of its shifts.

    One Sturm sequence per (block, shift), the pivots of LDL^T of T - x,

        d_k = (a_k - x) - e_{k-1}^2 / d_{k-1},

    run for all of them at once over every row; the count is the number of
    negative pivots.  A zero pivot is left to IEEE arithmetic (e^2 / 0 is
    infinite and the next pivot finite again), as LAPACK ``dlaneg`` does.
    Shorter blocks are padded in front with decoupled +inf rows, and shorter
    lists of shifts with -inf; neither ever gives a negative pivot.  Returns
    the counts and, per block, whether some sequence met 0/0 (a zero pivot at
    a zero off-diagonal), which leaves its counts meaningless.
    """
    rows = max(b.dim for b in blocks)
    width = max(len(x) for x in shifts)
    a = _stacked([b.diagonal for b in blocks], rows, np.inf)
    e2 = _stacked([b.diagonals[1] for b in blocks], rows, 0.0)  # squared below
    x = _stacked(shifts, width, -np.inf)
    d = np.ones_like(x)
    t = np.empty_like(x)
    count = np.zeros(x.shape, dtype=np.int32)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.square(e2, out=e2)
        for k in range(rows):
            np.divide(e2[k], d, out=t)
            np.subtract(a[k], x, out=d)
            np.subtract(d, t, out=d)
            count += d < 0.0
    failed = np.isnan(d).any(axis=0)
    return [count[width - len(shift) :, j] for j, shift in enumerate(shifts)], failed


# The residual bound of :func:`certify` evaluates its pivots at a computed
# level plus eta = BOUND_ULPS * sqrt(n) * eps * g, where g = max|a| + 2 max|e|
# bounds the norm of the probe block (and so of its leading n x n block).
# eta bounds the error of the dsterf level, which grows like sqrt(n) eps g: at
# most 1.1 sqrt(n) eps g on the benchmark Hamiltonians at n = 25 .. 1200, so
# BOUND_ULPS leaves a factor of about 3.6 for that and the rounding of the
# pivots and Sturm counts, each a few eps g.
BOUND_ULPS = 4.0
PIVOT_FLOOR = 1e-150
_EPS = float(np.finfo(float).eps)


def _residual_bounds(
    main: list[np.ndarray], probe: list[BandedSymMatrix], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Radii r of intervals [E - r, E + r] that each hold an eigenvalue of the probe block.

    Returns the levels and their radii, row j for block j, padded to the
    longest; a level that the bound leaves open has radius inf.  With T the
    leading n x n block of tridiagonal ``probe[j]`` (diagonal a, couplings e)
    and beta its first dropped coupling, an exact eigenpair (theta, y) of T
    extends by zeros to a vector with residual |beta y_last| in the probe
    block, which therefore has an eigenvalue within |beta y_last| of theta.
    The bottom-up pivots

        p_{n-1} = a_{n-1} - theta,  p_k = (a_k - theta) - e_k^2 / p_{k+1}

    give y_{k+1} = -(e_k / p_{k+1}) y_k, so |y_last| <= prod_{k >= m} |e_k / p_{k+1}|
    for every m.  They are evaluated at theta' = E + eta (see ``BOUND_ULPS``),
    which lies above the exact level: while they stay positive they decrease
    with theta, so each factor bounds the exact one from above.  A level is
    certified as soon as r = |beta| * prod + eta <= tol * max(1, |E|) / 2, and
    left open once a pivot is <= 0, a factor is >= 1, or the block's top row
    is passed.  The open levels of all blocks run at once, row by row from
    the bottom, and leave the arrays as they are decided; most are decided
    within a few rows.  Couplings are floored at ``PIVOT_FLOOR`` so that e^2
    never underflows, which only raises the factors.
    """
    n = [len(v) for v in main]
    dims = np.array(n)[:, None]
    rows = max(n)
    vals = np.zeros((len(main), rows))
    live = np.arange(rows) < dims
    vals[live] = np.concatenate(main)
    # each probe block's |couplings|, and a 0 past the last
    off = [np.append(np.abs(b.diagonals[1]), 0.0) for b in probe]
    # a[k, j] and e[k, j] (coupling to row k + 1) of the leading block of
    # probe j aligned at the bottom; e is +inf above the top row, so passing
    # it leaves the level open
    a = _stacked([b.diagonal[:m] for b, m in zip(probe, n)], rows, 0.0)
    e = _stacked([np.maximum(o[: m - 1], PIVOT_FLOOR) for o, m in zip(off, n)], rows - 1, np.inf)
    # beta (0 where no row was dropped); a product of up to n rounded factors
    # is within a relative 2 n eps
    beta = np.array([o[m - 1] for o, m in zip(off, n)])[:, None] * (1.0 + 2.0 * dims * _EPS)
    g = np.array([np.abs(b.diagonal).max() + 2.0 * o.max() for b, o in zip(probe, off)])[:, None]
    eta = BOUND_ULPS * np.sqrt(dims) * _EPS * g
    half = 0.5 * tol * np.maximum(1.0, np.abs(vals))
    radius = np.full(vals.shape, np.inf)
    r = beta + eta  # the bound with every factor left out: |y_last| <= 1
    np.copyto(radius, r, where=live & (r <= half))
    theta = vals + eta
    p = a[rows - 1][:, None] - theta
    # one entry per open level; r >= eta, so a level whose eta exceeds half never passes
    col = np.flatnonzero(live & np.isinf(radius) & (p > 0.0) & (eta <= half))
    blk = col // rows
    theta, half, p = (v.reshape(-1)[col] for v in (theta, half, p))
    beta, eta = beta[blk, 0], eta[blk, 0]
    prod = np.ones(len(col))
    go = np.ones(len(col), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(rows - 2, -1, -1):
            ek = e[k][blk]
            f = ek / p
            prod *= f
            r = prod * beta + eta
            done = go & (r <= half)
            radius.reshape(-1)[col[done]] = r[done]
            p = (a[k][blk] - theta) - ek * ek / p
            go &= ~done & (f < 1.0) & (p > 0.0)
            left = np.count_nonzero(go)
            if not left:
                break
            if 2 * left < len(go):  # compact the open levels once half have left
                col, blk, theta, half, beta, eta, p, prod = (
                    v[go] for v in (col, blk, theta, half, beta, eta, p, prod)
                )
                go = np.ones(left, dtype=bool)
    return vals, radius


def _separated_runs(vals: np.ndarray, radius: np.ndarray):
    """Per block, the longest run J..K-1 of certified levels with disjoint intervals.

    Returns J, K and a separator s above the run's last interval, s =
    E_{K-1} + 2 r_{K-1}; J = K = 0 and s = -inf where a block has no run.
    """
    width = vals.shape[1]
    cert = np.isfinite(radius)
    lo, hi = vals - radius, vals + radius
    link = cert[:, :-1] & cert[:, 1:] & (hi[:, :-1] < lo[:, 1:])
    index = np.arange(width)
    opens = cert.copy()
    opens[:, 1:] &= ~link
    start = np.maximum.accumulate(np.where(opens, index, 0), axis=1)
    length = np.where(cert, index - start + 1, 0)
    last = np.argmax(length, axis=1)
    rows = np.arange(len(vals))
    sep = vals[rows, last] + 2.0 * radius[rows, last]
    ok = (length[rows, last] > 0) & (sep > hi[rows, last])
    # no run: its separator counts 0 (as an absent shift of _sturm_counts does)
    sep = np.where(ok, sep, -np.inf)
    return np.where(ok, start[rows, last], 0), np.where(ok, last + 1, 0), sep


def certify(main: list[np.ndarray], probe: list[BandedSymMatrix], tol: float) -> list[np.ndarray]:
    """Truncation-convergence flags of sector levels against the probe basis.

    ``main[j]`` holds the ascending eigenvalues of one sector block at n_max,
    as :func:`eigen` gives them, and ``probe[j]`` is the same sector's block
    at the probe basis.  Level i is converged when |E_main[i] - E_probe[i]|
    <= tol * max(1, |E_main[i]|).

    The n_max block is the leading principal submatrix of the probe block
    (assembly is exact and normal-ordered), so Cauchy interlacing gives
    E_probe[i] <= E_main[i], and the test holds exactly when fewer than i + 1
    probe eigenvalues lie below x_i = E_main[i] - tol * max(1, |E_main[i]|).
    For tridiagonal probe blocks that count is a Sturm sequence over every
    row of the probe block, batched over every counted level of every such
    block (:func:`_sturm_counts`).

    Most levels are decided without one.  :func:`_residual_bounds` puts an
    eigenvalue of the probe block within r_i <= tol * max(1, |E|) / 2 of
    E_main[i] for most levels, and one Sturm count at a separator s above the
    longest run J..K-1 of such levels with disjoint intervals decides the
    run: if exactly K probe eigenvalues lie below s (interlacing puts at
    least K there), then for i in the run the K - i disjoint intervals of
    levels i..K-1, each holding one, leave at most i below E_main[i] - r_i,
    so level i passes with tol * max(1, |E|) / 2 to spare.  The other levels
    are counted at x_i as before, in the same batch; a block with no run
    counts at a separator -inf, which finds 0 = K probe eigenvalues.  Wider
    bands have no reliable unpivoted LDL^T inertia, so those, blocks whose
    separator count is not K and blocks whose counted sequences meet 0/0 are
    compared against their diagonalized probe spectrum; so is a diagonal
    probe block, whose spectrum :func:`eigen` reads off exactly.
    """
    flags: list[np.ndarray | None] = [None if len(v) else np.zeros(0, bool) for v in main]
    counted = [j for j, p in enumerate(probe) if p.bandwidth == 1 and len(main[j])]
    if counted:
        blocks = [probe[j] for j in counted]
        vals, radius = _residual_bounds([main[j] for j in counted], blocks, tol)
        first, stop, sep = _separated_runs(vals, radius)
        x = vals - tol * np.maximum(1.0, np.abs(vals))  # each level's Sturm shift
        index = np.arange(vals.shape[1])
        runs = list(zip(counted, first.tolist(), stop.tolist()))
        # the levels below the run, its separator, the levels above it
        shifts = [
            np.concatenate((x[i, :J], sep[i : i + 1], x[i, K : len(main[j])]))
            for i, (j, J, K) in enumerate(runs)
        ]
        found, failed = _sturm_counts(blocks, shifts)
        for (j, J, K), count, bad in zip(runs, found, failed):
            if not bad and count[J] == K:
                n = len(main[j])
                flags[j] = f = np.ones(n, dtype=bool)
                f[:J] = count[:J] <= index[:J]
                f[K:] = count[J + 1 :] <= index[K:n]
    return [
        _level_flags(v, eigen(p), tol) if f is None else f for v, p, f in zip(main, probe, flags)
    ]
