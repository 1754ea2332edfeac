import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kerrspec.eigensolve
from kerrspec import converged_spectrum
from kerrspec.eigensolve import (
    EigenSolverError,
    _residual_bounds,
    _separated_runs,
    _sturm_counts,
    certify,
    eigen,
    eigenpair,
    eigenvalue,
)
from kerrspec.fock import (
    BandedSymMatrix,
    FockSpace,
    HamiltonianSpec,
    HigherOrderCorrections,
    assemble,
    standard_hamiltonian,
)
from kerrspec.sectors import MOD_ALL, detect_modulus, split
from kerrspec.sweep import sector_blocks


def count_below(dense: np.ndarray, x: float) -> int:
    """Inertia-based eigenvalue count, independent of the spectral solver."""
    _, d, _ = scipy.linalg.ldl(dense - x * np.eye(len(dense)))
    i = 0
    count = 0
    while i < len(d):
        if i + 1 < len(d) and d[i + 1, i] != 0.0:  # 2x2 block: one +, one -
            count += 1
            i += 2
        else:
            if d[i, i] < 0:
                count += 1
            i += 1
    return count


def bisect_eigenvalue(dense: np.ndarray, index: int, lo: float, hi: float) -> float:
    """index-th eigenvalue via inertia bisection (characteristic-root counting)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if count_below(dense, mid) > index:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-11 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


class TestEigen:
    def test_diagonal_spectrum_exact(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=4)), FockSpace(5))
        w = eigen(m)
        np.testing.assert_array_equal(w, [-6, -6, -4, -4, 0, 0])
        assert not w.flags.writeable

    def test_two_by_two_analytic(self):
        m = BandedSymMatrix((np.zeros(2), np.array([-np.sqrt(2)])))
        w = eigen(m)
        np.testing.assert_allclose(w, [-np.sqrt(2), np.sqrt(2)], atol=1e-14)
        assert not w.flags.writeable  # LAPACK path, as the diagonal one

    def test_ground_state_against_inertia_bisection(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=6, xi=1)), FockSpace(40))
        w = eigen(m)
        dense = m.to_dense()
        bound = np.abs(dense).sum(axis=1).max()  # Gershgorin
        oracle = bisect_eigenvalue(dense, 0, -bound, bound)
        assert w[0] == pytest.approx(oracle, abs=1e-9)

    def test_sorted_ascending(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=1.7, xi=2.0)), FockSpace(80))
        w = eigen(m)
        assert np.all(np.diff(w) >= 0)


class TestConvergedSpectrum:
    def test_diagonal_always_converged(self):
        cs = converged_spectrum(HamiltonianSpec(eta=5), n_max=20, n_probe=30)
        assert cs.n_converged == cs.n_levels == 21
        assert np.all(cs.converged)
        # spectrum equals sorted diagonal exactly
        n = np.arange(21.0)
        np.testing.assert_array_equal(cs.energies, np.sort(-5 * n + n * (n - 1)))

    def test_driven_low_levels_converged_in_window(self):
        cs = converged_spectrum(
            HamiltonianSpec(eta=0, xi=10.0), n_max=800, n_probe=900,
            tol_conv=1e-8, window=(0.0, 625.0),
        )
        assert cs.n_levels > 0
        assert np.all(cs.converged)

    def test_undersized_basis_flags_are_truthful(self):
        small = converged_spectrum(HamiltonianSpec(eta=0, xi=25.0), 100, 120, 1e-8)
        reference = converged_spectrum(HamiltonianSpec(eta=0, xi=25.0), 800, 900, 1e-8)
        assert small.n_converged < small.n_levels  # some levels not converged
        diff = np.abs(small.energies - reference.energies[: small.n_levels])
        rel = diff / np.maximum(1.0, np.abs(reference.energies[: small.n_levels]))
        assert rel[small.converged].max() < 1e-7
        assert rel[~small.converged].max() > 1e-3

    def test_monotone_truncation_convergence(self):
        spec = HamiltonianSpec(eta=6, xi=1)
        lows = []
        for n_max in (200, 400, 800):
            cs = converged_spectrum(spec, n_max, n_max + 100, 1e-10)
            lows.append(cs.energies[:10])
        assert np.max(np.abs(lows[1] - lows[0])) < 1e-10
        assert np.max(np.abs(lows[2] - lows[1])) < 1e-10

    def test_sector_union_matches_full_matrix(self):
        spec = HamiltonianSpec(eta=2.5, xi=0.9)
        cs = converged_spectrum(spec, n_max=50, n_probe=70)
        m = assemble(standard_hamiltonian(spec), FockSpace(50))
        full = np.sort(np.linalg.eigvalsh(m.to_dense()))
        scale = np.max(np.abs(full))
        assert np.max(np.abs(cs.energies - full)) < 1e-10 * scale

    def test_probe_must_exceed_main(self):
        with pytest.raises(ValueError):
            converged_spectrum(HamiltonianSpec(eta=1), n_max=50, n_probe=50)

    def test_window_and_prefix(self):
        cs = converged_spectrum(
            HamiltonianSpec(eta=4), n_max=30, n_probe=40, window=(0.0, 6.0)
        )
        assert np.all(cs.excitations <= 6.0)
        assert cs.converged_levels().n_levels == cs.n_converged

    @pytest.mark.parametrize("window", [(5.0, 1.0), (math.nan, 6.0), (0.0, math.nan)])
    def test_bad_window_refused(self, window):
        with pytest.raises(ValueError, match="window"):
            converged_spectrum(HamiltonianSpec(eta=4), n_max=30, n_probe=40, window=window)

    def test_residue_tags_partition_levels(self):
        spec = HamiltonianSpec(eta=1, xi=0.4)
        cs = converged_spectrum(spec, n_max=40, n_probe=60)
        k = detect_modulus(standard_hamiltonian(spec))
        m = assemble(standard_hamiltonian(spec), FockSpace(40))
        for r in (0, 1):
            block_vals = eigen(split(m, k).sectors[r].block)
            mine = np.sort(cs.energies[cs.residues == r])
            np.testing.assert_array_equal(mine, np.sort(block_vals))


class TestSingleLevel:
    @staticmethod
    def blocks():
        def sector(spec, n_max, residue):
            poly = standard_hamiltonian(spec)
            return split(assemble(poly, FockSpace(n_max)), detect_modulus(poly)).sectors[residue].block

        yield "diagonal", assemble(standard_hamiltonian(HamiltonianSpec(eta=4)), FockSpace(60))
        yield "stored zero band", BandedSymMatrix((np.array([3.0, -1.0, 2.0, -1.0]), np.zeros(3)))
        yield "tridiagonal P2 sector", sector(HamiltonianSpec(eta=3.3, xi=1.0), 300, 1)
        yield "band 2 P2+P4 sector", sector(HamiltonianSpec(eta=2.0, xi=1.0, xi4=0.2), 300, 0)
        yield "band 4 unsplit P4", assemble(
            standard_hamiltonian(HamiltonianSpec(eta=1.5, xi4=0.3)), FockSpace(200)
        )

    def test_matches_full_spectrum(self):
        widths = set()
        for name, block in self.blocks():
            widths.add(block.bandwidth)
            full = eigen(block)
            for i in list(range(min(25, block.dim))) + [block.dim - 1]:
                e = eigenvalue(block, i)
                assert abs(e - full[i]) <= 1e-12 * max(1.0, abs(full[i])), (name, i)
        assert widths == {0, 1, 2, 4}

    def test_index_out_of_range(self):
        m = BandedSymMatrix((np.zeros(2), np.array([1.0])))
        for solve in (eigenvalue, eigenpair):
            with pytest.raises(IndexError):
                solve(m, 2)
            with pytest.raises(IndexError):
                solve(m, -1)

    def test_eigenpair_value_is_eigenvalue_bit_for_bit(self):
        widths = set()
        for name, block in self.blocks():
            widths.add(block.bandwidth)
            dense = block.to_dense()
            checked = set(range(min(25, block.dim))) | {block.dim - 1}
            for i in range(block.dim):
                e, v = eigenpair(block, i)
                assert same_bits(e, eigenvalue(block, i)), (name, i)
                if i in checked:
                    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                    assert np.linalg.norm(dense @ v - e * v) <= 1e-10 * max(1.0, abs(e)), (name, i)
        assert widths == {0, 1, 2, 4}

    def test_diagonal_eigenpair_is_an_exact_unit_vector(self):
        # eta = 4: n and 5 - n are degenerate; ties go to the lower n, as in eigen's stable sort
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=4)), FockSpace(8))
        order = [int(np.flatnonzero(eigenpair(m, i)[1])[0]) for i in range(m.dim)]
        assert order == [2, 3, 1, 4, 0, 5, 6, 7, 8]
        for i in range(m.dim):
            e, v = eigenpair(m, i)
            assert e == eigen(m)[i]
            np.testing.assert_array_equal(v, np.eye(m.dim)[order[i]])


def reference_blocks():
    """Blocks of every drive in ``fock.DRIVES``, tridiagonal and of bandwidth 2.

    Parity blocks at n_max 800 (both residues), P3, P4 and nP2 sectors, the
    parity blocks of a near-degenerate P2 doublet (eta 6, xi 1e-6) and two
    band-2 P2 sectors, one with P4 and one with ``quad_squeeze4``.
    """
    for xi in (0.3, 1.0, 20.0):
        blocks = sector_blocks(standard_hamiltonian(HamiltonianSpec(xi=xi)), 800, 2)
        for residue, block in blocks.items():
            yield f"xi={xi},r={residue}", block
    poly = standard_hamiltonian(HamiltonianSpec(eta=2.0, xi=1.0, xi4=0.2))
    yield "xi4", sector_blocks(poly, 800, 2)[0]
    for name, spec, k in (
        ("P3", HamiltonianSpec(eta=1.0, xi3=0.3), 3),
        ("P4", HamiltonianSpec(eta=1.0, xi4=0.2), 4),
        ("nP2", HamiltonianSpec(eta=1.0, xi2p=0.1), 2),
        ("doublet", HamiltonianSpec(eta=6.0, xi=1e-6), 2),
    ):
        poly = standard_hamiltonian(spec)
        assert detect_modulus(poly) == k
        for residue, block in sector_blocks(poly, 200, k).items():
            yield f"{name},r={residue}", block
    higher = HigherOrderCorrections(quad_squeeze4=0.05)
    poly = standard_hamiltonian(HamiltonianSpec(eta=1.0, xi=1.0, higher=higher))
    yield "quad_squeeze4", sector_blocks(poly, 200, 2)[1]


# the reference blocks of bandwidth 2; all the others are tridiagonal
_BAND_2 = {"xi4", "quad_squeeze4"}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestScipyReference:
    """The direct LAPACK calls return what scipy.linalg's wrappers of them return, bit for bit."""

    @pytest.mark.parametrize(
        "name, block", list(reference_blocks()), ids=lambda x: x if isinstance(x, str) else ""
    )
    def test_bit_equal_to_scipy_linalg(self, name, block):
        ab = block.band_lower()
        assert block.bandwidth == (2 if name in _BAND_2 else 1)
        assert same_bits(eigen(block), scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True))
        for i in (0, block.dim // 2, block.dim - 1):
            select = dict(lower=True, select="i", select_range=(i, i))
            value = scipy.linalg.eig_banded(ab, eigvals_only=True, **select)[0]
            assert same_bits(eigenvalue(block, i), value), (name, i)
            e, u = eigenpair(block, i)
            w, v = scipy.linalg.eig_banded(ab, eigvals_only=False, **select)
            assert same_bits(e, w[0]) and same_bits(u, v[:, 0]), (name, i)
            if block.bandwidth == 1:
                # LAPACK bisection and inverse iteration on the tridiagonal itself
                w, v = scipy.linalg.eigh_tridiagonal(
                    block.diagonal, block.diagonals[1], select="i", select_range=(i, i),
                    tol=2 * np.finfo(float).tiny,
                )
                assert same_bits(e, w[0]) and same_bits(u, v[:, 0]), (name, i)


# the drivers each solver calls, for the blocks it sends to LAPACK
_SOLVES = {
    "dsbevd": [("eigen", 1), ("eigen", 2)],
    "dsbevx": [("eigenvalue", 1), ("eigenpair", 1), ("eigenvalue", 2), ("eigenpair", 2)],
}


class TestLapackInfo:
    """A LAPACK info above 0 raises EigenSolverError and one below 0 ValueError, as in scipy."""

    @staticmethod
    def reporting(driver, info):
        """The real drivers, except that ``driver`` reports ``info``."""
        real = kerrspec.eigensolve._lapack

        def call(*args, **kwargs):
            *out, _ = getattr(real, driver)(*args, **kwargs)
            return (*out, info)

        return SimpleNamespace(**({name: getattr(real, name) for name in _SOLVES} | {driver: call}))

    @pytest.mark.parametrize("info, error", [(1, EigenSolverError), (-1, ValueError)])
    @pytest.mark.parametrize("driver", sorted(_SOLVES))
    def test_info_raises(self, monkeypatch, driver, info, error):
        poly = standard_hamiltonian(HamiltonianSpec(eta=2.0, xi=1.0))
        blocks = {1: sector_blocks(poly, 40, 2)[0], 2: assemble(poly, FockSpace(40))}
        assert [b.bandwidth for b in blocks.values()] == [1, 2]
        monkeypatch.setattr(kerrspec.eigensolve, "_lapack", self.reporting(driver, info))
        for solve, width in _SOLVES[driver]:
            args = (blocks[width],) if solve == "eigen" else (blocks[width], 3)
            with pytest.raises(error, match=driver):
                getattr(kerrspec.eigensolve, solve)(*args)


def probe_flags(vals, probe_block, tol):
    """Reference certificate: diagonalize the probe block and compare level by level."""
    probe_vals = eigen(probe_block)[: len(vals)]
    return np.abs(vals - probe_vals) <= tol * np.maximum(1.0, np.abs(vals))


class TestCertify:
    """Sturm-count flags equal the flags of the probe diagonalization they replace."""

    CASES = {
        # name: (spec, n_max, n_probe, whether the probe blocks are Sturm-counted)
        "P2 eta=0 xi=1": (HamiltonianSpec(eta=0.0, xi=1.0), 120, 160, True),
        "P2 eta=3.3 xi=5": (HamiltonianSpec(eta=3.3, xi=5.0), 200, 250, True),
        "P2 eta=-2 xi=0.4": (HamiltonianSpec(eta=-2.0, xi=0.4), 80, 110, True),
        "P2 eta=0 xi=20": (HamiltonianSpec(eta=0.0, xi=20.0), 400, 450, True),
        "P2 small basis, many fail": (HamiltonianSpec(eta=1.0, xi=2.0), 24, 40, True),
        "xi2p alone": (HamiltonianSpec(xi2p=0.2), 100, 140, True),
        "xi3 alone": (HamiltonianSpec(eta=1.0, xi3=0.5), 120, 160, True),
        "xi4 alone": (HamiltonianSpec(eta=0.5, xi4=0.1), 120, 160, True),
        "xi + xi4, band 2": (HamiltonianSpec(eta=2.0, xi=1.0, xi4=0.05), 100, 140, False),
        "MOD_ALL": (HamiltonianSpec(eta=4.0), 60, 80, False),
        "eta=60 parity, bandwidth 0": (HamiltonianSpec(eta=60.0), 20, 40, False),
    }
    # cases split by a modulus other than the detected one
    MODULUS = {"eta=60 parity, bandwidth 0": 2}

    @staticmethod
    def sectors(spec, n_max, n_probe, k=None):
        poly = standard_hamiltonian(spec)
        k = detect_modulus(poly) if k is None else k
        main = split(assemble(poly, FockSpace(n_max)), k).sectors
        probe = {s.residue: s.block for s in split(assemble(poly, FockSpace(n_probe)), k).sectors}
        return k, [eigen(s.block) for s in main], [probe[s.residue] for s in main]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_equal_probe_diagonalization(self, case, monkeypatch):
        spec, n_max, n_probe, counted = self.CASES[case]
        k, vals, probe = self.sectors(spec, n_max, n_probe, self.MODULUS.get(case))
        assert all((b.bandwidth == 1) == counted for b in probe)
        tol = 1e-8
        calls = recorded_shifts(monkeypatch)
        flags = certify(vals, probe, tol)
        assert [len(c) for c in calls] == ([len(probe)] if counted else [])
        for v, b, f in zip(vals, probe, flags):
            np.testing.assert_array_equal(f, probe_flags(v, b, tol))
        every = np.concatenate(flags)
        if case == "P2 small basis, many fail":
            assert every.sum() > 0 and (~every).sum() >= 10
        if case == "MOD_ALL":
            assert k == MOD_ALL
            assert {b.dim for b in probe} == {1}
        if case == "eta=60 parity, bandwidth 0":
            assert [b.bandwidth for b in probe] == [0, 0]
            assert not every.any()
        if case == "xi2p alone":
            assert probe[0].diagonals[1][0] == 0.0  # <2|a^dag^2 n|0> vanishes

    def test_zero_pivot_at_zero_off_diagonal_falls_back(self, monkeypatch):
        # n_max block diag(3, 4, 10): level 1 gets the shift 4 - 0.25 * 4 = 3, so
        # the first probe pivot is 3 - 3 = 0 at a zero off-diagonal (0/0); two
        # eigenvalues of the coupled probe tail lie below 3, so level 1 fails
        probe = BandedSymMatrix(
            (np.array([3.0, 4.0, 10.0, 10.0, 10.0, 10.0, 10.0]), np.array([0, 0, 8.0, 8, 8, 8]))
        )
        vals = np.array([3.0, 4.0, 10.0])
        _, failed = _sturm_counts([probe], [vals - 0.25 * vals])
        assert failed.tolist() == [True]
        # the diagonal probe diag(3, 4, 10, 1, 1) is compared against its sorted
        # diagonal: its two added levels at 1 lie below every level, so every
        # level fails
        diagonal = BandedSymMatrix((np.array([3.0, 4.0, 10.0, 1.0, 1.0]),))
        # sound blocks certified in the same call keep their own counts, and
        # the diagonal ones are never counted
        _, p2_vals, p2_probe = self.sectors(HamiltonianSpec(eta=0.0, xi=2.0), 40, 60)
        _, d_vals, d_probe = self.sectors(HamiltonianSpec(eta=6.0), 20, 30, 2)
        assert [b.bandwidth for b in d_probe] == [0, 0]
        main = [vals, vals, *p2_vals, *d_vals]
        blocks = [probe, diagonal, *p2_probe, *d_probe]
        calls = recorded_shifts(monkeypatch)
        flags = certify(main, blocks, 0.25)
        assert [len(c) for c in calls] == [3]
        assert flags[0].tolist() == flags[1].tolist() == [False, False, False]
        for v, b, f in zip(main, blocks, flags):
            np.testing.assert_array_equal(f, probe_flags(v, b, 0.25))
        main, blocks = [vals, *p2_vals], [probe, *p2_probe]
        shifts = [v - 0.25 * np.maximum(1.0, np.abs(v)) for v in main]
        counts, failed = _sturm_counts(blocks, shifts)
        assert failed.tolist() == [True, False, False]
        for block, x, count in zip(blocks[1:], shifts[1:], counts[1:]):
            clear = clear_of_eigenvalues(block, x)
            assert clear.sum() >= 0.9 * len(x)
            np.testing.assert_array_equal(count[clear], np.searchsorted(eigen(block), x[clear]))

    def test_converged_spectrum_uses_the_same_flags(self):
        spec = HamiltonianSpec(eta=1.0, xi=2.0)
        cs = converged_spectrum(spec, 24, 40, 1e-8)
        assert 0 < cs.n_converged < cs.n_levels
        _, vals, probe = self.sectors(spec, 24, 40)
        for r, (v, b) in enumerate(zip(vals, probe)):
            np.testing.assert_array_equal(cs.converged[cs.residues == r], probe_flags(v, b, 1e-8))

    HUGE = {
        "xi=1e154": HamiltonianSpec(xi=1e154),
        "xi=1e160": HamiltonianSpec(xi=1e160),
        "xi3=1e200": HamiltonianSpec(xi3=1e200),
        "xi2p=1e160": HamiltonianSpec(xi2p=1e160),
        "eta=xi=1e300": HamiltonianSpec(eta=1e300, xi=1e300),
    }

    @pytest.mark.parametrize("case", sorted(HUGE))
    def test_overflowing_squares_stay_inside_the_sturm_batch(self, case):
        # off-diagonals above about 1.3e154 square to inf in the Sturm batch;
        # certify must not warn about it, and its flags stay the probe's
        spec = self.HUGE[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cs = converged_spectrum(spec, 40, 60, 1e-8)
        _, vals, probe = self.sectors(spec, 40, 60)
        assert max(float(np.max(np.abs(b.diagonals[-1]))) for b in probe) > 1.4e154
        for r, (v, b) in enumerate(zip(vals, probe)):
            np.testing.assert_array_equal(cs.converged[cs.residues == r], probe_flags(v, b, 1e-8))


def sturm_flags(main, probe, tol):
    """The certificate before the residual bound: one Sturm count per level, 0/0 diagonalizes."""
    shifts = [v - tol * np.maximum(1.0, np.abs(v)) for v in main]
    counts, failed = _sturm_counts(probe, shifts)
    return [
        probe_flags(v, b, tol) if bad else c <= np.arange(len(c))
        for v, b, c, bad in zip(main, probe, counts, failed)
    ]


def recorded_shifts(monkeypatch):
    """Record the shifts, block by block, of every ``_sturm_counts`` call that certify makes."""
    calls = []

    def spy(blocks, shifts):
        calls.append(list(shifts))
        return _sturm_counts(blocks, shifts)

    monkeypatch.setattr(kerrspec.eigensolve, "_sturm_counts", spy)
    return calls


@st.composite
def graded_probe_blocks(draw):
    """Probe blocks with a Kerr-like graded diagonal and the levels of their leading blocks.

    Every block is tridiagonal, the only kind certify counts.  Some have
    zero couplings inside the n_max block, a zero first dropped coupling
    (beta = 0), no dropped row, or pairs of near-degenerate levels.
    """
    main, probe = [], []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        m = max(n + draw(st.integers(0, 25)), 2)
        k = np.arange(m)
        a = k**2 * draw(st.sampled_from([0.05, 1.0, 4.0])) + np.array(
            draw(st.lists(st.floats(-20, 20), min_size=m, max_size=m))
        )
        e = np.sqrt(k[1:]) * np.array(
            draw(st.lists(st.one_of(st.just(0.0), st.floats(-3, 3)), min_size=m - 1, max_size=m - 1))
        ) * draw(st.sampled_from([0.01, 1.0, 10.0]))
        if m > 1 and draw(st.booleans()):  # a near-degenerate pair
            i = draw(st.integers(0, m - 2))
            a[i + 1] = a[i] + draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
            e[i] = draw(st.sampled_from([0.0, 1e-10, 1e-7]))
        if m > n and draw(st.booleans()):
            e[n - 1] = 0.0  # beta = 0
        if not e.any():  # one coupling at least: bandwidth 1
            e[-1] = 1.0
        block = BandedSymMatrix((a, e))
        main.append(eigen(block.leading(n)))
        probe.append(block)
    return main, probe


class TestResidualBoundFirst:
    """Flags decided by the residual bound and one separator count are the counted ones."""

    @settings(
        max_examples=150, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        blocks=graded_probe_blocks(),
        tol=st.one_of(
            st.sampled_from([1e-12, 1e-8, 0.25]), st.floats(-12, math.log10(0.25)).map(lambda x: 10**x)
        ),
    )
    def test_random_graded_blocks(self, blocks, tol):
        main, probe = blocks
        flags = certify(main, probe, tol)
        for f, g, v, b in zip(flags, sturm_flags(main, probe, tol), main, probe, strict=True):
            np.testing.assert_array_equal(f, g)
            np.testing.assert_array_equal(f, probe_flags(v, b, tol))

    def test_wrong_separator_count_diagonalizes_the_probe(self, monkeypatch):
        # the n_max block diag(0, 10, 20, 30) is certified by the bound, with
        # disjoint intervals, but the probe tail holds an eigenvalue near -50
        # below all of them: the separator count is 5, not 4, so the block is
        # compared against its probe spectrum, and every level fails, since
        # E_probe[i] is about E_main[i - 1]
        a = np.array([0.0, 10.0, 20.0, 30.0, -50.0, 100.0, 200.0])
        e = np.array([1e-3, 1e-3, 1e-3, 1e-10, 1.0, 1.0])
        probe = [BandedSymMatrix((a, e))]
        main = [eigen(probe[0].leading(4))]
        vals, radius = _residual_bounds(main, probe, 1e-8)
        first, stop, sep = _separated_runs(vals, radius)
        assert (first.tolist(), stop.tolist()) == ([0], [4])
        calls = recorded_shifts(monkeypatch)
        [flags] = certify(main, probe, 1e-8)
        assert len(calls) == 1  # the separator alone, counted once
        [[shifts]] = calls
        assert shifts.tolist() == sep.tolist()
        assert not flags.any()
        np.testing.assert_array_equal(flags, probe_flags(main[0], probe[0], 1e-8))

    def test_block_without_a_run_counts_every_level_after_minus_inf(self, monkeypatch):
        # at tol 1e-16 no level's eta fits in half its tolerance, so the bound
        # certifies none and the block has no run; its levels 1, 2, 3 are
        # decoupled in the probe block too and pass, the coupled 4 and 6 fail
        a = np.array([1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 5.0, 5.0])
        e = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        probe = [BandedSymMatrix((a, e))]
        main = [eigen(probe[0].leading(5))]
        tol = 1e-16
        vals, radius = _residual_bounds(main, probe, tol)
        first, stop, sep = _separated_runs(vals, radius)
        assert (first.tolist(), stop.tolist(), sep.tolist()) == ([0], [0], [-math.inf])
        calls = recorded_shifts(monkeypatch)
        [flags] = certify(main, probe, tol)
        assert len(calls) == 1
        [[shifts]] = calls
        assert len(shifts) == 6 and shifts[0] == -math.inf
        np.testing.assert_array_equal(shifts[1:], main[0] - tol * np.maximum(1.0, main[0]))
        assert flags.tolist() == [True, True, True, False, False]
        np.testing.assert_array_equal(flags, probe_flags(main[0], probe[0], tol))
        [counted] = sturm_flags(main, probe, tol)
        np.testing.assert_array_equal(flags, counted)

    def test_bound_decides_most_levels_at_800_900(self, monkeypatch):
        # eta = 0, xi = 20, both parity blocks: the bound and two separator
        # counts decide over 90% of the 801 levels, so the counted shifts are few
        blocks, _ = parity_blocks(HamiltonianSpec(eta=0.0, xi=20.0))
        main = [eigen(b.leading(dim)) for b, dim in zip(blocks, (401, 400))]
        expected = sturm_flags(main, blocks, 1e-8)
        calls = recorded_shifts(monkeypatch)
        flags = certify(main, blocks, 1e-8)
        for f, g in zip(flags, expected, strict=True):
            np.testing.assert_array_equal(f, g)
        assert len(calls) == 1 and sum(map(len, calls[0])) <= 0.1 * 801
        vals, radius = _residual_bounds(main, blocks, 1e-8)
        first, stop, _ = _separated_runs(vals, radius)
        assert (stop - first).sum() >= 0.9 * 801


class TestBandwidthDecidesTheSolver:
    """A block stored with a zero second diagonal is its tridiagonal twin, solver for solver."""

    @staticmethod
    def padded(block):
        """``block`` (tridiagonal) with an all-zero second diagonal stored after it."""
        pad = np.zeros(block.dim - 2)
        return BandedSymMatrix((block.diagonal, block.diagonals[1], pad))

    def test_zero_second_diagonal_solves_and_certifies_bit_equal(self):
        poly = standard_hamiltonian(HamiltonianSpec(eta=2.7, xi=1.5))
        probe = sector_blocks(poly, 160, 2)[1]
        main = sector_blocks(poly, 120, 2)[1]
        assert (probe.bandwidth, main.bandwidth) == (1, 1)
        wide_probe, wide_main = self.padded(probe), self.padded(main)
        assert (wide_probe.bandwidth, wide_main.bandwidth) == (1, 1)

        vals = eigen(main)
        np.testing.assert_array_equal(eigen(wide_main), vals)
        for i in (0, 1, 7, 30, main.dim - 1):
            assert eigenvalue(wide_main, i) == eigenvalue(main, i)
            e, v = eigenpair(wide_main, i)
            e0, v0 = eigenpair(main, i)
            assert e == e0
            np.testing.assert_array_equal(v, v0)
        for tol in (1e-8, 1e-12):
            [flags] = certify([vals], [wide_probe], tol)
            [flags0] = certify([vals], [probe], tol)
            np.testing.assert_array_equal(flags, flags0)
            assert flags.any() and not flags.all()


_EPS = float(np.finfo(float).eps)


def clear_of_eigenvalues(block, shifts):
    """Which shifts lie more than 8 sqrt(n) eps g from every eigenvalue of ``block``.

    g = max|a| + 2 max|e| bounds the block's norm.  The rounding of a Sturm
    count moves the eigenvalues it counts by a few eps g, and the error of
    ``eigen`` is at most about sqrt(n) eps g, so at such a shift the count
    of the eigenvalues ``eigen`` returns below it is the exact one.
    """
    vals = eigen(block)
    g = np.abs(block.diagonal).max() + 2.0 * np.abs(block.diagonals[1]).max()
    gap = 8.0 * math.sqrt(block.dim) * _EPS * g
    shifts = np.asarray(shifts, dtype=float)
    i = np.searchsorted(vals, shifts).clip(1, len(vals) - 1)
    near = np.minimum(np.abs(shifts - vals[i - 1]), np.abs(shifts - vals[i]))
    return near > gap


def assert_counts_are_eigenvalues_below(blocks, shifts):
    """``_sturm_counts`` agrees with the count of ``eigen``'s eigenvalues below each shift."""
    counts, failed = _sturm_counts(blocks, shifts)
    assert not failed.any()
    for block, x, count in zip(blocks, shifts, counts, strict=True):
        np.testing.assert_array_equal(count, np.searchsorted(eigen(block), x))


@st.composite
def counted_batches(draw):
    """Blocks of mixed sizes and their shifts, each clear of the block's eigenvalues.

    Every block is tridiagonal, the only kind certify counts; some have zero
    couplings, and small integer entries make exact zero pivots likely.
    Shifts lie between neighbouring eigenvalues, outside the spectrum, on
    diagonal entries and at random; their number varies from block to block,
    so the shorter lists are padded with -inf in the batch.
    """
    blocks, shifts = [], []
    integral = draw(st.booleans())
    entries = st.integers(-3, 3).map(float) if integral else st.floats(-50, 50)
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 70))
        a = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
        a += np.arange(n) ** 2 * draw(st.sampled_from([0.0, 0.05, 1.0]))
        e = draw(st.lists(st.one_of(st.just(0.0), entries), min_size=n - 1, max_size=n - 1))
        e = np.array(e)
        if not e.any():  # one coupling at least: bandwidth 1
            e[-1] = 1.0
        block = BandedSymMatrix((a, e))
        vals = eigen(block)
        x = np.concatenate([
            0.5 * (vals[:-1] + vals[1:]), [vals[0] - 1.0, vals[-1] + 1.0], a,
            draw(st.lists(st.floats(-100, 5000), max_size=5)),
        ])
        x = x[clear_of_eigenvalues(block, x)]
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(x)
        blocks.append(block)
        shifts.append(x[: draw(st.integers(0, len(x)))])
    return blocks, shifts


def parity_blocks(spec, n_max=800, n_probe=900):
    """Both parity blocks at the probe basis, with the shifts :func:`certify` gives them."""
    poly = standard_hamiltonian(spec)
    main = sector_blocks(poly, n_max, 2)
    probe = sector_blocks(poly, n_probe, 2)
    shifts = []
    for r in probe:
        vals = eigen(main[r])
        shifts.append(vals - 1e-8 * np.maximum(1.0, np.abs(vals)))
    return list(probe.values()), shifts


class TestSturmCountsStopEarly:
    """The batched Sturm counts are the counts of the eigenvalues below each shift.

    The name is kept from when settled sequences stopped early, so that the
    test ids stay comparable across runs.
    """

    @settings(
        max_examples=80, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batch=counted_batches())
    def test_random_tridiagonals(self, batch):
        assert_counts_are_eigenvalues_below(*batch)

    @pytest.mark.parametrize(
        "spec",
        [HamiltonianSpec(eta=0.0, xi=xi) for xi in (0.5, 5.0, 20.0, 42.0)]
        + [HamiltonianSpec(eta=eta, xi=1.0) for eta in (0.0, 2.0, 4.05, 8.0)],
        ids=lambda spec: f"eta={spec.eta},xi={spec.xi}",
    )
    def test_parity_blocks_at_800_900(self, spec):
        blocks, shifts = parity_blocks(spec)
        # certify's shifts, and the midpoints of the probe's own eigenvalues
        for b, x in zip(blocks, shifts):
            vals = eigen(b)
            x = np.concatenate([x, 0.5 * (vals[:-1] + vals[1:])])
            kept = x[clear_of_eigenvalues(b, x)]
            assert len(kept) >= 0.9 * len(x)
            assert_counts_are_eigenvalues_below([b], [kept])

    def test_rounding_of_a_pivot_is_counted(self):
        # c^2 / c rounds above c, so with d_15 = c the pivot d_17 rounds below
        # zero; the count follows the rounded pivots, as LAPACK's does
        c = float.fromhex("0x1.6fd5555555554p+0")
        assert (c * c) / c > c
        block = BandedSymMatrix(
            (np.array([10.0] * 15 + [c, c + 2.0, 2.0]), np.array([0.0] * 15 + [c, 2.0]))
        )
        counts, failed = _sturm_counts([block], [np.array([-1e-300])])
        assert [n.tolist() for n in counts] == [[1]]
        assert failed.tolist() == [False]

    def test_underflowing_coupling_is_counted(self):
        # e^2 underflows to the smallest subnormal, so e^2 / d_15 is about
        # 1.24 e and the last pivot is negative
        e = 2e-162
        assert (e * e) / e > 1.2 * e
        block = BandedSymMatrix((np.array([10.0] * 15 + [e, e]), np.array([0.0] * 15 + [e])))
        counts, failed = _sturm_counts([block], [np.array([-1e-170])])
        assert [n.tolist() for n in counts] == [[1]]
        assert failed.tolist() == [False]
