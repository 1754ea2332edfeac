import numpy as np
import pytest
import scipy.linalg

from kerrspec.eigensolve import (
    _sturm_counts,
    certify,
    converged_spectrum,
    eigen,
    eigenvalue,
    sturm_certifiable,
)
from kerrspec.fock import (
    BandedSymMatrix,
    FockSpace,
    HamiltonianSpec,
    assemble,
    standard_hamiltonian,
)
from kerrspec.sectors import MOD_ALL, detect_modulus, split


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
        result = eigen(m)
        np.testing.assert_array_equal(result.eigenvalues, [-6, -6, -4, -4, 0, 0])
        assert result.residual_bound == 0.0

    def test_two_by_two_analytic(self):
        m = BandedSymMatrix(2, 1, (np.zeros(2), np.array([-np.sqrt(2)])))
        w = eigen(m).eigenvalues
        np.testing.assert_allclose(w, [-np.sqrt(2), np.sqrt(2)], atol=1e-14)

    def test_ground_state_against_inertia_bisection(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=6, xi=1)), FockSpace(40))
        w = eigen(m).eigenvalues
        dense = m.to_dense()
        bound = np.abs(dense).sum(axis=1).max()  # Gershgorin
        oracle = bisect_eigenvalue(dense, 0, -bound, bound)
        assert w[0] == pytest.approx(oracle, abs=1e-9)

    def test_eigenvector_contract(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=3, xi=0.8)), FockSpace(60))
        result = eigen(m, want_vectors=True)
        v = result.eigenvectors
        resid = m.matvec(v) - v * result.eigenvalues[None, :]
        assert np.max(np.sqrt((resid**2).sum(axis=0))) <= result.residual_bound + 1e-15
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(v.shape[1]))) < 1e-10

    def test_diagonal_eigenvectors_are_basis_states(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=4)), FockSpace(5))
        result = eigen(m, want_vectors=True)
        assert np.all(np.isin(result.eigenvectors, (0.0, 1.0)))
        np.testing.assert_array_equal(
            m.to_dense() @ result.eigenvectors,
            result.eigenvectors * result.eigenvalues[None, :],
        )

    def test_sorted_ascending(self):
        m = assemble(standard_hamiltonian(HamiltonianSpec(eta=1.7, xi=2.0)), FockSpace(80))
        w = eigen(m).eigenvalues
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

    def test_residue_tags_partition_levels(self):
        spec = HamiltonianSpec(eta=1, xi=0.4)
        cs = converged_spectrum(spec, n_max=40, n_probe=60)
        k = detect_modulus(standard_hamiltonian(spec))
        m = assemble(standard_hamiltonian(spec), FockSpace(40))
        for r in (0, 1):
            block_vals = eigen(split(m, k).sector(r).block).eigenvalues
            mine = np.sort(cs.energies[cs.residues == r])
            np.testing.assert_array_equal(mine, np.sort(block_vals))


class TestSingleLevel:
    @staticmethod
    def blocks():
        def sector(spec, n_max, residue):
            poly = standard_hamiltonian(spec)
            return split(assemble(poly, FockSpace(n_max)), detect_modulus(poly)).sector(residue).block

        yield "diagonal", assemble(standard_hamiltonian(HamiltonianSpec(eta=4)), FockSpace(60))
        yield "stored zero band", BandedSymMatrix(4, 1, (np.array([3.0, -1.0, 2.0, -1.0]), np.zeros(3)))
        yield "tridiagonal P2 sector", sector(HamiltonianSpec(eta=3.3, xi=1.0), 300, 1)
        yield "band 2 P2+P4 sector", sector(HamiltonianSpec(eta=2.0, xi=1.0, xi4=0.2), 300, 0)
        yield "band 4 unsplit P4", assemble(
            standard_hamiltonian(HamiltonianSpec(eta=1.5, xi4=0.3)), FockSpace(200)
        )

    def test_matches_full_spectrum(self):
        widths = set()
        for name, block in self.blocks():
            widths.add(block.bandwidth)
            full = eigen(block).eigenvalues
            for i in list(range(min(25, block.dim))) + [block.dim - 1]:
                e = eigenvalue(block, i)
                assert abs(e - full[i]) <= 1e-12 * max(1.0, abs(full[i])), (name, i)
        assert widths == {0, 1, 2, 4}

    def test_index_out_of_range(self):
        m = BandedSymMatrix(2, 1, (np.zeros(2), np.array([1.0])))
        with pytest.raises(IndexError):
            eigenvalue(m, 2)
        with pytest.raises(IndexError):
            eigenvalue(m, -1)


def probe_flags(vals, probe_block, tol):
    """Reference certificate: diagonalize the probe block and compare level by level."""
    probe_vals = eigen(probe_block).eigenvalues[: len(vals)]
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
    }

    @staticmethod
    def sectors(spec, n_max, n_probe):
        poly = standard_hamiltonian(spec)
        k = detect_modulus(poly)
        main = split(assemble(poly, FockSpace(n_max)), k).sectors
        probe = {s.residue: s.block for s in split(assemble(poly, FockSpace(n_probe)), k).sectors}
        return k, [eigen(s.block).eigenvalues for s in main], [probe[s.residue] for s in main]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_equal_probe_diagonalization(self, case):
        spec, n_max, n_probe, counted = self.CASES[case]
        k, vals, probe = self.sectors(spec, n_max, n_probe)
        assert all(sturm_certifiable(b) == counted for b in probe)
        tol = 1e-8
        flags = certify(vals, probe, tol)
        for v, b, f in zip(vals, probe, flags):
            np.testing.assert_array_equal(f, probe_flags(v, b, tol))
        every = np.concatenate(flags)
        if case == "P2 small basis, many fail":
            assert every.sum() > 0 and (~every).sum() >= 10
        if case == "MOD_ALL":
            assert k == MOD_ALL
        if case == "xi2p alone":
            assert probe[0].diagonals[1][0] == 0.0  # <2|a^dag^2 n|0> vanishes

    def test_precomputed_probe_spectrum(self):
        _, vals, probe = self.sectors(HamiltonianSpec(eta=1.0, xi=3.0), 60, 90)
        spectra = [eigen(b).eigenvalues for b in probe]
        for f, g in zip(certify(vals, spectra, 1e-8), certify(vals, probe, 1e-8)):
            np.testing.assert_array_equal(f, g)

    def test_zero_pivot_at_zero_off_diagonal_falls_back(self):
        # n_max block diag(3, 4, 10): level 1 gets the shift 4 - 0.25 * 4 = 3, so
        # the first probe pivot is 3 - 3 = 0 at a zero off-diagonal (0/0); two
        # eigenvalues of the coupled probe tail lie below 3, so level 1 fails
        probe = BandedSymMatrix(
            7, 1, (np.array([3.0, 4.0, 10.0, 10.0, 10.0, 10.0, 10.0]), np.array([0, 0, 8.0, 8, 8, 8]))
        )
        vals = np.array([3.0, 4.0, 10.0])
        _, failed = _sturm_counts([probe], [vals - 0.25 * vals])
        assert failed.tolist() == [True]
        # a sound block certified in the same batch keeps its own counts
        _, p2_vals, p2_probe = self.sectors(HamiltonianSpec(eta=0.0, xi=2.0), 40, 60)
        flags = certify([vals, *p2_vals], [probe, *p2_probe], 0.25)
        assert flags[0].tolist() == [False, False, False]
        np.testing.assert_array_equal(flags[0], probe_flags(vals, probe, 0.25))
        for v, b, f in zip(p2_vals, p2_probe, flags[1:]):
            np.testing.assert_array_equal(f, probe_flags(v, b, 0.25))

    def test_converged_spectrum_uses_the_same_flags(self):
        spec = HamiltonianSpec(eta=1.0, xi=2.0)
        cs = converged_spectrum(spec, 24, 40, 1e-8)
        assert 0 < cs.n_converged < cs.n_levels
        _, vals, probe = self.sectors(spec, 24, 40)
        for r, (v, b) in enumerate(zip(vals, probe)):
            np.testing.assert_array_equal(cs.converged[cs.residues == r], probe_flags(v, b, 1e-8))
