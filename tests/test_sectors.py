import numpy as np
import pytest

from kerrspec.eigensolve import eigen
from kerrspec.fock import FockSpace, HamiltonianSpec, assemble, ladder_poly, standard_hamiltonian
from kerrspec.sectors import MOD_ALL, SymmetryViolation, detect_modulus, split


def _ham(n_max, **kwargs):
    return assemble(standard_hamiltonian(HamiltonianSpec(**kwargs)), FockSpace(n_max))


class TestDetectModulus:
    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            (dict(eta=1, xi=1), 2),
            (dict(eta=1, xi3=1), 3),
            (dict(eta=1, xi=1, xi3=1), 1),
            (dict(eta=1, xi4=0.1), 4),
            (dict(eta=1, xi=1, xi4=0.1), 2),
            (dict(eta=1), MOD_ALL),
            (dict(), MOD_ALL),
        ],
    )
    def test_known_coupling_structures(self, kwargs, expected):
        assert detect_modulus(standard_hamiltonian(HamiltonianSpec(**kwargs))) == expected

    def test_zero_coefficient_terms_ignored(self):
        poly = standard_hamiltonian(HamiltonianSpec(eta=1, xi=0.0, xi3=2.0))
        assert detect_modulus(poly) == 3

    def test_non_hermitian_refused(self):
        with pytest.raises(ValueError, match="expects a Hermitian polynomial"):
            detect_modulus(ladder_poly(1.0, 2, 0))


class TestSplit:
    def test_parity_split_indices(self):
        m = _ham(5, eta=1, xi=1)
        dense = m.to_dense()
        sectors = split(m, 2).sectors
        assert [(s.residue, s.block.dim) for s in sectors] == [(0, 3), (1, 3)]
        for s in sectors:
            r = s.residue
            np.testing.assert_array_equal(s.block.to_dense(), dense[r::2, r::2])

    def test_block_entries_match_parent(self):
        m = _ham(9, eta=2, xi=0.7)
        decomp = split(m, 2)
        dense = m.to_dense()
        for s in decomp.sectors:
            r = s.residue
            np.testing.assert_array_equal(s.block.to_dense(), dense[r::2, r::2])
            assert not any(np.shares_memory(b, d) for b in s.block.diagonals for d in m.diagonals)

    def test_k1_is_identity(self):
        m = _ham(8, eta=1, xi=0.5, xi3=0.2)
        decomp = split(m, 1)
        assert len(decomp.sectors) == 1
        np.testing.assert_array_equal(decomp.sectors[0].block.to_dense(), m.to_dense())

    def test_mod4_blocks_and_spectrum_union(self):
        m = _ham(11, eta=1, xi4=0.2)
        decomp = split(m, 4)
        assert [s.block.dim for s in decomp.sectors] == [3, 3, 3, 3]
        union = np.sort(np.concatenate([eigen(s.block) for s in decomp.sectors]))
        full = np.sort(np.linalg.eigvalsh(m.to_dense()))
        np.testing.assert_allclose(union, full, rtol=1e-10, atol=1e-10)

    def test_violation_raises(self):
        with pytest.raises(SymmetryViolation):
            split(_ham(8, eta=1, xi3=0.3), 2)

    def test_diagonal_split_reads_spectrum_exactly(self):
        m = _ham(6, eta=4)
        decomp = split(m, MOD_ALL)
        assert [s.residue for s in decomp.sectors] == list(range(7))
        values = np.array([s.block.diagonal[0] for s in decomp.sectors])
        np.testing.assert_array_equal(values, m.diagonal)
        # MOD_ALL is the split with stride dim, block for block
        for a, b in zip(decomp.sectors, split(m, m.dim).sectors, strict=True):
            assert (a.residue, a.block.dim, a.block.bandwidth) == (b.residue, 1, b.block.bandwidth)
            np.testing.assert_array_equal(a.block.diagonals, b.block.diagonals)

    def test_diagonal_split_rejects_offdiagonal(self):
        with pytest.raises(SymmetryViolation):
            split(_ham(6, eta=1, xi=1), MOD_ALL)

    def test_bad_modulus_rejected(self):
        for k in (-1, 2.5, "all", True):
            with pytest.raises(ValueError, match="^modulus must be a non-negative integer"):
                split(_ham(4, eta=1), k)

    def test_numpy_integer_modulus_accepted(self):
        m = _ham(6, eta=1, xi=1)
        for a, b in zip(split(m, np.int64(2)).sectors, split(m, 2).sectors, strict=True):
            assert a.residue == b.residue
            np.testing.assert_array_equal(a.block.to_dense(), b.block.to_dense())


class TestSectorSpectraInvariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=3.5, xi=1.2),
            dict(eta=0.0, xi3=0.4),
            dict(eta=6.0, xi4=0.3),
            dict(eta=2.0, xi=0.5, xi2p=0.1),
            dict(eta=1.0, xi=0.7, xi3=0.2),
        ],
    )
    def test_sector_union_equals_full_spectrum(self, kwargs):
        n_max = 60
        poly = standard_hamiltonian(HamiltonianSpec(**kwargs))
        m = assemble(poly, FockSpace(n_max))
        k = detect_modulus(poly)
        union = np.sort(
            np.concatenate([eigen(s.block) for s in split(m, k).sectors])
        )
        full = np.sort(np.linalg.eigvalsh(m.to_dense()))
        scale = np.max(np.abs(full))
        assert np.max(np.abs(union - full)) <= 1e-10 * scale

    def test_mod4_regroups_into_two_parity_copies(self):
        # sectors {0, 2} of the mod-4 split reproduce the even-parity spectrum
        m = _ham(41, eta=2, xi4=0.2)
        by4 = split(m, 4)
        by2 = split(m, 2)
        even_from_4 = np.sort(
            np.concatenate(
                [eigen(by4.sectors[r].block) for r in (0, 2)]
            )
        )
        even = np.sort(eigen(by2.sectors[0].block))
        np.testing.assert_allclose(even_from_4, even, rtol=1e-10, atol=1e-10)
        odd_from_4 = np.sort(
            np.concatenate(
                [eigen(by4.sectors[r].block) for r in (1, 3)]
            )
        )
        odd = np.sort(eigen(by2.sectors[1].block))
        np.testing.assert_allclose(odd_from_4, odd, rtol=1e-10, atol=1e-10)
