import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schromag.blockenc import (
    U_ZERO_ONE,
    BlockEncoding,
    build_state_prep_pair,
    compose_product,
    compose_sum,
    compose_tensor,
    dilate,
    verify,
)
from schromag.errors import EncodingError
from schromag.mag import derive_params

from reference import (build_transformed, decompose_homo, homogenize, reassemble_blocks,
                       split, to_ode, verify_state_prep)


def random_mat(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def spectral(m):
    return float(np.linalg.norm(m, 2))


class TestDilate:
    def test_scalar_half(self):
        be = dilate(np.array([[0.5]]), 1.0)
        expect = np.array([[0.5, math.sqrt(0.75)], [math.sqrt(0.75), -0.5]])
        assert np.allclose(be.u, expect, atol=1e-12)
        assert verify(be) <= 1e-12

    def test_identity(self):
        be = dilate(np.eye(2), 1.0)
        expect = np.zeros((4, 4))
        expect[:2, :2] = np.eye(2)
        expect[2:, 2:] = -np.eye(2)
        assert np.allclose(be.u, expect, atol=1e-12)

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            dilate(np.eye(2) * 2.0, 1.0)

    @given(st.integers(2, 8), st.floats(1.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_random_dilations_verify(self, n, slack):
        rng = np.random.default_rng(n * 100 + int(slack * 10))
        a = random_mat(rng, n)
        be = dilate(a, spectral(a) * slack)
        assert verify(be) <= 1e-10
        gap = spectral(be.u @ be.u.conj().T - np.eye(2 * n))
        assert gap <= 1e-10


class TestVerify:
    def test_self_verification(self):
        rng = np.random.default_rng(1)
        a = random_mat(rng, 3)
        be = dilate(a, spectral(a) * 1.2)
        assert verify(be, a) <= 1e-10

    def test_identity_encodes_identity(self):
        be = BlockEncoding(u=np.eye(2), alpha=1.0, m=0, eps=0.0, n=2,
                           reference=np.eye(2))
        assert verify(be) == 0.0

    def test_corrupted_unitary_detected(self):
        rng = np.random.default_rng(2)
        a = random_mat(rng, 3)
        be = dilate(a, spectral(a) * 1.2)
        u_bad = be.u.copy()
        u_bad[0, 0] += 1e-3
        bad = BlockEncoding(u=u_bad, alpha=be.alpha, m=1, eps=0.0, n=3,
                            reference=a, validate=False)
        with pytest.raises(EncodingError) as err:
            verify(bad)
        assert err.value.measured > 1e-4
        assert err.value.claimed == 0.0

    def test_paper_corner_case_u_zero_one(self):
        be = BlockEncoding(
            u=U_ZERO_ONE, alpha=1.0, m=1, eps=0.0, n=2,
            reference=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        )
        assert verify(be) == 0.0
        assert np.array_equal(be.encoded_block(), [[0, 1], [0, 0]])


class TestStatePrep:
    def test_single_coefficient(self):
        pair = build_state_prep_pair([1.0])
        assert pair.beta == 1.0
        assert pair.b_qubits == 1
        assert verify_state_prep(pair, [1.0]) <= 1e-12

    def test_even_split(self):
        pair = build_state_prep_pair([0.5, 0.5])
        assert pair.beta == 1.0
        expect = math.sqrt(0.5)
        assert pair.p_l[0, 0] == pytest.approx(expect, rel=1e-12)
        assert pair.p_r[1, 0] == pytest.approx(expect, rel=1e-12)
        assert verify_state_prep(pair, [0.5, 0.5]) <= 1e-12

    def test_signs_realized_by_phase(self):
        pair = build_state_prep_pair([1.0, -1.0])
        assert pair.beta == 2.0
        overlaps = pair.beta * np.conj(pair.p_l[:, 0]) * pair.p_r[:, 0]
        assert np.sum(np.abs(overlaps[:2] - [1.0, -1.0])) <= 1e-12

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            build_state_prep_pair([0.0, 0.0])

    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_unitarity_and_overlaps(self, y):
        if sum(abs(v) for v in y) < 1e-9:
            return
        pair = build_state_prep_pair(y)
        dim = 1 << pair.b_qubits
        for u in (pair.p_l, pair.p_r):
            assert spectral(u @ u.conj().T - np.eye(dim)) <= 1e-10
        assert verify_state_prep(pair, y) <= 1e-10


class TestCompositions:
    def _pair_of_encodings(self, seed, n=3):
        rng = np.random.default_rng(seed)
        a1, a2 = random_mat(rng, n), random_mat(rng, n)
        alpha = max(spectral(a1), spectral(a2)) * 1.3
        return dilate(a1, alpha), dilate(a2, alpha)

    def test_product(self):
        be1, be2 = self._pair_of_encodings(3)
        prod = compose_product(be1, be2)
        assert prod.alpha == pytest.approx(be1.alpha * be2.alpha)
        assert prod.m == 2
        assert verify(prod, be1.reference @ be2.reference) <= prod.eps + 1e-10

    def test_tensor(self):
        be1, be2 = self._pair_of_encodings(5, n=2)
        ten = compose_tensor(be1, be2)
        assert ten.n == 4
        assert verify(ten, np.kron(be1.reference, be2.reference)) <= 1e-10

    def test_tensor_scalar_case(self):
        be = dilate(np.array([[0.5]]), 1.0)
        ten = compose_tensor(be, be)
        assert ten.alpha == 1.0
        assert abs(ten.encoded_block()[0, 0] - 0.25) <= 1e-12

    def test_sum_convex_combination(self):
        be, _ = self._pair_of_encodings(8)
        s = compose_sum([be, be], [0.5, 0.5])
        assert s.alpha == pytest.approx(be.alpha)
        assert verify(s, be.reference) <= s.eps + 1e-10

    def test_sum_weighted(self):
        be1, be2 = self._pair_of_encodings(9)
        s = compose_sum([be1, be2], [0.75, 0.25])
        ref = 0.75 * be1.reference + 0.25 * be2.reference
        assert verify(s, ref) <= s.eps + 1e-10

    def test_sum_requires_matching_params(self):
        rng = np.random.default_rng(10)
        a1, a2 = random_mat(rng, 3), random_mat(rng, 3)
        be1 = dilate(a1, spectral(a1) * 1.1)
        be2 = dilate(a2, spectral(a2) * 1.7)
        with pytest.raises(ValueError):
            compose_sum([be1, be2], [0.5, 0.5])

    def test_perturbed_operands_stay_within_predicted_bound(self):
        # operands whose reference is deliberately off by a known eps
        rng = np.random.default_rng(11)
        n = 3
        a = random_mat(rng, n)
        alpha = spectral(a) * 1.5
        be_exact = dilate(a, alpha)
        perturb = 1e-6 * random_mat(rng, n)
        claimed = BlockEncoding(
            u=be_exact.u, alpha=alpha, m=1, eps=spectral(perturb) * 1.001,
            n=n, reference=a + perturb,
        )
        prod = compose_product(claimed, claimed)
        assert verify(prod) <= prod.eps + 1e-10
        ten = compose_tensor(claimed, claimed)
        assert verify(ten) <= ten.eps + 1e-10
        s = compose_sum([claimed, claimed], [0.5, 0.5])
        assert verify(s) <= s.eps + 1e-10


class TestDecomposeHomo:
    def _split(self, gamma_f=0.5):
        p = derive_params(100.0, 0.01)
        sys = build_transformed(np.diag([10.0, 0.1]).astype(complex), [1.0, 1.0], p)
        gen, drive = to_ode(sys)
        return p, sys, split(homogenize(gen, drive, gamma_f))

    def test_reconstruction_exact(self):
        _, sys, hs = self._split()
        blocks = decompose_homo(hs, sys.n)
        assert np.array_equal(reassemble_blocks(blocks.h1_blocks, sys.n), hs.h1)
        assert np.array_equal(reassemble_blocks(blocks.h2_blocks, sys.n), hs.h2)

    def test_corner_block_is_normal_matrix(self):
        # hermitian part block (0,0) equals -alpha A^H A
        p, sys, hs = self._split()
        blocks = decompose_homo(hs, sys.n)
        a = sys.a
        assert np.allclose(
            blocks.h1_blocks[(0, 0)], -p.alpha * a.conj().T @ a, atol=1e-12
        )

    def test_momentum_coupling_lands_in_skew_part(self):
        # the sqrt(alpha beta) A blocks are anti-hermitian contributions:
        # a hermitian matrix cannot carry them, so they are absent from
        # h1 and land in h2
        p, sys, hs = self._split()
        blocks = decompose_homo(hs, sys.n)
        assert (0, 1) not in blocks.h1_blocks
        c = math.sqrt(p.alpha * p.beta)
        assert np.allclose(blocks.h2_blocks[(0, 1)], 1j * c * sys.a.conj().T, atol=1e-12)

    def test_forcing_coupling_halves(self):
        _, sys, hs = self._split(gamma_f=1.0)
        blocks = decompose_homo(hs, sys.n)
        for key in ((0, 2), (1, 3), (2, 0), (3, 1)):
            assert np.allclose(blocks.h1_blocks[key], 0.5 * np.eye(sys.n), atol=1e-12)

    def test_hermitian_symmetry_of_blocks(self):
        _, sys, hs = self._split()
        for blocks in (decompose_homo(hs, sys.n).h1_blocks,):
            for (i, j), blk in blocks.items():
                assert np.allclose(blk, blocks[(j, i)].conj().T, atol=1e-12)

    def test_dimension_check(self):
        _, sys, hs = self._split()
        with pytest.raises(ValueError):
            decompose_homo(hs, sys.n + 1)
