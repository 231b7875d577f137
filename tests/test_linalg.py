import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimin import linalg
from pimin.linalg import _kron_apply, hermitian_evd

from pimin.selfcheck import (cplx, dense_kron_block, evd_error, lapack_error,
                             random_hermitian)


class TestHermitianEvd:
    def test_identity(self):
        evd = hermitian_evd(np.eye(3, dtype=complex))
        assert np.allclose(evd.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        evd = hermitian_evd(np.diag([2.0, 0.0]).astype(complex))
        assert np.allclose(evd.eigenvalues, [2.0, 0.0])
        # eigenvectors are the standard basis up to permutation/phase
        assert np.allclose(np.abs(evd.eigenvectors), np.eye(2))

    def test_reconstruction_gram_input(self, rng):
        assert evd_error(rng) <= 1e-10

    def test_descending_order(self, rng):
        evd = hermitian_evd(random_hermitian(rng, 7))
        assert np.all(np.diff(evd.eigenvalues) <= 0)

    def test_repeated_eigenvalues_keep_the_stable_sort_order(self, rng):
        # reversing eigh's ascending output orders ties as a stable argsort,
        # reversed, does
        q, _ = np.linalg.qr(cplx(rng, 6, 6))
        spectra = ([2.0, 2.0, 2.0, 1.0, 0.0, 0.0], [1.0] * 6, [3.0, 3.0, 0.0, 0.0, 0.0, -1.0])
        # a diagonal input has exactly tied eigenvalues, a rotated one nearly tied
        inputs = [np.diag(lam).astype(complex) for lam in spectra]
        inputs += [(q * np.array(lam)) @ q.conj().T for lam in spectra]
        inputs.append(np.diag([0.0, 2.0, 1.0, 2.0, 0.0, 2.0]).astype(complex))
        for a in inputs:
            evd = hermitian_evd(a)
            ref_lam, ref_v = np.linalg.eigh(0.5 * (a + a.conj().T))
            order = np.argsort(ref_lam, kind="stable")[::-1]
            assert np.array_equal(evd.eigenvalues, ref_lam[order])
            assert np.array_equal(evd.eigenvectors, ref_v[:, order])

    def test_eigenvalue_sum_equals_trace(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, int(rng.integers(2, 9)))
            evd = hermitian_evd(a)
            tr = np.trace(a).real
            assert abs(evd.eigenvalues.sum() - tr) <= 1e-9 * max(abs(tr), 1.0)

    def test_psd_input_eigenvalues_nonnegative(self, rng):
        for _ in range(10):
            b = cplx(rng, 5, 5)
            evd = hermitian_evd(b.conj().T @ b)
            assert evd.eigenvalues.min() >= -1e-10 * max(evd.eigenvalues.max(), 1.0)

    def test_a_negative_eigenvalue_clips_to_zero(self):
        evd = hermitian_evd(np.diag([2.0, -1.0]).astype(complex))
        assert evd.clipped_eigenvalues.tolist() == [2.0, 0.0]

    def test_shared_arrays_read_only_and_clipped_once(self, rng):
        b = cplx(rng, 4, 2)
        evd = hermitian_evd(b @ b.conj().T)     # rank 2: two eigenvalues clip to 0
        clipped = evd.clipped_eigenvalues
        assert clipped is evd.clipped_eigenvalues
        assert np.count_nonzero(clipped) == 2
        for arr in (evd.eigenvalues, evd.eigenvectors, clipped):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestKronIdentityApply:
    def test_identity_blocks(self, rng):
        v = cplx(rng, 6)
        out = _kron_apply(np.eye(2, dtype=complex), v)
        assert np.array_equal(out, v)

    def test_swap_within_blocks(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert np.allclose(_kron_apply(h, v), [2.0, 1.0, 4.0, 3.0])

    def test_rectangular_vs_dense(self, rng):
        h = cplx(rng, 3, 2)
        v = cplx(rng, 8)
        dense = dense_kron_block(h, 4) @ v
        assert np.max(np.abs(_kron_apply(h, v) - dense)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 6), b=st.integers(1, 6), blocks=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_kron(self, a, b, blocks, seed):
        gen = np.random.default_rng(seed)
        h = cplx(gen, a, b)
        v = cplx(gen, blocks * b)
        dense = dense_kron_block(h, blocks) @ v
        assert np.max(np.abs(_kron_apply(h, v) - dense)) <= 1e-12


class TestLapackWrappers:
    def test_match_numpy_linalg_bit_for_bit(self, rng):
        assert lapack_error(rng, 200) == 0.0

    def test_frobenius_is_numpy_norm_bit_for_bit(self, rng):
        # the SDP solver scales by it, and its answers are those of numpy's norm
        for n in range(1, 18):
            a = cplx(rng, n, n) * 10.0 ** rng.uniform(-20.0, 20.0)
            for m in (a, a.T, np.outer(a[0], a[0].conj())):
                assert linalg._frobenius(m) == float(np.linalg.norm(m))

    def test_singular_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            linalg.solve(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.parametrize("name", ["eigh", "eigvalsh"])
    def test_nan_matrix_fails_to_converge(self, name):
        # numpy.linalg raises the same error
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            getattr(linalg, name)(np.full((3, 3), np.nan, dtype=complex))

    @pytest.mark.parametrize("name, good, bad", [
        ("solve", (np.eye(3), np.ones(3)), (np.zeros((3, 3)), np.ones(3))),
        ("eigh", (np.eye(3, dtype=complex),), (np.full((3, 3), np.nan, dtype=complex),)),
        ("eigvalsh", (np.eye(3, dtype=complex),), (np.full((3, 3), np.nan, dtype=complex),)),
    ], ids=["solve", "eigh", "eigvalsh"])
    def test_the_callers_error_state_is_restored(self, name, good, bad):
        # each wrapper enters numpy.linalg's error state for its own call only:
        # after a return or a LinAlgError the caller's state, callback included,
        # is as it was, so an overflow still raises where the caller asked it to
        def callers_handler(err, flag):
            pass

        with np.errstate(call=callers_handler, divide="warn", over="raise", under="print",
                         invalid="warn"):
            state = (np.geterr(), np.geterrcall())
            getattr(linalg, name)(*good)
            assert (np.geterr(), np.geterrcall()) == state
            with pytest.raises(np.linalg.LinAlgError):
                getattr(linalg, name)(*bad)
            assert (np.geterr(), np.geterrcall()) == state
            with pytest.raises(FloatingPointError):
                np.full(2, 1e300) * 1e300
