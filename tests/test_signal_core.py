import warnings

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclab.reservoir import _least_squares
from rclab.signal_core import (
    HermitianEig,
    NonHermitianError,
    SingularChannelError,
    all_pole_filter,
    as_complex_seq,
    hermitian_eig,
    polynomial_roots,
    toeplitz_inverse_first_column,
)


class TestToeplitzInverse:
    def test_identity_channel(self):
        np.testing.assert_allclose(toeplitz_inverse_first_column([1], 4), [1, 0, 0, 0])

    def test_geometric_series(self):
        np.testing.assert_allclose(
            toeplitz_inverse_first_column([1, 0.5], 4), [1, -0.5, 0.25, -0.125]
        )

    def test_forward_substitution_by_hand(self):
        np.testing.assert_allclose(
            toeplitz_inverse_first_column([2, 1], 3), [0.5, -0.25, 0.125]
        )

    def test_singular_channel(self):
        with pytest.raises(SingularChannelError):
            toeplitz_inverse_first_column([0, 1], 4)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            toeplitz_inverse_first_column([1, 1, 1], 2)

    def test_deconvolution_property(self):
        # dominant leading taps keep the inverse bounded, so the absolute
        # tolerance is meaningful over the whole horizon
        rng = np.random.default_rng(7)
        for _ in range(50):
            length = int(rng.integers(1, 9))
            h = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            h[0] = (0.1 + rng.uniform(0.0, 1.0)) * np.exp(2j * np.pi * rng.uniform())
            if length > 1:
                tail_sum = np.sum(np.abs(h[1:]))
                h[1:] *= 0.8 * abs(h[0]) / max(tail_sum, 1e-9)
            assert abs(h[0]) >= 0.1
            n = 48
            g = toeplitz_inverse_first_column(h, n)
            unit = np.zeros(n)
            unit[0] = 1.0
            np.testing.assert_allclose(np.convolve(h, g)[:n], unit, atol=1e-9)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAllPoleFilter:
    """``all_pole_filter`` against the oracle ``scipy.signal.lfilter(1, a, x)``, to the bit."""

    @given(
        lengths=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        pad=st.integers(0, 3),
        t=st.integers(1, 40),
        impulse=st.booleans(),
        monic=st.booleans(),
        sparse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[1], pad=0, t=12, impulse=True, monic=False, sparse=False, seed=0)
    @example(lengths=[13, 1, 4], pad=0, t=30, impulse=True, monic=False, sparse=True, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_matches_lfilter(self, lengths, pad, t, impulse, monic, sparse, seed):
        rng = np.random.default_rng(seed)
        batch, width = len(lengths), max(lengths) + pad
        # the padding after each row's taps holds noise, which must never be read
        a = rng.standard_normal((batch, width)) + 1j * rng.standard_normal((batch, width))
        for r, n in enumerate(lengths):
            if monic:
                a[r, 0] = 1.0
            if sparse and n > 2:  # zero interior taps, as in the cdl_d profile
                a[r, 1 : n - 1][rng.uniform(size=n - 2) < 0.6] = 0.0
            a[r, 1:n] *= 0.9 * abs(a[r, 0]) / max(np.sum(np.abs(a[r, 1:n])), 1e-9)
        if impulse:
            x = np.zeros((batch, t), dtype=complex)
            x[:, 0] = 1.0
        else:
            x = rng.standard_normal((batch, t)) + 1j * rng.standard_normal((batch, t))
        got = all_pole_filter(a, x, lengths)
        shared = all_pole_filter(a, x[0], lengths)
        for r, n in enumerate(lengths):
            num = np.ones(1, dtype=complex)
            assert same_bits(got[r], scipy.signal.lfilter(num, a[r, :n], x[r]))
            assert same_bits(shared[r], scipy.signal.lfilter(num, a[r, :n], x[0]))

    def test_lengths_checked(self):
        a = np.ones((2, 3), dtype=complex)
        for lengths in ([0, 3], [1, 4], [2]):
            with pytest.raises(ValueError):
                all_pole_filter(a, np.ones(4), lengths)


class TestHermitianEig:
    def test_diagonal(self):
        eig = hermitian_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(eig.values, [4, 1])
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        eig = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.values, [3, 1], atol=1e-12)

    def test_rank_one(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        eig = hermitian_eig(np.outer(v, v.conj()))
        np.testing.assert_allclose(eig.values, [1, 0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_invariants_random(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 16):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k = a @ a.conj().T
            eig = hermitian_eig(k)
            assert isinstance(eig, HermitianEig)
            scale = np.linalg.norm(k)
            v, lam = eig.vectors, eig.values
            assert np.linalg.norm(v @ np.diag(lam) @ v.conj().T - k) <= 1e-9 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-9
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.all(lam >= -1e-9 * scale)

    def test_phase_normalization_reproducible(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        k = a @ a.conj().T
        e1, e2 = hermitian_eig(k), hermitian_eig(k.copy())
        np.testing.assert_array_equal(e1.vectors, e2.vectors)
        for j in range(6):
            col = e1.vectors[:, j]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) <= 1e-12 and lead.real > 0


class TestLeastSquares:
    """The package's unregularized least squares: the readout fit at ridge 0.

    ``_least_squares(f, 0.0)[0](t)`` solves ``w @ f = t`` in the least-squares
    sense, so ``a @ x = b`` is posed as ``f = a.T``, ``t = b[None]``.  Square
    and wide systems are part of the contract here, so the readout's warning
    that such a fit is underdetermined is not.
    """

    @staticmethod
    def solve(a, b):
        a = np.asarray(a, dtype=complex)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "only .* fit is underdetermined")
            weights = _least_squares(np.ascontiguousarray(a.T), 0.0)[0]
        return weights(np.asarray(b, dtype=complex)[None])[0]

    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(self.solve(np.eye(3), b), b)

    def test_mean(self):
        np.testing.assert_allclose(self.solve([[1.0], [1.0]], [0.0, 2.0]), [1.0])

    def test_minimum_norm_rank_deficient(self):
        sol = self.solve([[1.0, 0.0], [1.0, 0.0]], [0.0, 2.0])
        np.testing.assert_allclose(sol, [1.0, 0.0], atol=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n = rng.integers(3, 20), rng.integers(1, 8)
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x = self.solve(a, b)
            resid = a @ x - b
            assert np.linalg.norm(a.conj().T @ resid) <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(b)


class TestPolynomialRoots:
    def test_single_root(self):
        np.testing.assert_allclose(polynomial_roots([1, -0.5]), [0.5])

    def test_factored_quadratic(self):
        np.testing.assert_allclose(polynomial_roots([1, -2.5, 1]), [0.5, 2.0], atol=1e-12)

    def test_imaginary_pair(self):
        roots = polynomial_roots([1, 0, 0.25])
        np.testing.assert_allclose(sorted(roots, key=lambda z: z.imag), [-0.5j, 0.5j], atol=1e-12)

    def test_trailing_zeros_stripped(self):
        np.testing.assert_allclose(polynomial_roots([1, -0.5, 0, 0]), [0.5])

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([3.0])

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([0, 1.0, 2.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for degree in range(1, 13):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            c[0] += 3.0  # keep the leading coefficient well away from zero
            roots = polynomial_roots(c)
            rebuilt = c[0] * np.atleast_1d(np.poly(roots))
            np.testing.assert_allclose(rebuilt, c, rtol=1e-7, atol=1e-7 * np.abs(c).max())


def test_as_complex_seq_validation():
    with pytest.raises(ValueError):
        as_complex_seq([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        as_complex_seq([np.nan])
