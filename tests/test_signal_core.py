import re
import warnings

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclab.reservoir import _least_squares
from rclab.signal_core import (
    HERMITIAN_BLOCK_ROWS,
    all_pole_filter,
    column_blocks,
    hermitian_eig,
    polynomial_roots,
    toeplitz_inverse_first_column,
)
from one_blas_thread import run_python


class TestToeplitzInverse:
    def test_identity_channel(self):
        np.testing.assert_allclose(toeplitz_inverse_first_column([[1]], 4)[0], [1, 0, 0, 0])

    def test_geometric_series(self):
        np.testing.assert_allclose(
            toeplitz_inverse_first_column([[1, 0.5]], 4)[0], [1, -0.5, 0.25, -0.125]
        )

    def test_forward_substitution_by_hand(self):
        np.testing.assert_allclose(
            toeplitz_inverse_first_column([[2, 1]], 3)[0], [0.5, -0.25, 0.125]
        )

    def test_singular_channel(self):
        with pytest.raises(ValueError, match=re.escape("a[0] = 0: the leading tap makes 1 / A(z) singular")):
            toeplitz_inverse_first_column([[0, 1]], 4)

    def test_one_sequence_rejected(self):
        with pytest.raises(ValueError, match=re.escape("h must be a finite (batch, L) stack, got shape (2,)")):
            toeplitz_inverse_first_column([1, 0.5], 4)

    def test_shorter_n_is_a_prefix(self):
        h = [[1, 1, 1]]
        short, long = toeplitz_inverse_first_column(h, 2), toeplitz_inverse_first_column(h, 3)
        assert short.tobytes() == long[:, :2].tobytes()
        with pytest.raises(ValueError, match="n = 0"):
            toeplitz_inverse_first_column(h, 0)

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
            g = toeplitz_inverse_first_column([h], n)[0]
            unit = np.zeros(n)
            unit[0] = 1.0
            np.testing.assert_allclose(np.convolve(h, g)[:n], unit, atol=1e-9)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAllPoleFilter:
    """``all_pole_filter`` against the oracle ``scipy.signal.lfilter(1, a, x)``, to the bit."""

    @given(
        batch=st.integers(1, 5),
        width=st.integers(1, 8),
        t=st.integers(0, 40),
        impulse=st.booleans(),
        monic=st.booleans(),
        sparse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=1, width=1, t=12, impulse=True, monic=False, sparse=False, seed=0)
    @example(batch=3, width=13, t=30, impulse=True, monic=False, sparse=True, seed=1)
    @example(batch=2, width=2, t=0, impulse=False, monic=False, sparse=False, seed=2)
    @example(batch=2, width=1, t=0, impulse=False, monic=False, sparse=False, seed=2)
    @settings(max_examples=120, deadline=None)
    def test_matches_lfilter(self, batch, width, t, impulse, monic, sparse, seed):
        # signed zeros count: tobytes() tells -0.0 from 0.0
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((batch, width)) + 1j * rng.standard_normal((batch, width))
        if monic:
            a[:, 0] = 1.0
        if sparse:  # zero interior taps, as in the cdl_d profile, and -0.0 after the first
            a[:, 1:-1][rng.uniform(size=(batch, max(width - 2, 0))) < 0.6] = 0.0
            a[:, 1:][rng.uniform(size=(batch, width - 1)) < 0.3] = -0.0
        tails = np.sum(np.abs(a[:, 1:]), axis=1, keepdims=True)
        a[:, 1:] *= 0.9 * np.abs(a[:, :1]) / np.maximum(tails, 1e-9)
        if impulse and t:
            x = np.zeros(t, dtype=complex)
            x[0] = 1.0
        else:
            x = rng.standard_normal(t) + 1j * rng.standard_normal(t)
        got = all_pole_filter(a, x)
        assert got.shape == (batch, t)
        if t:  # lfilter rejects an empty input
            for r in range(batch):
                assert same_bits(got[r], scipy.signal.lfilter(np.ones(1, dtype=complex), a[r], x))

    @pytest.mark.parametrize("x", [np.complex128(1.0), np.ones((3, 4)), np.ones((1, 2, 4))],
                             ids=["0-d", "rows", "3-d"])
    def test_input_shape_checked(self, x):
        a = np.ones((2, 3), dtype=complex)
        want = rf"x must be \(T,\), got shape {re.escape(str(x.shape))}"
        with pytest.raises(ValueError, match=want):
            all_pole_filter(a, x)


class TestHermitianEig:
    def test_diagonal(self):
        values, vectors = hermitian_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(values, [4, 1])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        values, _ = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(values, [3, 1], atol=1e-12)

    def test_rank_one(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        values, _ = hermitian_eig(np.outer(v, v.conj()))
        np.testing.assert_allclose(values, [1, 0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="matrix is not Hermitian within tolerance"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_invariants_random(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 16):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k = a @ a.conj().T
            lam, v = hermitian_eig(k)
            scale = np.linalg.norm(k)
            assert np.linalg.norm(v @ np.diag(lam) @ v.conj().T - k) <= 1e-9 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-9
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.all(lam >= -1e-9 * scale)

    def test_phase_normalization_reproducible(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        k = a @ a.conj().T
        (_, v1), (_, v2) = hermitian_eig(k), hermitian_eig(k.copy())
        np.testing.assert_array_equal(v1, v2)
        for j in range(6):
            col = v1[:, j]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) <= 1e-12 and lead.real > 0

    def test_top_vectors_bit_identical(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        full_values, full_vectors = hermitian_eig(a @ a.conj().T)
        for m in (1, 5, 32):
            values, vectors = hermitian_eig(a @ a.conj().T, m)
            np.testing.assert_array_equal(values, full_values)
            np.testing.assert_array_equal(vectors, full_vectors[:, :m])
            assert vectors.flags.c_contiguous


# row counts around the block width: one block, a lone last row, a part block
PRODUCT_ROWS = (1, 31, 32, 33, 65, 137, 160, 300)

PRODUCT_SCRIPT = """
import numpy as np
from rclab.signal_core import hermitian_product
rng = np.random.default_rng(6)
for n in {rows}:
    g = rng.standard_normal((90, n)) + 1j * rng.standard_normal((90, n))
    # C-ordered rows (the ridge Gram) and the transposed (n_obs, n) view (the covariance)
    for layout, a in (("rows", np.ascontiguousarray(g.T)), ("view", g.T)):
        same = hermitian_product(a).tobytes() == (a @ a.conj().T).tobytes()
        print(n, layout, same)
"""


class TestHermitianProduct:
    def test_bits_of_the_whole_product(self):
        lines = run_python(["-c", PRODUCT_SCRIPT.format(rows=PRODUCT_ROWS)]).split()
        got = {(int(n), layout): same for n, layout, same in zip(lines[::3], lines[1::3], lines[2::3])}
        assert got == {(n, layout): "True" for n in PRODUCT_ROWS for layout in ("rows", "view")}

    @pytest.mark.parametrize("n", PRODUCT_ROWS)
    def test_blocks_cover_the_rows_without_a_lone_last_one(self, n):
        blocks = column_blocks(n, HERMITIAN_BLOCK_ROWS)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == n
        widths = [hi - lo for lo, hi in blocks]
        if n > 1:
            assert min(widths) > 1 and max(widths) <= HERMITIAN_BLOCK_ROWS + 1

    @pytest.mark.parametrize("width", [1, 0, -3])
    def test_blocks_narrower_than_two_columns_are_rejected(self, width):
        # one-column blocks would round as gemv, not as the whole product
        with pytest.raises(ValueError, match=f"width = {width} must be >= 2"):
            column_blocks(10, width)


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

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_all_zero_features_warn(self, ridge):
        # a readout with nothing to read can only output zero, and says so
        with pytest.warns(UserWarning, match="every feature row is zero"):
            weights, residuals = _least_squares(np.zeros((3, 20), dtype=complex), ridge)
        t = np.ones((1, 20), dtype=complex)
        assert not np.any(weights(t))
        np.testing.assert_allclose(residuals(t), [20.0])


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

    def test_constant(self):
        # a nonzero constant, negligible tail stripped, has no roots; zero has no defined ones
        assert polynomial_roots([3.0]).size == 0
        assert polynomial_roots([3.0, 1e-20]).size == 0
        with pytest.raises(ValueError, match="zero polynomial"):
            polynomial_roots([0.0])

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


def test_polynomial_roots_validation():
    message = "coeffs must be a finite, non-empty 1-D sequence"
    with pytest.raises(ValueError, match=message):
        polynomial_roots([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=message):
        polynomial_roots([np.nan])
    with pytest.raises(ValueError, match=message):
        polynomial_roots([])
