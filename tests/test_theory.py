import io
import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclab.channel import PowerDelayProfile, load_pdp
from rclab.theory import (
    MC_BLOCK_COLUMNS,
    ApproxErrorReport,
    _next_fast_len,
    _monte_carlo_terms,
    _shift_projection_energies,
    approx_error_report,
    lemma1_error,
    p2_objective_numerical,
    reproduce_fig5,
    shift_accumulated_covariance,
    theorem1_error,
    toeplitz_frobenius_sq,
)
from rclab.weight_config import collect_equalizer_irs, empirical_covariance, pca_basis

from memory_guard import traced_peak


# ---------------------------------------------------------------------------
# brute-force oracles (dense matrices, small n only)
# ---------------------------------------------------------------------------

def dense_toeplitz(g):
    g = np.asarray(g, dtype=complex)
    n = g.size
    t = np.zeros((n, n), dtype=complex)
    for i in range(n):
        t[i:, i] = g[: n - i]
    return t


def shift_matrix(n, i):
    l = np.zeros((n, n))
    if i < n:
        l[i:, : n - i] = np.eye(n - i)
    return l


def p2_brute(f, vectors):
    total = 0.0
    for g in vectors:
        t = dense_toeplitz(g)
        proj = f @ (f.conj().T @ t)
        total += np.linalg.norm(proj - t) ** 2
    return total / len(vectors)


def theorem_brute(k, f, n):
    total = 0.0
    for i in range(n):
        li = shift_matrix(n, i)
        total += np.trace(k @ li.T @ li).real
        total -= np.trace(k @ li.T @ f @ f.conj().T @ li).real
    return total


def p_objective_numerical(poles, channels, n):
    """Unit-sample recovery error of the pole bank across channel draws.

    For each channel ``h``, builds the columns ``h * psi_k`` truncated to ``n``
    samples (``psi_k`` the one-pole impulse responses), projects the unit
    sample onto their span, and averages the squared residual.
    """
    p = np.asarray(poles, dtype=np.complex128).ravel()
    xv = np.zeros(n, dtype=np.complex128)
    xv[0] = 1.0
    total = 0.0
    for h in channels:
        xh = scipy.signal.lfilter(np.asarray(h, dtype=np.complex128).ravel(), [1.0 + 0.0j], xv)
        a = np.empty((n, p.size), dtype=np.complex128)
        for ki, pk in enumerate(p):
            a[:, ki] = scipy.signal.lfilter([1.0 + 0.0j], [1.0, -pk], xh)
        coef = np.linalg.lstsq(a, xv, rcond=None)[0]
        total += float(np.linalg.norm(a @ coef - xv) ** 2)
    return total / len(channels)


def shift_projection_energies_one(f, g):
    """Per-realization oracle of ``_shift_projection_energies``: the same FFT
    correlation for one ``g``, recomputing the basis spectrum on every call."""
    n, m = f.shape
    nfft = scipy.fft.next_fast_len(2 * n - 1)
    gf = scipy.fft.fft(g, nfft)
    ff = scipy.fft.fft(np.conj(f[::-1, :]), nfft, axis=0)
    conv = scipy.fft.ifft(ff * gf[:, None], axis=0)
    return np.sum(np.abs(conv[:n, :]) ** 2, axis=0)


def shift_projection_energies_dense(f, vectors):
    """``E[r, m] = sum_i |f_m^H L_i g_r|^2`` from dense shift matrices."""
    n = f.shape[0]
    return np.array([
        sum(np.abs(f.conj().T @ (shift_matrix(n, i) @ g)) ** 2 for i in range(n))
        for g in vectors
    ])


def random_dataset(rng, n_obs, n):
    vectors = rng.standard_normal((n_obs, n)) + 1j * rng.standard_normal((n_obs, n))
    # decaying envelope so the vectors look like equalizer responses
    vectors *= np.exp(-0.2 * np.arange(n))[None, :]
    return vectors


class TestToeplitzFrobenius:
    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        for n in (1, 5, 17):
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert abs(toeplitz_frobenius_sq(g) - np.linalg.norm(dense_toeplitz(g)) ** 2) <= 1e-9


class TestP2Objective:
    def test_full_basis_is_zero(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 8, 6)
        f = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        assert p2_objective_numerical(f, ds) <= 1e-10

    def test_orthogonal_shifts(self):
        # g rides on the last coordinate; only its zero shift survives, and
        # a basis on the first coordinate never sees it
        n = 4
        g = np.zeros(n, dtype=complex)
        g[3] = 1.0
        f = np.zeros((n, 1), dtype=complex)
        f[0, 0] = 1.0
        val = p2_objective_numerical(f, g[None, :])
        assert abs(val - sum(np.linalg.norm(shift_matrix(n, i) @ g) ** 2 for i in range(n))) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for n, m in ((5, 2), (9, 4), (16, 1)):
            ds = random_dataset(rng, 7, n)
            f = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0][:, :m]
            got = p2_objective_numerical(f, ds)
            want = p2_brute(f, ds)
            assert abs(got - want) <= 1e-9 * max(want, 1.0)

    def test_dimension_mismatch(self):
        ds = random_dataset(np.random.default_rng(3), 4, 6)
        with pytest.raises(ValueError):
            p2_objective_numerical(np.eye(5)[:, :2], ds)

    def test_empty_dataset(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"non-empty \(n_obs, n\) array, got shape \(0, 6\)"):
                p2_objective_numerical(np.eye(6)[:, :2], np.zeros((0, 6), dtype=complex))


class TestShiftProjectionEnergies:
    # n = 7, 9, 10 and 12 pad the correlation: next_fast_len(2n - 1) > 2n - 1
    @given(
        n=st.integers(1, 13),
        m=st.integers(1, 13),
        n_obs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=7, m=3, n_obs=4, seed=0)
    @example(n=12, m=12, n_obs=1, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_realization_and_dense(self, n, m, n_obs, seed):
        m = min(m, n)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f = np.linalg.qr(a)[0][:, :m]
        vectors = random_dataset(rng, n_obs, n)
        got = _shift_projection_energies(f, vectors)
        assert np.array_equal(got, np.array([shift_projection_energies_one(f, g) for g in vectors]))
        np.testing.assert_allclose(got, shift_projection_energies_dense(f, vectors), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("extra", [-1, 0, 1, MC_BLOCK_COLUMNS + 1], ids=["under", "equal", "over", "twice"])
    def test_blocks_of_columns_change_no_bit(self, extra):
        # the basis runs in blocks of MC_BLOCK_COLUMNS columns; one column over
        # a multiple of it leaves a lone last column, which numpy would sum
        # pairwise while the whole basis at once sums every column row by row
        m = MC_BLOCK_COLUMNS + extra
        n = m + 5
        rng = np.random.default_rng(m)
        f = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0][:, :m]
        vectors = random_dataset(rng, 3, n)
        got = _shift_projection_energies(f, vectors)
        assert np.array_equal(got, np.array([shift_projection_energies_one(f, g) for g in vectors]))

    def test_peak_memory_is_bounded_by_the_block(self):
        # N = m = n_obs = 300: a spectrum and a product buffer of the whole
        # basis are 2.7 MiB each. 4.5 MiB holds the 0.7 MiB (n_obs, m)
        # energies and one block's buffers, but not those two
        rng = np.random.default_rng(5)
        f = np.linalg.qr(rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300)))[0]
        vectors = random_dataset(rng, 300, 300)
        assert traced_peak(_monte_carlo_terms, f, vectors) / 2**20 <= 4.5


def test_next_fast_len_matches_scipy():
    assert [_next_fast_len(t) for t in range(1, 5001)] == [
        scipy.fft.next_fast_len(t) for t in range(1, 5001)
    ]


class TestShiftAccumulatedCovariance:
    def test_matches_definition(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 11):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k = a @ a.conj().T
            want = np.zeros_like(k)
            for i in range(n):
                li = shift_matrix(n, i)
                want += li @ k @ li.T
            np.testing.assert_allclose(shift_accumulated_covariance(k), want, atol=1e-10)


class TestTheorem1:
    def test_full_basis_zero(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        k = a @ a.conj().T
        f = np.linalg.qr(a)[0]
        assert abs(theorem1_error(k, f)) <= 1e-9 * np.linalg.norm(k)

    def test_identity_covariance_hand_value(self):
        # N=3, M=1, F=e0: shifts of e0 leave the basis after one step, so
        # the trace formula gives (3-1) + (2-0) + (1-0) = 5 (checked against
        # the dense oracle)
        k = np.eye(3, dtype=complex)
        f = np.zeros((3, 1), dtype=complex)
        f[0, 0] = 1.0
        val = theorem1_error(k, f)
        assert abs(val - theorem_brute(k, f, 3)) <= 1e-12
        assert abs(val - 5.0) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for n, m in ((4, 1), (8, 3), (12, 5)):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k = a @ a.conj().T
            f = np.linalg.qr(a.conj().T @ a)[0][:, :m]
            got = theorem1_error(k, f)
            want = theorem_brute(k, f, n)
            assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)

    def test_trace_identity_with_empirical_covariance(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 30, 14)
        f = pca_basis(ds, 4)
        num = p2_objective_numerical(f, ds)
        theo = theorem1_error(empirical_covariance(ds), f)
        assert abs(num - theo) <= 1e-10 * max(num, 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            theorem1_error(np.eye(3), np.eye(4)[:, :2])


class TestLemma1:
    def test_examples(self):
        assert lemma1_error([4.0, 1.0], 1) == 1.0
        assert lemma1_error([4.0, 1.0], 2) == 0.0

    def test_monte_carlo_identity(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 60, 10)
        lam = np.linalg.eigh(empirical_covariance(ds))[0][::-1]
        for m in (1, 4, 10):
            f = pca_basis(ds, m)
            resid = ds.T - f @ (f.conj().T @ ds.T)
            mean_resid = float(np.mean(np.sum(np.abs(resid) ** 2, axis=0)))
            assert abs(mean_resid - lemma1_error(lam, m)) <= 1e-10 * max(lam.sum(), 1.0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            lemma1_error([1.0], 2)


class TestPObjective:
    def test_full_span_zero(self):
        rng = np.random.default_rng(9)
        n = 8
        poles = 0.9 * np.exp(2j * np.pi * np.arange(n) / n)
        channels = [rng.standard_normal(3) + 1j * rng.standard_normal(3) + np.array([2, 0, 0])
                    for _ in range(5)]
        assert p_objective_numerical(poles, channels, n) <= 1e-9

    def test_exact_pole_in_bank(self):
        assert p_objective_numerical([0.5], [np.array([1.0, -0.5])], 16) <= 1e-9

    def test_configured_beats_random(self):
        pdp = load_pdp("cdl_d")
        from rclab.weight_config import configure_time_domain_report

        rng = np.random.default_rng(10)
        report = configure_time_domain_report(pdp, 48, 300, 4, 5, 0, rng, activation="linear")
        channels = []
        from rclab.channel import draw_channels
        from rclab.filters import Phase

        rng2 = np.random.default_rng(11)
        for _ in range(30):
            h = draw_channels(pdp, rng2, 1, Phase.STRICTLY_MP).taps[0]
            channels.append(h)
        configured = p_objective_numerical(report.spec.w_res, channels, 48)
        rng3 = np.random.default_rng(12)
        random_vals = []
        for _ in range(10):
            rand_poles = 0.9 * (rng3.uniform(-1, 1, 20) + 1j * rng3.uniform(-1, 1, 20))
            rand_poles = rand_poles[np.abs(rand_poles) < 1][: report.spec.n_neurons]
            random_vals.append(p_objective_numerical(rand_poles, channels, 48))
        assert configured <= np.mean(random_vals)

    def test_chain_ordering(self):
        # decomposing the PCA basis at full order (plus the skip pole) spans
        # the basis, so the recovery error cannot exceed the projection bound
        rng = np.random.default_rng(13)
        pdp = PowerDelayProfile.from_linear([0, 1], [0.9, 0.1])
        n = 12
        ds = collect_equalizer_irs(pdp, n, 40, rng)
        f = pca_basis(ds, 2)
        from rclab.weight_config import mp_compensate, pole_bank, reduce_order

        p = mp_compensate(f)
        report = pole_bank(*reduce_order(p, n), p[0].real, n, 0, "linear")
        poles, diags = report.spec.w_res, report.diagnostics
        assert all(d.n_reflected_poles == 0 for d in diags)
        poles = np.concatenate([poles, [0.0]])  # skip tap carries the offsets
        channels = []
        from rclab.channel import draw_channels
        from rclab.filters import Phase

        rng2 = np.random.default_rng(14)
        for _ in range(20):
            h = draw_channels(pdp, rng2, 1, Phase.STRICTLY_MP).taps[0]
            channels.append(h)
        p_val = p_objective_numerical(poles, channels, n)
        bound = 0.0
        for h in channels:
            hpad = np.zeros(n, dtype=complex)
            hpad[: h.size] = h
            g = np.zeros(n, dtype=complex)
            g[0] = 1.0
            g = scipy.signal.lfilter([1.0 + 0j], h, g)
            t = dense_toeplitz(g)
            proj = f @ (f.conj().T @ t)
            bound += toeplitz_frobenius_sq(hpad) * np.linalg.norm(proj - t) ** 2
        bound /= len(channels)
        assert p_val <= bound + 1e-9


class TestReport:
    def test_invariants_and_csv(self):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, 25, 10)
        report = approx_error_report(ds, [1, 2, 5, 10])
        assert report.max_gap() <= 1e-10
        curves = np.asarray(report.numerical_normalized)
        assert np.all(np.diff(curves) <= 1e-12)
        assert curves[-1] <= 1e-8
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "M,numerical_normalized,theoretical_normalized"
        assert len(lines) == 5

    def test_increasing_curve_rejected(self):
        with pytest.raises(ValueError):
            ApproxErrorReport(
                m_values=(1, 2),
                numerical_normalized=(0.1, 0.2),
                theoretical_normalized=(0.1, 0.05),
            )

    def test_reproduce_fig5_desk_scale(self):
        pdp = load_pdp("cdl_d")
        report = reproduce_fig5(pdp, 64, 120, [1, 4, 16, 64], seed=7)
        assert report.max_gap() <= 1e-8
        assert report.numerical_normalized[-1] <= 1e-8
        assert report.theoretical_normalized[0] > report.theoretical_normalized[-1]

    def test_m_values_validated(self):
        rng = np.random.default_rng(16)
        ds = random_dataset(rng, 5, 6)
        with pytest.raises(ValueError):
            approx_error_report(ds, [0, 3])

    @pytest.mark.parametrize(
        "vectors", [np.zeros((0, 6), dtype=complex), np.ones(6, dtype=complex)], ids=["empty", "1d"]
    )
    def test_statistics_shape_rejected(self, vectors):
        with pytest.raises(ValueError, match="non-empty"):
            approx_error_report(vectors, [1])
