import io
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from rclab import channel
from rclab.channel import PowerDelayProfile, load_pdp
from rclab.filters import Phase
from rclab.weight_config import (
    all_pole_fit,
    assemble_mimo,
    collect_equalizer_irs,
    collect_inverse_responses,
    configure_frequency_domain_report,
    configure_time_domain_report,
    diagnostics_csv,
    empirical_covariance,
    mp_compensate,
    pca_basis,
    pole_bank,
    reduce_order,
    _denominator_to_sections,
)
from rclab.reservoir import ReservoirSpec
from memory_guard import traced_peak
from reservoir_reference import alone_features, train_readout


def random_mp_column(rng, n=24):
    """Strictly minimum-phase impulse-response-like vector."""
    roots = 0.6 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    taps = np.atleast_1d(np.poly(roots))
    col = np.zeros(n, dtype=complex)
    col[: taps.size] = taps
    return col


class TestCollect:
    def test_single_tap_profile(self):
        pdp = PowerDelayProfile.from_linear([0], [1.0])
        vectors = collect_equalizer_irs(pdp, 8, 20, np.random.default_rng(0))
        assert vectors.shape == (20, 8)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), 1.0, atol=1e-12)
        np.testing.assert_allclose(vectors[:, 1:], 0.0, atol=1e-12)

    def test_responses_invert_channels(self):
        pdp = load_pdp("cdl_d")
        rng = np.random.default_rng(1)
        vectors = collect_equalizer_irs(pdp, 64, 5, rng, require=Phase.STRICTLY_MP)
        # redo the draws to recover the channels this dataset inverted
        from rclab.channel import draw_channels

        rng2 = np.random.default_rng(1)
        for g in vectors:
            h = draw_channels(pdp, rng2, 1, Phase.STRICTLY_MP).taps[0]
            unit = np.zeros(64)
            unit[0] = 1.0
            np.testing.assert_allclose(np.convolve(h, g)[:64], unit, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 40])
    def test_shorter_factors_match_lfilter(self, n):
        # most mixed_3tap draws have a 1- or 2-tap minimum-phase factor; each
        # row must be the bits of its own unpadded factor's recursion
        pdp = load_pdp("mixed_3tap")
        vectors = collect_equalizer_irs(pdp, n, 60, np.random.default_rng(5))
        draws = channel.draw_channels(pdp, np.random.default_rng(5), 60)
        assert set(draws.mp_lengths.tolist()) == {1, 2, 3}
        impulse = np.zeros(n, dtype=complex)
        impulse[0] = 1.0
        for g, mp, length in zip(vectors, draws.mp_taps, draws.mp_lengths):
            want = scipy.signal.lfilter(np.ones(1, dtype=complex), mp[:length], impulse)
            assert g.tobytes() == want.tobytes()

    def test_peak_memory_is_near_the_result(self):
        # 1000 draws at n = 128: the (1000, 128) complex result is 1.95 MiB.
        # 6 MiB holds it, the draws and one more result-sized array, but not
        # the recursion's input terms and float output for every step at once
        pdp = load_pdp("cdl_d")
        peak = traced_peak(collect_equalizer_irs, pdp, 128, 1000, np.random.default_rng(6))
        assert peak / 2**20 <= 6.0

    def test_each_draw_factorized_once(self, monkeypatch):
        # each candidate is classified once, and only accepted draws that are
        # not strictly MP are factored
        drawn, classified, factored = [], [], []
        draw, classify, factor = (
            channel._draw_taps, channel.classify_rows, channel.minimum_phase_factor
        )
        monkeypatch.setattr(
            channel, "_draw_taps", lambda pdp, rng, k: drawn.append(k) or draw(pdp, rng, k)
        )
        monkeypatch.setattr(
            channel, "classify_rows", lambda rows: classified.append(len(rows)) or classify(rows)
        )
        monkeypatch.setattr(
            channel, "minimum_phase_factor", lambda *a: factored.append(1) or factor(*a)
        )
        pdp = load_pdp("mixed_3tap")
        collect_equalizer_irs(pdp, 8, 30, np.random.default_rng(3))
        collect_inverse_responses(pdp, 30, np.random.default_rng(4))
        assert sum(drawn) >= 60 and classified == drawn
        assert 0 < len(factored) <= 60

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            collect_equalizer_irs(load_pdp("cdl_d"), 4, 3, np.random.default_rng(0))


class TestPcaBasis:
    def test_identical_vectors(self):
        g = np.array([1.0, 0.5, 0.25, 0.0], dtype=complex)
        f = pca_basis(np.tile(g, (10, 1)), 1)
        np.testing.assert_allclose(np.abs(f[:, 0]), np.abs(g) / np.linalg.norm(g), atol=1e-12)
        resid = g - f @ (f.conj().T @ g)
        assert np.linalg.norm(resid) <= 1e-10

    def test_diagonal_covariance(self):
        # rows hit one coordinate each, with distinct powers
        vectors = np.zeros((30, 4), dtype=complex)
        amps = [3.0, 2.0, 1.0, 0.5]
        for i in range(30):
            vectors[i, i % 4] = amps[i % 4]
        f = pca_basis(vectors, 2)
        np.testing.assert_allclose(np.abs(f), np.eye(4)[:, :2], atol=1e-12)

    def test_mean_residual_equals_tail_eigenvalues(self):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((40, 12)) + 1j * rng.standard_normal((40, 12))
        lam = np.linalg.eigh(empirical_covariance(vectors))[0][::-1]
        for m in (1, 3, 12):
            f = pca_basis(vectors, m)
            resid = vectors.T - f @ (f.conj().T @ vectors.T)
            mean_resid = np.mean(np.sum(np.abs(resid) ** 2, axis=0))
            assert abs(mean_resid - lam[m:].sum()) <= 1e-10 * max(lam.sum(), 1.0)

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            pca_basis(np.ones((3, 4), dtype=complex), 5)

    def test_fewer_observations_than_columns_warn(self):
        vectors = np.random.default_rng(3).standard_normal((2, 6)) + 0j
        with pytest.warns(UserWarning, match="3 PCA columns from only 2 observations"):
            pca_basis(vectors, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pca_basis(vectors, 2)

    # every consumer of the statistics passes through empirical_covariance
    @pytest.mark.parametrize(
        "vectors", [np.zeros((0, 4), dtype=complex), np.ones(4, dtype=complex)], ids=["empty", "1d"]
    )
    def test_statistics_shape_rejected(self, vectors):
        with pytest.raises(ValueError, match="non-empty"):
            empirical_covariance(vectors)
        with pytest.raises(ValueError, match="non-empty"):
            pca_basis(vectors, 1)


class TestStatisticsMemory:
    """One statistics array and one covariance block at a time."""

    def test_covariance_holds_its_result_and_one_block(self):
        g = np.random.default_rng(7).standard_normal((1000, 256)) + 0j
        result = 256 * 256 * 16
        # a block's (32, 1000) conjugate and (256, 32) product, and a little bookkeeping
        block = 32 * (1000 + 256) * 16
        assert traced_peak(empirical_covariance, g) <= result + block + 2**14

    def test_fd_configure_peak(self):
        # the statistics are (1000, 256) complex, 3.9 MiB: the reciprocal is
        # taken in place and the array is freed before the eigh
        peak = traced_peak(configure_frequency_domain_report, load_pdp("cdl_d"), 128, 1000,
                           m=5, l_rp=7, n_window=5, rng=np.random.default_rng(1),
                           activation="tanh")
        assert peak / 2**20 <= 6.0


class TestMpCompensate:
    def test_worked_example(self):
        f = np.array([[0.5], [0.4], [0.3]], dtype=complex)
        p = mp_compensate(f)
        np.testing.assert_allclose(p[:, 0], [0.735, 0.4, 0.3])
        np.testing.assert_allclose((f - p)[:, 0], [0.5 - 0.735, 0, 0])
        roots = np.roots(p[:, 0])
        assert np.all(np.abs(roots) < 1)

    def test_floor_for_concentrated_column(self):
        f = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        np.testing.assert_allclose(mp_compensate(f)[0], [1e-3])

    def test_decomposition_exact_bitwise(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        p = mp_compensate(f)
        # F = P + B with B nonzero only in row 0: every other row keeps f's bits
        assert p[1:].tobytes() == f[1:].tobytes()
        assert p.shape == f.shape and not np.any(p[0].imag)

    def test_dominance_strict(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        p = mp_compensate(f)
        tails = np.sum(np.abs(f[1:, :]), axis=0)
        assert np.all(p[0, :].real > tails)

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            mp_compensate(np.zeros((4, 1), dtype=complex))


class TestReduceOrder:
    def test_geometric_exact(self):
        p = (-0.5) ** np.arange(16)
        q, err = reduce_order(p[:, None], 2)
        np.testing.assert_allclose(q[0], [1, 0.5], atol=1e-12)
        assert err[0] <= 1e-10

    def test_full_order_exact(self):
        rng = np.random.default_rng(5)
        p = random_mp_column(rng, 12)
        q, err = reduce_order(p[:, None], 12)
        assert err[0] <= 1e-9

    def test_error_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = mp_compensate(
                (rng.standard_normal((24, 1)) + 1j * rng.standard_normal((24, 1))) / 5
            )
            errs = [reduce_order(p, lf)[1][0] for lf in (2, 4, 8, 16)]
            assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(3))


    def test_columns_match_single_calls(self):
        rng = np.random.default_rng(8)
        p = mp_compensate(
            (rng.standard_normal((24, 5)) + 1j * rng.standard_normal((24, 5))) / 5
        )
        for l_f in (1, 3, 24):
            q, errs = reduce_order(p, l_f)
            for col in range(5):
                q_col, err = reduce_order(p[:, [col]], l_f)
                assert np.array_equal(q[col], q_col[0]) and errs[col] == err[0]


def sections(p, l_f):
    """``(poles, weights, diagnostics)`` of the core that ``pole_bank`` builds on the lifted columns."""
    report = pole_bank(*reduce_order(p, l_f), p[0].real, l_f, 0, "linear")
    return report.spec.w_res, report.input_weights, report.diagnostics


class TestBasisToPoles:
    def test_geometric_column_padded(self):
        # the geometric column is strictly minimum-phase as it stands: pass it as p
        p = np.asarray((-0.5) ** np.arange(16), dtype=complex)[:, None]
        poles, weights, diags = sections(p, 2)
        order = np.argsort(np.abs(poles))
        np.testing.assert_allclose(poles[order], [0, -0.5], atol=1e-9)
        np.testing.assert_allclose(weights[order], [0, 1], atol=1e-9)
        assert diags[0].n_reflected_poles == 0

    def test_residue_oracle(self):
        poles, weights, n_ref = _denominator_to_sections(np.array([1, -0.75, 0.125], complex), 2)
        order = np.argsort(poles.real)
        np.testing.assert_allclose(poles[order], [0.25, 0.5], atol=1e-12)
        np.testing.assert_allclose(weights[order], [-1.0, 2.0], atol=1e-12)
        assert n_ref == 0

    def test_recombination_matches_reduced_filter(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            col = random_mp_column(rng)
            p = mp_compensate(col[:, None])
            q = reduce_order(p, 4)[0][0]
            poles, weights, diags = sections(p, 4)
            if diags[0].n_reflected_poles:
                continue
            monic = q / q[0]
            monic[0] = 1.0
            impulse = np.zeros(64)
            impulse[0] = 1.0
            direct = scipy.signal.lfilter([1 / q[0]], monic, impulse)
            recombined = np.zeros(64, dtype=complex)
            steps = np.arange(64)
            for p, c in zip(poles, weights):
                recombined += c * p**steps
            assert np.max(np.abs(recombined - direct)) <= 1e-6

    def test_neuron_count(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
        poles, weights, diags = sections(mp_compensate(f / np.linalg.norm(f, axis=0)), 7)
        assert poles.size == weights.size == 35
        assert len(diags) == 5


class TestConfigureTimeDomain:
    def test_reference_scale_shape(self):
        pdp = load_pdp("cdl_d")
        spec = configure_time_domain_report(pdp, 64, 100, 5, 7, 5, np.random.default_rng(9), "tanh").spec
        assert spec.n_neurons == 35
        assert spec.n_window == 5
        assert spec.feature_dim == 40
        assert spec.is_diagonal and spec.w_res.shape == (35,)
        assert np.max(np.abs(spec.w_res)) < 1.0

    def test_determinism(self):
        pdp = load_pdp("cdl_d")
        a = configure_time_domain_report(pdp, 48, 60, 3, 4, 2, np.random.default_rng(10), "tanh").spec
        b = configure_time_domain_report(pdp, 48, 60, 3, 4, 2, np.random.default_rng(10), "tanh").spec
        np.testing.assert_array_equal(a.w_res, b.w_res)
        np.testing.assert_array_equal(a.w_in, b.w_in)

    def test_distinct_statistics_give_distinct_poles(self):
        near_flat = PowerDelayProfile.from_linear([0, 1], [0.97, 0.03])
        dispersive = PowerDelayProfile.from_linear([0, 1, 2, 3], [0.4, 0.3, 0.2, 0.1])
        a = configure_time_domain_report(near_flat, 48, 80, 2, 3, 0, np.random.default_rng(11), "tanh").spec
        b = configure_time_domain_report(dispersive, 48, 80, 2, 3, 0, np.random.default_rng(11), "tanh").spec
        assert np.max(np.abs(np.sort(a.w_res) - np.sort(b.w_res))) > 1e-3

    def test_explicit_skip_when_no_window(self):
        pdp = load_pdp("flat")
        spec = configure_time_domain_report(pdp, 16, 20, 1, 2, 0, np.random.default_rng(12), "tanh").spec
        assert spec.n_window == 1 and spec.feature_dim == 3
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(alone_features(spec, x)[2], x[0])

    def test_exact_equalization_in_degenerate_case(self):
        # every draw is the same single-tap channel, so the configured bank
        # contains the exact inverse and a linear run recovers the input
        pdp = PowerDelayProfile.from_linear([0], [1.0], k_factor=1e12)
        spec = configure_time_domain_report(pdp, 16, 30, 1, 16, 0, np.random.default_rng(13),
                                            activation="linear").spec
        rng = np.random.default_rng(14)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        feats = alone_features(spec, x[None, :])
        with pytest.warns(UserWarning, match="readout fit is rank-deficient"):
            ro = train_readout(feats, x[None, :])
        assert np.linalg.norm(ro.w_out @ feats - x[None, :]) <= 1e-6


class TestFrequencyDomain:
    def test_single_pole_recovery(self):
        pdp = PowerDelayProfile.from_linear([0], [1.0], k_factor=1e12)
        # fixed channel [1, -0.6]: fake it through the fit directly
        omega = 2 * np.pi * np.arange(128) / 128
        values = 1.0 / (1.0 - 0.6 * np.exp(-1j * omega))
        c, q = all_pole_fit(values, 2)
        roots = np.roots(q)
        assert abs(roots[0] - 0.6) <= 1e-3

    def test_flat_channel_zero_poles(self):
        omega = np.ones(64, dtype=complex)
        c, q = all_pole_fit(omega, 3)
        assert np.max(np.abs(q[1:])) <= 1e-9
        np.testing.assert_allclose(c, 1.0, atol=1e-9)

    def test_reference_scale_shape(self):
        pdp = load_pdp("cdl_d")
        spec = configure_frequency_domain_report(pdp, 64, 100, 5, 7, 5, np.random.default_rng(15),
                                                 "tanh").spec
        assert spec.n_neurons == 35 and spec.w_res.shape == (35,)
        assert np.max(np.abs(spec.w_res)) < 1.0

    def test_pipeline_output_shape_and_stability(self):
        pdp = PowerDelayProfile.from_linear([0, 1], [1.0, 0.3025], k_factor=None)
        rng = np.random.default_rng(16)
        report = configure_frequency_domain_report(pdp, 32, 150, 2, 3, 0, rng, "tanh")
        assert report.spec.w_res.shape == (6,)
        assert np.all(np.abs(report.spec.w_res) < 1.0)
        assert len(report.diagnostics) == 2
        assert np.isnan(report.diagnostics[0].offset)  # no first-tap lift in this route

    def test_determinism(self):
        pdp = load_pdp("cdl_e")
        a = configure_frequency_domain_report(pdp, 48, 60, 2, 3, 1, np.random.default_rng(17), "tanh").spec
        b = configure_frequency_domain_report(pdp, 48, 60, 2, 3, 1, np.random.default_rng(17), "tanh").spec
        np.testing.assert_array_equal(a.w_res, b.w_res)
        np.testing.assert_array_equal(a.w_in, b.w_in)


@pytest.mark.parametrize("route", [configure_time_domain_report, configure_frequency_domain_report],
                         ids=["td", "fd"])
def test_no_window_configures_the_skip_tap(route):
    # the configured core's readout always sees z^0: n_window 0 and 1 build one core
    pdp = load_pdp("cdl_d")
    a, b = (route(pdp, 32, 40, 3, 4, w, np.random.default_rng(21), "tanh").spec for w in (0, 1))
    np.testing.assert_array_equal(a.w_in, b.w_in)
    np.testing.assert_array_equal(a.w_res, b.w_res)
    assert (a.n_window, a.feature_dim, a.activation) == (b.n_window, b.feature_dim, b.activation)


class TestAssembleMimo:
    def make_siso(self, n_neurons=9, n_window=5):
        rng = np.random.default_rng(18)
        poles = 0.5 * (rng.uniform(-1, 1, n_neurons) + 1j * rng.uniform(-1, 1, n_neurons))
        return_spec = np.ones(n_neurons, dtype=complex)
        return ReservoirSpec(
            w_in=return_spec[:, None], w_res=poles, activation="linear",
            n_window=n_window,
        )

    def test_shared_replication(self):
        siso = self.make_siso()
        mimo = assemble_mimo(siso, 2)
        assert mimo.n_neurons == 18 and mimo.d_in == 2
        np.testing.assert_array_equal(mimo.w_res, np.tile(siso.w_res, 2))
        np.testing.assert_array_equal(mimo.w_in[:9, 0], siso.w_in[:, 0])
        assert not np.any(mimo.w_in[:9, 1])

    def test_reference_mimo_counts(self):
        siso = self.make_siso(n_neurons=9)
        mimo = assemble_mimo(siso, 4)
        assert mimo.n_neurons == 36
        np.testing.assert_array_equal(mimo.w_res, np.tile(siso.w_res, 4))
        np.testing.assert_array_equal(mimo.w_in, scipy.linalg.block_diag(*[siso.w_in] * 4))
        assert (mimo.n_window, mimo.activation) == (siso.n_window, siso.activation)

    def test_multi_input_core_rejected(self):
        # so is a dense core: only a single-input pole vector is tiled
        siso = self.make_siso()
        two_inputs = ReservoirSpec(np.ones((9, 2), complex), siso.w_res, "linear", 0)
        dense = ReservoirSpec(siso.w_in, np.eye(9), "linear", 0)
        for core in (two_inputs, dense):
            with pytest.raises(ValueError, match="^the SISO core must be a pole vector with d_in = 1$"):
                assemble_mimo(core, 2)

    def test_factorizable_channel_exact_recovery(self):
        # H(z) = H0 * (1 - 0.5 z^-1); per-stream pole-0.5 neurons deconvolve
        # the scalar part exactly, so the trained output weights become H0^-1
        rng = np.random.default_rng(19)
        h0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        siso = ReservoirSpec(w_in=np.ones((1, 1), complex), w_res=np.array([0.5], complex),
                             activation="linear", n_window=0)
        mimo = assemble_mimo(siso, 2)
        t = 400
        x = rng.standard_normal((2, t)) + 1j * rng.standard_normal((2, t))
        # apply the factorizable channel
        filtered = np.stack([scipy.signal.lfilter([1, -0.5], [1], x[i]) for i in range(2)])
        y = h0 @ filtered
        feats = alone_features(mimo, y)
        ro = train_readout(feats, x)
        assert np.linalg.norm(ro.w_out @ feats - x) <= 1e-6
        g = np.linalg.inv(h0)
        np.testing.assert_allclose(ro.w_out[:, :2][:, [0, 1]], g, atol=1e-6)


def test_diagnostics_csv_format():
    pdp = load_pdp("cdl_d")
    report = configure_time_domain_report(pdp, 48, 50, 2, 3, 1, np.random.default_rng(20), "tanh")
    buf = io.StringIO()
    diagnostics_csv(report.diagnostics, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "m,b_m,reduce_order_error,n_reflected_poles"
    assert len(lines) == 3


def test_pole_stability_over_random_profiles():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n_taps = rng.integers(2, 6)
        delays = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 8), n_taps - 1, replace=False))])
        powers = rng.uniform(0.1, 1.0, n_taps)
        pdp = PowerDelayProfile.from_linear(delays, powers)
        report = configure_time_domain_report(pdp, 32, 30, 2, 3, 1, rng, "tanh")
        assert np.all(np.abs(report.spec.w_res) < 1.0)
