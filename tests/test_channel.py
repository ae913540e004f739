import re
from importlib import resources

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from rclab.channel import (
    PowerDelayProfile,
    _draw_taps,
    add_awgn,
    apply_channel,
    draw_channels,
    load_pdp,
    sample_parametric_mimo,
    steering_vectors,
)
from rclab.filters import RING_TOL, Phase, classify_rows, minimum_phase_factor

from channel_reference import (
    UnitCircleRootError,
    factorize_by_phase,
    normalize_agc,
    reference_draws,
    reference_taps,
)


class TestPowerDelayProfile:
    def test_from_linear_merges_and_normalizes(self):
        pdp = PowerDelayProfile.from_linear([0, 1, 1], [1.0, 0.5, 0.5])
        np.testing.assert_array_equal(pdp.delays, [0, 1])
        np.testing.assert_allclose(pdp.powers, [0.5, 0.5])
        assert pdp.length == 2

    def test_file_parsing(self, tmp_path):
        p = tmp_path / "toy.pdp"
        p.write_text(
            "# comment line\n"
            "k_factor_db 10.0\n"
            "0 0.0   # strongest tap\n"
            "2 -3.0\n"
            "2 -3.0\n"
        )
        pdp = PowerDelayProfile.from_file(p)
        np.testing.assert_array_equal(pdp.delays, [0, 2])
        assert abs(pdp.powers.sum() - 1.0) < 1e-12
        assert abs(pdp.k_factor - 10.0) < 1e-9
        # two merged -3 dB taps hold the same power as the 0 dB tap
        np.testing.assert_allclose(pdp.powers[1] / pdp.powers[0], 10 ** (-0.3) * 2, rtol=1e-12)

    def test_first_delay_must_be_zero(self):
        with pytest.raises(ValueError):
            PowerDelayProfile.from_linear([1, 2], [0.5, 0.5])

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.pdp"
        p.write_text("0 0.0 extra\n")
        with pytest.raises(ValueError):
            PowerDelayProfile.from_file(p)

    def test_packaged_profiles_load(self):
        for name in ("cdl_d", "cdl_e", "flat", "mixed_3tap"):
            pdp = load_pdp(name)
            assert pdp.label == name
            assert abs(pdp.powers.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("name", ["cdl_d", "cdl_e", "flat", "mixed_3tap"])
    def test_packaged_profile_matches_its_text(self, name):
        # every packaged delay is written as an integer, so the strict
        # delay check leaves each profile as the plain parse builds it
        k_factor, delays, powers_db = None, [], []
        for raw in (resources.files("rclab") / "data" / f"{name}.pdp").read_text().splitlines():
            parts = raw.split("#", 1)[0].split()
            if parts and parts[0] == "k_factor_db":
                k_factor = 10.0 ** (float(parts[1]) / 10.0)
            elif parts:
                delays.append(int(parts[0]))
                powers_db.append(float(parts[1]))
        want = PowerDelayProfile.from_linear(delays, 10.0 ** (np.array(powers_db) / 10.0), k_factor)
        got = load_pdp(name)
        assert got.delays.tobytes() == want.delays.tobytes()
        assert got.powers.tobytes() == want.powers.tobytes()
        assert got.k_factor == want.k_factor

    def test_non_finite_power_rejected(self, tmp_path):
        p = tmp_path / "nan.pdp"
        p.write_text("0 0\n1 nan\n")
        with pytest.raises(ValueError, match="tap powers must be finite"):
            PowerDelayProfile.from_file(p)
        with pytest.raises(ValueError, match="tap powers must be finite"):
            PowerDelayProfile(delays=[0, 1], powers=[0.5, np.inf])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_k_factor_rejected(self, tmp_path, value):
        p = tmp_path / "k.pdp"
        p.write_text(f"k_factor_db {value}\n0 0\n")
        with pytest.raises(ValueError, match="k_factor must be finite"):
            PowerDelayProfile.from_file(p)

    def test_fractional_delay_rejected(self, tmp_path):
        p = tmp_path / "frac.pdp"
        p.write_text("0 0\n2.7 -3\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: delay 2.7 is not a whole number")):
            PowerDelayProfile.from_file(p)
        p.write_text("0 0\n2.0 -3\n")
        np.testing.assert_array_equal(PowerDelayProfile.from_file(p).delays, [0, 2])

    def test_load_missing(self):
        with pytest.raises(FileNotFoundError):
            load_pdp("no_such_profile")


class TestNormalizeAgc:
    def test_scaling(self):
        np.testing.assert_allclose(normalize_agc([3, 4j]), [0.6, 0.8j])

    def test_idempotent_on_unit_vector(self):
        v = np.array([0.6, 0.8j])
        np.testing.assert_allclose(normalize_agc(v), v)

    def test_scalar(self):
        np.testing.assert_allclose(normalize_agc([2.0]), [1.0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_agc([0.0, 0.0])


class TestSampleTdl:
    def test_pure_los_single_tap(self):
        pdp = PowerDelayProfile.from_linear([0], [1.0], k_factor=1e12)
        h = _draw_taps(pdp, np.random.default_rng(0), 1)[0]
        np.testing.assert_allclose(h, [1.0], atol=1e-5)

    def test_deterministic_and_normalized(self):
        pdp = PowerDelayProfile.from_linear([0, 1], [0.5, 0.5])
        h1 = _draw_taps(pdp, np.random.default_rng(42), 1)[0]
        h2 = _draw_taps(pdp, np.random.default_rng(42), 1)[0]
        np.testing.assert_array_equal(h1, h2)
        assert abs(np.linalg.norm(h1) - 1.0) < 1e-9

    def test_power_ratio_monte_carlo(self):
        pdp = PowerDelayProfile.from_linear([0, 1], [0.8, 0.2])
        h = _draw_taps(pdp, np.random.default_rng(123), 10_000)
        # the draws are their stream's PDP-weighted normals, AGC-normalized per row
        z = np.random.default_rng(123).standard_normal((10_000, 4))
        raw = np.sqrt(pdp.powers / 2.0) * (z[:, :2] + 1j * z[:, 2:])
        np.testing.assert_allclose(h, raw / np.linalg.norm(raw, axis=1)[:, None], rtol=1e-12)
        ratio = np.mean(np.abs(raw[:, 0]) ** 2) / np.mean(np.abs(raw[:, 1]) ** 2)
        assert abs(ratio - 4.0) < 0.2

    def test_delay_gaps_are_zero(self):
        pdp = PowerDelayProfile.from_linear([0, 3], [0.5, 0.5])
        h = _draw_taps(pdp, np.random.default_rng(1), 1)[0]
        assert h.size == 4
        np.testing.assert_array_equal(h[1:3], [0, 0])


class TestClassifyPhase:
    def test_examples(self):
        assert factorize_by_phase([1, -0.5]).classification is Phase.STRICTLY_MP
        assert factorize_by_phase([1, -2]).classification is Phase.STRICTLY_NMP
        assert factorize_by_phase([1, -2.5, 1]).classification is Phase.MIXED

    def test_draw_channel_honors_requirement(self):
        pdp = load_pdp("mixed_3tap")
        rng = np.random.default_rng(5)
        for _ in range(10):
            draws = draw_channels(pdp, rng, 1, Phase.STRICTLY_MP)
            h, phase = draws.taps[0], draws.phases[0]
            assert phase is Phase.STRICTLY_MP
            assert factorize_by_phase(h).classification is Phase.STRICTLY_MP

    def test_draw_channel_retry_exhaustion(self):
        # a single tap is always strictly MP, and so is every cdl_d draw: its
        # line-of-sight tap dominates
        for name in ("flat", "cdl_d"):
            with pytest.raises(ValueError, match=f"no acceptable realization within 100 draws of {name}"):
                draw_channels(load_pdp(name), np.random.default_rng(0), 1, Phase.STRICTLY_NMP)


PROFILES = ("cdl_d", "cdl_e", "mixed_3tap", "flat")


class TestDrawChannels:
    @given(
        name=st.sampled_from(PROFILES),
        require=st.sampled_from([None, Phase.STRICTLY_MP]),
        n=st.one_of(st.just(1), st.integers(300, 400)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_draw_loop(self, name, require, n, seed):
        pdp = load_pdp(name)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = draw_channels(pdp, rng, n, require)
        ref = reference_draws(pdp, ref_rng, n, require)
        assert draws.phases == tuple(r[2] for r in ref)
        assert draws.redraws.tolist() == [r[3] for r in ref]
        assert draws.mp_lengths.tolist() == [r[1].size for r in ref]
        for i, (h, mp, _, _) in enumerate(ref):
            assert draws.taps[i].tobytes() == h.tobytes()
            assert draws.mp_taps[i, : mp.size].tobytes() == mp.tobytes()
            assert not np.any(draws.mp_taps[i, mp.size :])
        # the generator ends where the per-draw loop leaves it
        assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()

    @pytest.mark.parametrize("name", PROFILES)
    def test_candidates_match_single_draws(self, name):
        pdp = load_pdp(name)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        taps = _draw_taps(pdp, rng, 500)
        assert taps.tobytes() == np.array([reference_taps(pdp, ref_rng) for _ in range(500)]).tobytes()
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("name", PROFILES)
    def test_certified_draws_are_strictly_mp(self, name):
        taps = _draw_taps(load_pdp(name), np.random.default_rng(2), 2000)
        phases, roots = classify_rows(taps)
        certified = [h for h, r in zip(taps, roots) if r is None]
        if name in ("cdl_d", "flat"):
            assert len(certified) >= 0.99 * len(taps)
        for h in certified:
            # no ring root, or factorize_by_phase would raise
            assert factorize_by_phase(h).classification is Phase.STRICTLY_MP

    @given(
        tail=st.lists(st.complex_numbers(max_magnitude=10.0), min_size=0, max_size=19),
        margin=st.floats(1e-9, 1e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_certificate_bound(self, tail, margin):
        # a first tap just above the bound: every root inside 1 - 2 RING_TOL
        tail = np.asarray(tail, dtype=np.complex128)
        if tail.size and not np.abs(tail[-1]) > 1e-6:
            tail[-1] = 1.0
        bound = np.abs(tail).sum() * (1.0 - 2.0 * RING_TOL) ** -tail.size
        h = np.concatenate([[max(bound, 1e-3) * (1.0 + margin)], tail])
        phases, roots = classify_rows(h[None])
        assert roots == [None] and phases == [Phase.STRICTLY_MP]
        assert factorize_by_phase(h).classification is Phase.STRICTLY_MP

    def test_negligible_last_tap(self):
        # a -320 dB last tap is dropped by the root finder, as one draw at a time
        pdp = PowerDelayProfile.from_linear([0, 1, 2], [1.0, 0.8, 1e-32])
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        draws = draw_channels(pdp, rng, 200)
        ref = reference_draws(pdp, ref_rng, 200)
        assert draws.phases == tuple(r[2] for r in ref)
        for i, (_, mp, _, _) in enumerate(ref):
            assert draws.mp_taps[i, : mp.size].tobytes() == mp.tobytes()

    def test_negligible_tail_leaves_a_constant(self):
        phases, roots = classify_rows([[1, 1e-20]])
        assert phases == [Phase.STRICTLY_MP] and roots[0].size == 0

    @given(
        n_rows=st.integers(1, 8),
        degree=st.integers(0, 12),
        on_ring=st.floats(0.0, 0.3),
        negligible_tail=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_classify_rows_matches_factorize_by_phase(
        self, n_rows, degree, on_ring, negligible_tail, seed
    ):
        # tap rows built from their roots: small, inside, outside and on the circle
        rng = np.random.default_rng(seed)
        mags = rng.uniform(0.0, 1.8, (n_rows, degree)) * rng.choice([0.1, 1.0], (n_rows, 1))
        mags[rng.uniform(size=mags.shape) < on_ring] = 1.0
        roots = mags * np.exp(2j * np.pi * rng.uniform(size=mags.shape))
        gains = rng.standard_normal((n_rows, 1)) + 1j * rng.standard_normal((n_rows, 1))
        taps = gains * np.array([np.atleast_1d(np.poly(r)) for r in roots])
        if negligible_tail and degree >= 1:
            taps[:, -1] *= 1e-20
        phases, found = classify_rows(taps)
        for h, phase, r in zip(taps, phases, found):
            try:
                fact = factorize_by_phase(h)
            except UnitCircleRootError:
                assert phase is None
                continue
            assert phase is fact.classification
            if r is not None:
                assert minimum_phase_factor(h[0], r).tobytes() == fact.mp_factor.tobytes()

    def test_needs_a_draw(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            draw_channels(load_pdp("flat"), np.random.default_rng(0), 0)


class TestSteeringVector:
    def test_broadside_all_ones(self):
        v = steering_vectors(5, 0.25, [np.pi / 2])[:, 0]
        np.testing.assert_allclose(v, np.ones(5), atol=1e-12)

    def test_endfire_alternating(self):
        v = steering_vectors(4, 0.5, [0.0])[:, 0]
        np.testing.assert_allclose(v, [1, -1, 1, -1], atol=1e-12)

    def test_sixty_degrees(self):
        v = steering_vectors(2, 0.5, [np.pi / 3])[:, 0]
        np.testing.assert_allclose(v, [1, 1j], atol=1e-12)

    def test_unit_modulus(self):
        v = steering_vectors(8, 0.7, [1.234])[:, 0]
        np.testing.assert_allclose(np.abs(v), 1.0)

    @given(
        n=st.integers(1, 8),
        spacing=st.sampled_from([0.5, 0.37]),
        angles=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=33),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_match_one_angle_at_a_time(self, n, spacing, angles):
        # the channel draws, and so the MIMO golden outputs, rest on these bits
        want = np.column_stack(
            [np.exp(2j * np.pi * np.arange(n) * spacing * np.cos(th)) for th in angles]
        )
        assert steering_vectors(n, spacing, angles).tobytes() == want.tobytes()


class TestParametricMimo:
    def test_degenerate_siso_reduces_to_tdl(self):
        # 1x1 with one path: the steering scalars are 1, so the taps are the
        # path's circular Gaussian gains, AGC-normalized like any realization
        pdp = PowerDelayProfile.from_linear([0, 1], [0.7, 0.3])
        taps = sample_parametric_mimo(pdp, 1, 1, 1, 60.0, 5.0, 0.5, np.random.default_rng(30))
        rng = np.random.default_rng(30)
        for _ in range(2):  # the arrival and departure angles come first
            rng.uniform(-np.deg2rad(60.0), np.deg2rad(60.0), 1)
            rng.laplace(0.0, np.deg2rad(5.0), 1)
        gains = np.sqrt(pdp.powers / 2.0) * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        np.testing.assert_allclose(taps[:, 0, 0], gains / np.linalg.norm(gains), atol=1e-12)
        assert abs(np.linalg.norm(taps) - 1.0) <= 1e-9

    def test_frobenius_normalization(self):
        pdp = load_pdp("cdl_d")
        taps = sample_parametric_mimo(pdp, 4, 4, 20, 60.0, 5.0, 0.5, np.random.default_rng(4))
        assert taps.shape == (pdp.length, 4, 4)
        assert abs(np.sum(np.abs(taps) ** 2) - 4.0) < 1e-9

    def test_shared_angles_give_rank_one_taps(self):
        pdp = PowerDelayProfile.from_linear([0, 1], [0.6, 0.4])
        # no sector and no offset: every path arrives and departs broadside
        taps = sample_parametric_mimo(pdp, 3, 3, 4, 0.0, 0.0, 0.5, np.random.default_rng(5))
        for tap in taps:
            s = np.linalg.svd(tap, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    def test_rank_warning(self):
        pdp = load_pdp("flat")
        with pytest.warns(UserWarning, match="rank deficient"):
            sample_parametric_mimo(pdp, 4, 4, 2, 60.0, 5.0, 0.5, np.random.default_rng(6))


class TestApplyChannel:
    def test_identity_no_noise(self):
        x = np.array([1 + 1j, 2, 3])
        y = apply_channel(np.array([1.0])[:, None, None], x[None])
        np.testing.assert_allclose(y, x[None])
        assert add_awgn(y, None, None) == 0.0 and add_awgn(y, np.inf, None) == 0.0
        np.testing.assert_array_equal(y, x[None])

    def test_pure_delay(self):
        (y,) = apply_channel(np.array([0, 1])[:, None, None], np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(y, [0, 1, 2])

    def test_empirical_snr(self):
        rng = np.random.default_rng(8)
        x = np.exp(2j * np.pi * rng.uniform(size=100_000))[None]
        h = np.array([1.0])[:, None, None]
        y_clean = apply_channel(h, x)
        y = apply_channel(h, x)
        nv = add_awgn(y, 10.0, np.random.default_rng(9))
        measured = 10 * np.log10(np.mean(np.abs(y_clean) ** 2) / np.mean(np.abs(y - y_clean) ** 2))
        assert abs(measured - 10.0) < 0.2
        assert abs(nv - 0.1) < 0.01

    @pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
    def test_awgn_rejects_bad_snr(self, snr_db):
        y = np.array([[1 + 2j, 3 - 1j]])
        with pytest.raises(ValueError, match=f"snr_db must be finite, inf or None, got {snr_db}"):
            add_awgn(y, snr_db, np.random.default_rng(0))
        np.testing.assert_array_equal(y, [[1 + 2j, 3 - 1j]])

    def test_mimo_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        pdp = PowerDelayProfile.from_linear([0, 1, 2], [0.5, 0.3, 0.2])
        taps = sample_parametric_mimo(pdp, 2, 3, 4, 60.0, 5.0, 0.5, rng)
        t = 20
        x = rng.standard_normal((2, t)) + 1j * rng.standard_normal((2, t))
        y = apply_channel(taps, x)
        expected = np.zeros((3, t), dtype=complex)
        for n in range(t):
            for ell in range(taps.shape[0]):
                if n - ell >= 0:
                    expected[:, n] += taps[ell] @ x[:, n - ell]
        np.testing.assert_allclose(y, expected, atol=1e-10)

    @given(
        n_taps=st.integers(1, 13),
        n_rx=st.integers(1, 3),
        n_tx=st.integers(1, 3),
        t=st.integers(1, 50),
        sparse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_lfilter_fir(self, n_taps, n_rx, n_tx, t, sparse, seed):
        # scipy's FIR filter is the oracle, to the bit, for SISO and MIMO
        rng = np.random.default_rng(seed)
        taps = rng.standard_normal((n_taps, n_rx, n_tx)) + 1j * rng.standard_normal(
            (n_taps, n_rx, n_tx)
        )
        if sparse:  # zero interior taps, as in the cdl_d profile
            taps[1:-1][rng.uniform(size=max(n_taps - 2, 0)) < 0.6] = 0.0
        x = rng.standard_normal((n_tx, t)) + 1j * rng.standard_normal((n_tx, t))
        (siso,) = apply_channel(taps[:, 0, 0][:, None, None], x[0][None])
        assert siso.tobytes() == scipy.signal.lfilter(taps[:, 0, 0], [1.0 + 0.0j], x[0]).tobytes()
        want = np.zeros((n_rx, t), dtype=complex)
        for r in range(n_rx):
            for c in range(n_tx):
                want[r] += scipy.signal.lfilter(taps[:, r, c], [1.0], x[c])
        assert apply_channel(taps, x).tobytes() == want.tobytes()

    def test_mimo_stream_count_checked(self):
        pdp = load_pdp("flat")
        taps = sample_parametric_mimo(pdp, 2, 2, 4, 60.0, 5.0, 0.5, np.random.default_rng(1))
        with pytest.raises(ValueError):
            apply_channel(taps, np.ones((3, 10)))
        with pytest.raises(ValueError, match="taps"):
            apply_channel(np.ones(3), np.ones((1, 10)))
