import warnings

import numpy as np
import pytest

from rclab import reservoir
from rclab.reservoir import (
    ReservoirSpec,
    block_states,
    dump_spec_text,
    random_reservoir,
    train_and_equalize,
)
from reservoir_reference import (
    alone_features,
    alone_states,
    assert_fit_matches_lstsq,
    equalized,
    train_readout,
)


def equalize(spec, y, x, d_max):
    """``train_and_equalize`` on the input ``y`` alone: ``(output after the prefix, readout)``."""
    [out], [[readout]] = equalized([spec], y[None], x, d_max)
    return out[0], readout


def learned_readout(spec, y, x, d_max):
    return equalize(spec, y, x, d_max)[1]


def diagonal_spec(poles, weights=None, activation="linear", n_window=0):
    poles = np.asarray(poles, dtype=complex)
    if weights is None:
        weights = np.ones_like(poles)
    return ReservoirSpec(
        w_in=np.asarray(weights, dtype=complex)[:, None],
        w_res=poles,
        activation=activation,
        n_window=n_window,
    )


class TestRunStates:
    def test_single_pole_impulse(self):
        spec = diagonal_spec([0.5])
        impulse = np.zeros((1, 5))
        impulse[0, 0] = 1.0
        np.testing.assert_allclose(alone_states(spec, impulse)[0], [1, 0.5, 0.25, 0.125, 0.0625])

    def test_zero_input_weights(self):
        spec = diagonal_spec([0.5, -0.3], weights=[0, 0])
        x = np.random.default_rng(0).standard_normal((1, 20))
        np.testing.assert_array_equal(alone_states(spec, x), np.zeros((2, 20)))

    def test_block_oracle_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = rng.integers(1, 8)
            poles = 0.9 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
            y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            spec = diagonal_spec(poles)
            iterative = alone_states(spec, y[None, :])
            closed_form = block_states(poles, y)
            np.testing.assert_allclose(iterative, closed_form, atol=1e-10)

    def test_dense_matches_manual_recursion(self):
        rng = np.random.default_rng(2)
        spec = random_reservoir(6, 0.5, 0.3, 2, 0, rng, activation="tanh")
        x = rng.standard_normal((2, 15)) + 1j * rng.standard_normal((2, 15))
        states = alone_states(spec, x)
        s = np.zeros(6, dtype=complex)
        for n in range(15):
            z = spec.w_res @ s + spec.w_in @ x[:, n]
            s = np.tanh(z.real) + 1j * np.tanh(z.imag)
            np.testing.assert_allclose(states[:, n], s, atol=1e-12)

    def test_input_dim_checked(self):
        spec = diagonal_spec([0.5])
        with pytest.raises(ValueError, match="d_in = 1"):
            next(train_and_equalize([spec], np.zeros((1, 2, 10)), np.zeros((1, 5)), d_max=0))


class TestBlockStates:
    def test_zero_pole_passthrough(self):
        y = np.arange(5.0) + 1j
        np.testing.assert_allclose(block_states([0.0], y)[0], y)

    def test_impulse_gives_geometric(self):
        y = np.zeros(4)
        y[0] = 1.0
        np.testing.assert_allclose(block_states([0.5j], y)[0], [1, 0.5j, -0.25, -0.125j])


class TestWesnFeatures:
    def test_vanilla_passthrough(self):
        spec = diagonal_spec([0.5], n_window=0)
        x = np.random.default_rng(3).standard_normal((1, 10))
        np.testing.assert_array_equal(alone_features(spec, x), alone_states(spec, x))

    def test_window_shift(self):
        spec = diagonal_spec([0.0], n_window=2)
        feats = alone_features(spec, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(feats[1], [1, 2, 3])
        np.testing.assert_allclose(feats[2], [0, 1, 2])

    def test_feature_count_reference_setting(self):
        spec = diagonal_spec(np.full(35, 0.1), weights=np.ones(35), n_window=5)
        assert spec.feature_dim == 35 + 5
        x = np.zeros((1, 7))
        assert alone_features(spec, x).shape == (40, 7)

    def test_explicit_skip(self):
        spec = ReservoirSpec(
            w_in=np.ones((2, 1), dtype=complex),
            w_res=np.array([0.1, 0.2], dtype=complex),
            n_window=1,  # the z^0 skip tap
        )
        x = np.array([[1.0, 2.0, 3.0]])
        feats = alone_features(spec, x)
        assert feats.shape == (3, 3)
        np.testing.assert_allclose(feats[2], x[0])


class TestTrainReadout:
    def test_perfect_fit_when_target_is_feature(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
        target = feats[1][None, :]
        ro = train_readout(feats, target)
        np.testing.assert_allclose(ro.w_out @ feats, target, atol=1e-10)

    def test_orthogonal_target_gives_zero_weights(self):
        feats = np.array([[1.0, 1.0, 1.0, 1.0]])
        target = np.array([[1.0, -1.0, 1.0, -1.0]])
        ro = train_readout(feats, target)
        np.testing.assert_allclose(ro.w_out, [[0.0]], atol=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((6, 80)) + 1j * rng.standard_normal((6, 80))
        target = rng.standard_normal((2, 80)) + 1j * rng.standard_normal((2, 80))
        ro = train_readout(feats, target)
        resid = ro.w_out @ feats - target
        lhs = np.linalg.norm(feats @ resid.conj().T)
        assert lhs <= 1e-8 * np.linalg.norm(feats) * np.linalg.norm(resid)

    def test_single_pole_equalizer_recovery(self):
        # channel [1, -0.5]; its exact inverse is the pole-0.5 neuron itself
        rng = np.random.default_rng(6)
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        y = np.convolve([1, -0.5], x)[:300]
        spec = diagonal_spec([0.5])
        feats = alone_features(spec, y[None, :])
        ro = train_readout(feats, x[None, :])
        assert np.linalg.norm(ro.w_out @ feats - x[None, :]) <= 1e-8

    def test_underdetermined_warns(self):
        with pytest.warns(UserWarning, match="underdetermined"):
            train_readout(np.ones((5, 3)), np.ones((1, 3)))

    def test_fewer_samples_than_live_rows_warn_once(self):
        rng = np.random.default_rng(25)
        feats = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        target = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        for fit in (
            lambda: train_readout(feats, target).w_out,
            lambda: reservoir._delay_search(feats.copy(), target, 1, 0.0)[1],
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                w = fit()
            assert [str(c.message) for c in caught] == [
                "only 3 samples for 5 features; fit is underdetermined"
            ]
            ref = np.linalg.lstsq(feats.T, target.T, rcond=None)[0].T
            np.testing.assert_allclose(w @ feats, ref @ feats, atol=1e-12)

    def test_ridge_shrinks_weights(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((4, 60))
        feats[3] = feats[2] + 1e-9 * rng.standard_normal(60)  # near-duplicate row
        target = rng.standard_normal((1, 60))
        plain = train_readout(feats, target)
        ridged = train_readout(feats, target, ridge=1e-6)
        assert np.abs(ridged.w_out).max() < np.abs(plain.w_out).max()

    def test_qr_fit_matches_lstsq(self):
        # whitened rows of condition 1 to 1e9; targets off their span
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, n_out = int(rng.integers(2, 41)), int(rng.integers(1, 4))
            t = n + int(rng.integers(1, 200))
            u = np.linalg.qr(rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n)))[0]
            v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            graded = (u * np.logspace(0, -rng.uniform(0, 9), n)) @ v.conj().T
            feats = graded.T * rng.uniform(0.01, 100, n)[:, None]
            target = rng.standard_normal((n_out, t)) + 1j * rng.standard_normal((n_out, t))
            assert_fit_matches_lstsq(feats, target)

    def test_equal_live_rows_warn_and_take_minimum_norm(self):
        rng = np.random.default_rng(24)
        feats = rng.standard_normal((4, 60)) + 1j * rng.standard_normal((4, 60))
        feats[3] = feats[1]
        target = rng.standard_normal((1, 60)) + 1j * rng.standard_normal((1, 60))
        with pytest.warns(UserWarning, match="rank-deficient"):
            ro = train_readout(feats, target)
        ref = np.linalg.lstsq(feats.T, target.T, rcond=None)[0].T
        np.testing.assert_allclose(ro.w_out, ref, rtol=1e-12)
        with pytest.warns(UserWarning, match="rank-deficient"):
            delay, w = reservoir._delay_search(feats.copy(), target, 3, 0.0)
        with pytest.warns(UserWarning, match="rank-deficient"):
            np.testing.assert_array_equal(w, train_readout(feats, target, delay=delay).w_out)

    @pytest.mark.parametrize("ridge", [0.0, 1e-6])
    def test_weights_independent_of_layout(self, ridge):
        # the detector's readouts do not depend on the layout of the caller's arrays
        rng = np.random.default_rng(20)
        spec = diagonal_spec(rng.uniform(-0.9, 0.9, 6), activation="tanh", n_window=3)
        y = rng.standard_normal((2, 1, 400)) + 1j * rng.standard_normal((2, 1, 400))
        target = rng.standard_normal((3, 300)) + 1j * rng.standard_normal((3, 300))
        (c_order,) = equalized([spec], y, target, 2, ridge)[1]
        (f_order,) = equalized([spec], np.asfortranarray(y), np.asfortranarray(target), 2, ridge)[1]
        for c, f in zip(c_order, f_order):
            assert c.delay == f.delay and c.w_out.tobytes() == f.w_out.tobytes()


class TestLearnDelay:
    def test_pure_delay_channel(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        y = np.concatenate([np.zeros(2, dtype=complex), x[:-2]])
        spec = diagonal_spec([0.1], n_window=3)
        assert learned_readout(spec, y[None, :], x[None, :], d_max=5).delay == 2

    def test_identity_channel(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        spec = diagonal_spec([0.1], n_window=3)
        assert learned_readout(spec, x[None, :], x[None, :], d_max=5).delay == 0

    def test_mixed_phase_prefers_positive_delay(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        y = np.convolve([1, -2.5, 1], x)[:400]
        spec = diagonal_spec(np.full(8, 0.4) * np.exp(2j * np.pi * np.arange(8) / 8), n_window=8)
        feats = alone_features(spec, y[None, :])
        d_star = learned_readout(spec, y[None, :], x[None, :], d_max=12).delay
        assert d_star > 0

        def residual(d):
            ro = train_readout(feats, x[None, :], delay=d)
            tgt = np.zeros_like(x[None, :])
            tgt[:, d:] = x[None, : x.size - d] if d else x[None, :]
            return np.linalg.norm(ro.w_out @ feats - tgt)

        assert residual(d_star) < residual(0)

    def test_search_never_worse_than_zero_delay(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            x = rng.standard_normal(150) + 1j * rng.standard_normal(150)
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = np.convolve(h, x)[:150]
            spec = diagonal_spec([0.3, -0.4j], n_window=2)
            feats = alone_features(spec, y[None, :])
            ro0 = train_readout(feats, x[None, :], delay=0)
            ro_star = learned_readout(spec, y[None, :], x[None, :], d_max=6)
            r0 = np.linalg.norm(ro0.w_out @ feats - x[None, :])
            tgt = np.zeros_like(x[None, :])
            d = ro_star.delay
            tgt[:, d:] = x[None, : x.size - d] if d else x[None, :]
            assert np.linalg.norm(ro_star.w_out @ feats - tgt) <= r0 + 1e-12

    def test_underdetermined_warns_like_train_readout(self):
        spec = diagonal_spec([0.1, 0.2], n_window=3)  # 5 features
        for n_samples, warns in ((5, True), (6, False)):
            x = np.random.default_rng(19).standard_normal((1, n_samples))
            feats = alone_features(spec, x)
            for fit in (
                lambda: train_readout(feats, x),
                lambda: learned_readout(spec, x, x, d_max=2),
            ):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    fit()
                assert any("underdetermined" in str(w.message) for w in caught) == warns


class TestPredict:
    def test_zero_input(self):
        spec = diagonal_spec([0.5], n_window=1)
        target = np.random.default_rng(21).standard_normal((1, 6))
        with pytest.warns(UserWarning, match="every feature row is zero"):
            out, ro = equalize(spec, np.zeros((1, 10)), target, d_max=2)
        np.testing.assert_array_equal(ro.w_out, np.zeros((1, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_alignment_with_delay(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        y = np.concatenate([np.zeros(3, dtype=complex), x[:-3]])
        spec = diagonal_spec([0.1], n_window=4)
        # trained on the first 200 samples, streamed over the other 100
        out, ro = equalize(spec, y[None, :], x[None, :200], d_max=6)
        assert ro.delay == 3
        assert out.shape == (1, 100)
        np.testing.assert_allclose(out[0, :97], x[200:297], atol=1e-8)

    def test_noiseless_equalization_end_to_end(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        y = np.convolve([1, -0.5], x)[:500]
        spec = diagonal_spec([0.5], n_window=1)
        out, _ = equalize(spec, y[None, :], x[None, :300], d_max=4)
        assert np.max(np.abs(out[0] - x[300:])) <= 1e-6

    def test_dimension_mismatch(self):
        # a target longer than the input cannot be the input's known prefix
        spec = diagonal_spec([0.5])
        with pytest.raises(ValueError, match="6 samples but the input only 5"):
            next(train_and_equalize([spec], np.zeros((1, 1, 5)), np.zeros((1, 6)), d_max=0))


class TestRandomReservoir:
    def test_spectral_radius(self):
        spec = random_reservoir(30, 0.4, 0.6, 1, 5, np.random.default_rng(14))
        radius = np.max(np.abs(np.linalg.eigvals(spec.w_res)))
        assert abs(radius - 0.4) <= 1e-6

    def test_sparsity_exact_count(self):
        n = 30
        spec = random_reservoir(n, 0.4, 0.6, 1, 5, np.random.default_rng(15))
        assert np.count_nonzero(spec.w_res == 0) == round(0.6 * n * n)

    def test_determinism(self):
        a = random_reservoir(12, 0.4, 0.6, 2, 3, np.random.default_rng(16))
        b = random_reservoir(12, 0.4, 0.6, 2, 3, np.random.default_rng(16))
        np.testing.assert_array_equal(a.w_res, b.w_res)
        np.testing.assert_array_equal(a.w_in, b.w_in)

    def test_parameter_validation(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            random_reservoir(5, 1.5, 0.5, 1, 0, rng)
        with pytest.raises(ValueError):
            random_reservoir(5, 0.5, 1.0, 1, 0, rng)

    def test_all_weights_zeroed_rejected(self):
        # round(0.6 * 1 * 1) = 1 zeroes the only weight: no scale reaches the radius
        with pytest.raises(ValueError, match="n_neurons = 1"):
            random_reservoir(1, 0.4, 0.6, 1, 0, np.random.default_rng(18))


def test_spec_text_roundtrip():
    spec = diagonal_spec([0.5, -0.25 + 0.1j], weights=[1.0, 2.0 - 1j], n_window=3)
    header, *rows = dump_spec_text(spec).splitlines()
    assert header == "neuron_index,pole_real,pole_imag,w_in_real,w_in_imag"
    values = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
    np.testing.assert_array_equal(values[:, 0] + 1j * values[:, 1], spec.w_res)
    np.testing.assert_array_equal(values[:, 2] + 1j * values[:, 3], spec.w_in[:, 0])


@pytest.mark.parametrize(
    "w_in, w_res, shape",
    [(np.ones((3, 1)), np.ones((3, 2)), r"\(3, 2\)"),
     (np.ones((3, 1)), np.ones((3, 3, 1)), r"\(3, 3, 1\)"),
     (np.ones((3, 1)), np.ones(()), r"\(\)"),
     (np.ones((3, 1)), np.ones(2), r"\(2,\)"),
     (np.ones((3, 1)), np.ones((2, 2)), r"\(2, 2\)"),
     (np.ones((2, 4)), np.ones(3), r"\(3,\)")],
    ids=["not-square", "rank-3", "scalar", "short-vector", "small-matrix", "long-vector"],
)
def test_spec_shapes_checked(w_in, w_res, shape):
    n = len(w_in)
    with pytest.raises(ValueError, match=rf"^w_res must be \({n},\) or \({n}, {n}\) for {n} rows of w_in, "
                                         rf"got {shape}$"):
        ReservoirSpec(w_in=w_in, w_res=w_res)


def test_spec_is_diagonal_by_rank():
    # a pole vector is a diagonal core; a matrix is dense, even a diagonal one
    assert diagonal_spec([0.5, 0.2]).is_diagonal
    assert not ReservoirSpec(w_in=np.ones((2, 1)), w_res=np.diag([0.5, 0.2])).is_diagonal


def test_spec_text_requires_diagonal():
    spec = random_reservoir(4, 0.3, 0.0, 1, 0, np.random.default_rng(18))
    with pytest.raises(ValueError):
        dump_spec_text(spec)
