"""Property tests of the batched, streamed detector core against loop references.

Every case covers diagonal and dense cores, linear and tanh activations,
``n_window`` 0 and 5, ``ridge`` 0 and > 0, and ``d_in`` 1 and 4.  The
batched arithmetic is the unbatched arithmetic per element, so batched and
single results must be equal to the bit; the single results come from
``reservoir_reference``, one input run alone through the same recursion.  The
hand-written recursion, the closed-form oracle and the unstreamed readout are
compared within rounding.

Stacks of up to four cores, diagonal and dense of unequal sizes, run in one
recursion; each core must keep, to the bit, what it gets alone in a batch of
one, and the states of the per-sample recursion written out plainly.
"""

import re
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclab import bench_cli, reservoir
from rclab.reservoir import (
    ReservoirSpec,
    block_states,
    random_reservoir,
    train_and_equalize,
)
from reservoir_reference import (
    alone_features,
    alone_readout,
    alone_states,
    equalized,
    train_readout,
)

CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "dense": st.booleans(),
        "activation": st.sampled_from(("linear", "tanh")),
        "n_window": st.sampled_from((0, 5)),
        "ridge": st.sampled_from((0.0, 1e-3)),
        "d_in": st.sampled_from((1, 4)),
        "n_neurons": st.integers(1, 8),
        "batch": st.integers(1, 4),
        "d_out": st.integers(1, 2),
        "d_max": st.integers(0, 6),
        "chunk": st.integers(2, 40),
    }
)
SETTINGS = settings(max_examples=40, deadline=None)
# a dense linear core whose third recurrent row is zero: that neuron's state is a
# multiple of the z^0 window tap, so every fit on its features is rank-deficient
DEGENERATE_CASE = dict(seed=185, dense=True, activation="linear", n_window=5, ridge=0.0, d_in=1,
                       n_neurons=3, batch=1, d_out=1, d_max=0, chunk=2)


@contextmanager
def documented_warnings():
    """Let a drawn case's fits warn that they are rank-deficient or underdetermined, and nothing else."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        assert w.category is UserWarning
        assert re.match(r"readout fit is rank-deficient: |only \d+ samples for \d+ features; "
                        r"fit is underdetermined$", str(w.message)), str(w.message)


def make_case(c):
    """Spec, ``(batch, d_in, T)`` input and ``(d_out, L)`` target of one case."""
    rng = np.random.default_rng(c["seed"])
    n, d_in = c["n_neurons"], c["d_in"]
    if c["dense"]:
        spec = random_reservoir(n, 0.6, 0.3, d_in, c["n_window"], rng, activation=c["activation"],
                                input_scale=1.0)
    else:
        poles = 0.95 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        spec = ReservoirSpec(
            w_in=rng.standard_normal((n, d_in)) + 1j * rng.standard_normal((n, d_in)),
            w_res=poles,
            activation=c["activation"],
            n_window=c["n_window"],
        )
    n_train = spec.feature_dim + int(rng.integers(8, 40))
    t = n_train + int(rng.integers(0, 60))
    x = rng.standard_normal((c["batch"], d_in, t)) + 1j * rng.standard_normal((c["batch"], d_in, t))
    target = rng.standard_normal((c["d_out"], n_train)) + 1j * rng.standard_normal((c["d_out"], n_train))
    return spec, x, target


def manual_states(spec, x):
    s = np.zeros(spec.n_neurons, dtype=complex)
    out = np.empty((spec.n_neurons, x.shape[1]), dtype=complex)
    for n in range(x.shape[1]):
        z = (spec.w_res * s if spec.is_diagonal else spec.w_res @ s) + spec.w_in @ x[:, n]
        s = z if spec.activation == "linear" else np.tanh(z.real) + 1j * np.tanh(z.imag)
        out[:, n] = s
    return out


def reference_equalize(spec, x, target, d_max, ridge):
    """The unbatched detector: train on the prefix, rerun the whole zero-padded input.

    Also returns a rounding bound of the output: the readout's sums of
    ``|w_k f_k|`` times a few hundred ulps.
    """
    ro = alone_readout(spec, x[:, : target.shape[1]], target, d_max, ridge)
    padded = np.concatenate([x, np.zeros((x.shape[0], ro.delay), dtype=complex)], axis=1)
    feats = alone_features(spec, padded)
    tol = 1e-13 * (np.abs(ro.w_out) @ np.abs(feats)).max()
    return (ro.w_out @ feats)[:, ro.delay :], ro, tol


@given(CASES)
@SETTINGS
def test_batched_states_match_recursion_and_oracle(c):
    spec, x, _ = make_case(c)
    b, _, t = x.shape
    block = np.zeros((t + 1, b * spec.n_neurons), dtype=complex)
    reservoir._advance([spec], reservoir._stack([spec], b), x, block)
    np.testing.assert_array_equal(block[0], 0)
    states = block[1:].reshape(t, b, spec.n_neurons)
    for i in range(b):
        got = states[:, i].T
        np.testing.assert_array_equal(got, alone_states(spec, x[i]))
        np.testing.assert_allclose(got, manual_states(spec, x[i]), rtol=0, atol=1e-12)
        if spec.is_diagonal and spec.activation == "linear":
            closed = sum(spec.w_in[:, j, None] * block_states(spec.w_res, x[i, j]) for j in range(spec.d_in))
            np.testing.assert_allclose(got, closed, rtol=0, atol=1e-10)


@given(CASES)
@example(DEGENERATE_CASE)
@SETTINGS
def test_batch_equalizes_each_element_as_alone(c):
    spec, x, target = make_case(c)
    n_train = target.shape[1]
    with mock.patch.object(reservoir, "STREAM_CHUNK", c["chunk"]), documented_warnings():
        [out], [readouts] = equalized([spec], x, target, c["d_max"], c["ridge"])
        assert out.shape == (x.shape[0], target.shape[0], x.shape[2] - n_train)
        for i in range(x.shape[0]):
            [alone], [[ro_alone]] = equalized([spec], x[i : i + 1], target, c["d_max"], c["ridge"])
            ref, ro_ref, tol = reference_equalize(spec, x[i], target, c["d_max"], c["ridge"])
            ref = ref[:, n_train:]
            assert readouts[i].delay == ro_alone.delay == ro_ref.delay
            np.testing.assert_array_equal(readouts[i].w_out, ro_ref.w_out)
            np.testing.assert_array_equal(out[i], alone[0])
            # the streamed readout sums each output sample as one product does,
            # but BLAS kernels round block tails differently from block bodies
            np.testing.assert_allclose(out[i], ref, rtol=0, atol=tol)
            np.testing.assert_allclose(alone[0], ref, rtol=0, atol=tol)


@given(CASES)
@SETTINGS
def test_row_order_drive_matches_column_product(c):
    # with no recurrence and no activation the states are the drive itself
    spec, x, _ = make_case(dict(c, activation="linear"))
    spec = ReservoirSpec(spec.w_in, np.zeros(spec.n_neurons), "linear", 0)
    b, d_in, t = x.shape
    block = np.zeros((t + 1, b * spec.n_neurons), dtype=complex)
    reservoir._advance([spec], reservoir._stack([spec], b), x, block)
    states = block[1:].reshape(t, b, spec.n_neurons)
    eps = np.finfo(np.float64).eps
    for i in range(b):
        want = spec.w_in @ x[i]
        # the rounding bound of a length-d_in dot product
        bound = (d_in + 1) * eps * (np.abs(spec.w_in) @ np.abs(x[i]))
        assert np.all(np.abs(states[:, i].T - want) <= bound)


def delayed_window(x, n_window, lo, n):
    """Input window of samples ``[lo, lo + n)``: row block ``w`` is ``x`` delayed by ``w``, zero outside."""
    d_in, t = x.shape
    padded = np.concatenate([np.zeros((d_in, n_window)), x, np.zeros((d_in, lo + n))], axis=1)
    rows = [padded[:, n_window + lo - w : n_window + lo - w + n] for w in range(n_window)]
    return np.vstack(rows or [np.empty((0, n))])


@given(CASES)
@example(DEGENERATE_CASE)
@SETTINGS
def test_streamed_readout_matches_feature_product(c):
    # the stream reads its states in place and its window from a shared
    # buffer; the output is the readout of the feature array of the same
    # states, within the rounding of a length-feature_dim dot product
    spec, x, target = make_case(c)
    states = {}

    def apply_readout(dst, readout, st, window):
        states.setdefault(id(readout), []).append(st.copy())
        return apply_readout.real(dst, readout, st, window)

    apply_readout.real = reservoir._apply_readout
    with mock.patch.object(reservoir, "STREAM_CHUNK", c["chunk"]), \
            mock.patch.object(reservoir, "_apply_readout", apply_readout), documented_warnings():
        [out], [readouts] = equalized([spec], x, target, c["d_max"], c["ridge"])
    eps = np.finfo(np.float64).eps
    n_train, t = target.shape[1], x.shape[2]
    for i, ro in enumerate(readouts):
        # the stream reads input samples [lo, T + delay): output samples [lo - delay, T)
        lo = max(n_train, ro.delay)
        st = np.hstack(states.get(id(ro), [np.empty((spec.n_neurons, 0))]))
        assert st.shape[1] == t + ro.delay - lo
        feats = np.vstack([st, delayed_window(x[i], spec.n_window, lo, st.shape[1])])
        skip = n_train + ro.delay - lo  # outputs before sample L are made but never yielded
        want = (ro.w_out @ feats)[:, skip:]
        bound = eps * spec.feature_dim * np.linalg.norm(ro.w_out) * np.linalg.norm(feats, axis=0)
        assert np.all(np.abs(out[i] - want) <= bound[skip:])


def test_stack_layout_built_once_per_call():
    specs, x, target = make_stack(MIXED_STACK)
    with mock.patch.object(reservoir, "_stack", wraps=reservoir._stack) as stack:
        equalized(specs, x, target, MIXED_STACK["d_max"])
    # once for the stream and once for each core's training prefix
    assert stack.call_count == 1 + len(specs)


@given(CASES)
@example(DEGENERATE_CASE)
@SETTINGS
def test_delay_matches_per_delay_loop(c):
    spec, x, target = make_case(c)
    train = x[0, :, : target.shape[1]]
    feats = alone_features(spec, train)
    tie_tol = 1e-12 * np.linalg.norm(target) ** 2
    best, best_res, best_ro = 0, None, None
    with documented_warnings():
        for d in range(c["d_max"] + 1):
            ro = train_readout(feats, target, delay=d, ridge=c["ridge"])
            delayed = np.zeros_like(target)
            delayed[:, d:] = target[:, : target.shape[1] - d]
            res = np.linalg.norm(ro.w_out @ feats - delayed) ** 2
            if best_res is None or res < best_res - tie_tol:
                best, best_res, best_ro = d, res, ro
        _, [[got]] = equalized([spec], x[:1], target, c["d_max"], c["ridge"])
    assert got.delay == best
    np.testing.assert_array_equal(got.w_out, best_ro.w_out)


STACKS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "activation": st.sampled_from(("linear", "tanh")),
        "ridge": st.sampled_from((0.0, 1e-3)),
        "d_in": st.sampled_from((1, 4)),
        # (dense, n_neurons, n_window) per core; few sizes, so equal-size
        # dense cores share a group often
        "cores": st.lists(
            st.tuples(st.booleans(), st.sampled_from((1, 3, 5)), st.sampled_from((0, 5))),
            min_size=1,
            max_size=4,
        ),
        "batch": st.integers(1, 3),
        "d_out": st.integers(1, 2),
        "d_max": st.integers(0, 6),
        "chunk": st.integers(2, 40),
    }
)
# diagonal and dense cores of unequal sizes, two dense ones of one size
MIXED_STACK = dict(
    seed=7, activation="tanh", ridge=0.0, d_in=4,
    cores=[(False, 5, 5), (True, 3, 0), (False, 5, 0), (False, 3, 5)],
    batch=3, d_out=1, d_max=4, chunk=17,
)


def make_stack(c):
    """Specs, ``(batch, d_in, T)`` input and ``(d_out, L)`` target of one stacked case."""
    rng = np.random.default_rng(c["seed"])
    specs = []
    for dense, n, w in c["cores"]:
        core = dict(c, seed=int(rng.integers(2**32)), dense=dense, n_neurons=n, n_window=w)
        specs.append(make_case(dict(core, batch=1, d_out=1))[0])
    n_train = max(s.feature_dim for s in specs) + int(rng.integers(8, 40))
    t = n_train + int(rng.integers(0, 60))
    shape = (c["batch"], c["d_in"], t)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    target = rng.standard_normal((c["d_out"], n_train)) + 1j * rng.standard_normal((c["d_out"], n_train))
    return specs, x, target


def plain_states(spec, x):
    """One core's recursion written out per sample: the bits every stacked core must keep.

    The products are the row-order drive ``x.T @ W_in.T``, ``diag * s`` and
    ``s @ W_res.T``, as a detector that runs one core alone forms them.
    """
    drive = (x.T @ spec.w_in.T).T
    s = np.zeros(spec.n_neurons, dtype=complex)
    out = np.empty((spec.n_neurons, x.shape[1]), dtype=complex)
    for n in range(x.shape[1]):
        s = (spec.w_res * s if spec.is_diagonal else s @ spec.w_res.T) + drive[:, n]
        if spec.activation == "tanh":
            np.tanh(s.view(np.float64), out=s.view(np.float64))
        out[:, n] = s
    return out


@given(STACKS)
@example(MIXED_STACK)
@SETTINGS
def test_stacked_states_keep_plain_recursion_bits(c):
    specs, x, _ = make_stack(c)
    b, _, t = x.shape
    block = np.zeros((t + 1, b * sum(s.n_neurons for s in specs)), dtype=complex)
    layout = reservoir._stack(specs, b)
    reservoir._advance(specs, layout, x, block)
    for spec, cols in zip(specs, layout[0]):
        states = block[1:, cols].reshape(t, b, spec.n_neurons)
        for i in range(b):
            np.testing.assert_array_equal(states[:, i].T, plain_states(spec, x[i]))


@given(STACKS)
@example(MIXED_STACK)
@SETTINGS
def test_stack_equalizes_each_core_as_alone(c):
    specs, x, target = make_stack(c)
    with mock.patch.object(reservoir, "STREAM_CHUNK", c["chunk"]), documented_warnings():
        outs, readouts = equalized(specs, x, target, c["d_max"], c["ridge"])
        assert len(outs) == len(readouts) == len(specs)
        for spec, out, ros in zip(specs, outs, readouts):
            assert out.shape == (x.shape[0], target.shape[0], x.shape[2] - target.shape[1])
            for i in range(x.shape[0]):
                [alone], [[ro_alone]] = equalized([spec], x[i : i + 1], target, c["d_max"], c["ridge"])
                assert ros[i].delay == ro_alone.delay
                np.testing.assert_array_equal(ros[i].w_out, ro_alone.w_out)
                np.testing.assert_array_equal(out[i], alone[0])


def test_stream_hands_out_target_long_frames():
    # with L < STREAM_CHUNK the first block completes two frames, and T - L =
    # 43 leaves a last frame of 3 samples; each frame is one array of every
    # core, handed out as soon as its block has finished it
    n_train, t, d_max, chunk = 10, 53, 4, 25
    core = dict(seed=3, activation="tanh", d_in=1, batch=1, d_out=1, d_max=0, ridge=0.0, chunk=1)
    specs = [make_case(dict(core, dense=False, n_neurons=3, n_window=5))[0],
             make_case(dict(core, dense=True, n_neurons=4, n_window=0))[0]]
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 1, t)) + 1j * rng.standard_normal((2, 1, t))
    target = rng.standard_normal((2, n_train)) + 1j * rng.standard_normal((2, n_train))
    blocks = []

    def advance(specs, layout, xs, block):
        blocks.append(xs.shape[2])
        return real_advance(specs, layout, xs, block)

    real_advance = reservoir._advance
    with mock.patch.object(reservoir, "STREAM_CHUNK", chunk), \
            mock.patch.object(reservoir, "_advance", advance):
        stream = train_and_equalize(specs, x, target, d_max, 0.0)
        readouts = next(stream)
        blocks.clear()  # the training recursions
        frames = [(len(blocks), frame.copy()) for frame in stream]
    assert blocks == [chunk, t + d_max - n_train - chunk]
    assert [f.shape for _, f in frames] == [(2, 2, 2, m) for m in (10, 10, 10, 10, 3)]
    # block 1 finishes the samples before 10 + 25 - 4 = 31, block 2 all of them
    assert [b for b, _ in frames] == [1, 1, 2, 2, 2]
    out = np.concatenate([f for _, f in frames], axis=3)
    for spec, core_out, ros in zip(specs, out, readouts):
        for i in range(len(x)):
            ref, ro, tol = reference_equalize(spec, x[i], target, d_max, 0.0)
            assert ros[i].delay == ro.delay
            np.testing.assert_allclose(core_out[i], ref[:, n_train:], rtol=0, atol=tol)


def test_stream_lone_last_sample_joins_block_before():
    # T + d_max - L = 17 samples at a chunk of 8: the last sample joins the
    # block before it, as in training, so no block is one sample wide
    n_train, t, d_max = 10, 24, 3
    core = dict(seed=5, activation="tanh", d_in=1, batch=1, d_out=1, d_max=0, ridge=0.0, chunk=8)
    spec = make_case(dict(core, dense=False, n_neurons=3, n_window=5))[0]
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 1, t)) + 1j * rng.standard_normal((1, 1, t))
    target = rng.standard_normal((1, n_train)) + 1j * rng.standard_normal((1, n_train))
    blocks = []

    def advance(specs, layout, xs, block):
        blocks.append(xs.shape[2])
        return real_advance(specs, layout, xs, block)

    real_advance = reservoir._advance
    with mock.patch.object(reservoir, "STREAM_CHUNK", 8), \
            mock.patch.object(reservoir, "_advance", advance):
        stream = train_and_equalize([spec], x, target, d_max, 0.0)
        next(stream)
        blocks.clear()  # the training recursion
        out = np.concatenate([frame.copy() for frame in stream], axis=3)
    assert blocks == [8, 9]
    ref, _, tol = reference_equalize(spec, x[0], target, d_max, 0.0)
    np.testing.assert_allclose(out[0, 0], ref[:, n_train:], rtol=0, atol=tol)


@pytest.mark.parametrize("ridge", [0.0, 1e-6])
@pytest.mark.parametrize("n_ant", [1, 4])
@pytest.mark.parametrize("tail", ["short", "long"])
def test_stream_chunk_keeps_output_bits(tail, n_ant, ridge):
    # the detectors' stack (two configured diagonal cores, two dense random
    # ones) over a README slot, whose stream after the RS symbol is 15 blocks
    # of 1024 samples and a last block of 44.  Blocks of 128 subdivide blocks
    # of 1024, so every output sample keeps its bits.  A last 1024-block of
    # 128 samples or more ends in a shorter 128-block, whose tail BLAS may
    # round differently: there only the last block may change, by rounding.
    cfg = bench_cli.ExperimentConfig(
        detectors=bench_cli.RC_DETECTOR_NAMES, channel_mode="mimo" if n_ant > 1 else "siso",
        n_tx=n_ant, n_rx=n_ant, input_scale=0.3,
    )
    specs = list(bench_cli._configured_specs(cfg).values())
    assert [s.is_diagonal for s in specs] == [True, True, False, False]
    n_train = cfg.n_sc + cfg.n_cp
    t = cfg.n_symbols * n_train - (0 if tail == "short" else 300)
    last = n_train + (t + cfg.d_max - n_train) // 1024 * 1024 - cfg.d_max
    rng = np.random.default_rng(n_ant)
    x = rng.standard_normal((1, n_ant, t)) + 1j * rng.standard_normal((1, n_ant, t))
    target = rng.standard_normal((n_ant, n_train)) + 1j * rng.standard_normal((n_ant, n_train))
    runs = []
    for chunk in (1024, reservoir.STREAM_CHUNK):
        with mock.patch.object(reservoir, "STREAM_CHUNK", chunk), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the td core's rank at ridge 0
            runs.append(equalized(specs, x, target, cfg.d_max, ridge))
    assert reservoir.STREAM_CHUNK == 128
    (outs_1024, ros_1024), (outs, ros) = runs
    for out_1024, out, core_1024, core in zip(outs_1024, outs, ros_1024, ros):
        for ro_1024, ro in zip(core_1024, core):
            assert ro.delay == ro_1024.delay
            assert ro.w_out.tobytes() == ro_1024.w_out.tobytes()
        if tail == "short":
            assert out.tobytes() == out_1024.tobytes()
        else:
            assert out[..., : last - n_train].tobytes() == out_1024[..., : last - n_train].tobytes()
            np.testing.assert_allclose(out, out_1024, rtol=0, atol=1e-8 * np.abs(out_1024).max())


# (n_train, dense, n_neurons, d_in, n_window, activation, ridge, chunk): prefixes
# of one block, of a 256-block and a 257-block, of four blocks and a 160-sample
# tail, and of a two-sample tail
BLOCKED_TRAINING = [
    (257, False, 1, 1, 0, "tanh", 0.0, 2),
    (257, True, 8, 4, 5, "linear", 1e-6, 128),
    (258, False, 1, 4, 5, "tanh", 0.0, 7),
    (513, False, 2, 4, 0, "tanh", 1e-6, 7),
    (513, True, 5, 1, 5, "tanh", 0.0, 2),
    (513, False, 35, 1, 5, "linear", 0.0, 128),
    (1184, True, 1, 4, 0, "linear", 1e-6, 128),
    (1184, True, 3, 4, 5, "tanh", 0.0, 128),
    (1184, False, 7, 1, 5, "linear", 1e-6, 2),
    (1184, True, 35, 4, 0, "tanh", 1e-6, 7),
    (1184, False, 140, 4, 5, "tanh", 1e-6, 128),
    (1184, False, 140, 1, 5, "linear", 0.0, 7),
    (1184, True, 140, 4, 5, "tanh", 0.0, 2),
    (1184, True, 140, 1, 0, "linear", 1e-6, 128),
]


@pytest.mark.filterwarnings("ignore:readout fit is rank-deficient")  # linear diagonal cores at ridge 0
@pytest.mark.parametrize("n_train, dense, n_neurons, d_in, n_window, activation, ridge, chunk",
                         BLOCKED_TRAINING)
def test_blocked_training_keeps_whole_prefix_bits(n_train, dense, n_neurons, d_in, n_window,
                                                  activation, ridge, chunk):
    # training recurses the prefix in TRAIN_BLOCK-sample blocks straight into
    # the feature rows; the readouts and last states are those of the whole
    # prefix recursed in one block, whatever the stream's chunk
    assert reservoir.TRAIN_BLOCK == 256
    c = dict(seed=n_train * n_neurons + d_in, dense=dense, activation=activation,
             n_window=n_window, d_in=d_in, n_neurons=n_neurons)
    spec = make_case(dict(c, batch=1, d_out=1, d_max=0, ridge=ridge, chunk=chunk))[0]
    rng = np.random.default_rng(c["seed"])
    shape = (2, d_in, n_train + 50)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    target = rng.standard_normal((2, n_train)) + 1j * rng.standard_normal((2, n_train))
    with mock.patch.object(reservoir, "STREAM_CHUNK", chunk):
        [readouts] = next(train_and_equalize([spec], x, target, 3, ridge))
    _, last = reservoir._train(spec, x[:, :, :n_train], target, 3, ridge)
    for i, ro in enumerate(readouts):
        want = alone_readout(spec, x[i, :, :n_train], target, 3, ridge)
        assert ro.delay == want.delay
        assert ro.w_out.tobytes() == want.w_out.tobytes()
        states = alone_states(spec, x[i, :, :n_train])
        assert last[i * n_neurons : (i + 1) * n_neurons].tobytes() == states[:, -1].tobytes()


@pytest.mark.parametrize("field, value", [("activation", "linear"), ("d_in", 2)])
def test_stack_needs_one_activation_and_d_in(field, value):
    rng = np.random.default_rng(0)
    base = dict(activation="tanh", d_in=1)
    specs = [
        random_reservoir(4, 0.5, 0.3, base["d_in"], 0, rng, base["activation"], 1.0),
        random_reservoir(4, 0.5, 0.3, **dict(base, **{field: value}), n_window=0, rng=rng,
                         input_scale=1.0),
    ]
    x = np.zeros((1, 1, 30), dtype=complex)
    with pytest.raises(ValueError, match="share one activation and one d_in"):
        next(train_and_equalize(specs, x, np.zeros((1, 20)), d_max=0, ridge=0.0))
