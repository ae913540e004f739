"""One input run alone: the batch-of-one reference of the batched detector core.

Built on the package's own recursion and fit (``reservoir._advance`` on a
stack of one core, over the whole input in one block, and
``reservoir._least_squares``), with the features assembled here from the
states and the delayed input, so a batch element must match it to the bit.
:func:`equalized` collects the detector's streamed output into whole arrays.
The ``ridge = 0`` fit is also checked against ``np.linalg.lstsq``'s
minimum-norm solve, within rounding (:func:`assert_fit_matches_lstsq`).
"""

import numpy as np

from rclab import reservoir
from rclab.reservoir import Readout


def equalized(specs, x, target, d_max, ridge=0.0):
    """Drain :func:`reservoir.train_and_equalize` into whole outputs: ``(outputs, readouts)``.

    Per core, the output is ``(batch, n_out, T - L)``: every frame the stream
    yields, copied before the stream overwrites it, joined in order.  They
    cover samples ``[L, T)``, after the ``L``-sample training prefix.
    """
    stream = reservoir.train_and_equalize(specs, x, target, d_max, ridge)
    readouts = next(stream)
    n_batch, n_out = len(readouts[0]), readouts[0][0].w_out.shape[0]
    empty = np.empty((len(specs), n_batch, n_out, 0), dtype=np.complex128)
    outs = list(np.concatenate([empty] + [frame.copy() for frame in stream], axis=3))
    assert all(out.shape[2] == np.shape(x)[2] - np.shape(target)[-1] for out in outs)
    return outs, readouts


def alone_states(spec, x) -> np.ndarray:
    """States of the ``(d_in, T)`` input ``x`` from a zero initial state, ``(n_neurons, T)``."""
    xs = np.atleast_2d(np.asarray(x, dtype=np.complex128))[None]
    block = np.zeros((xs.shape[2] + 1, spec.n_neurons), dtype=np.complex128)
    reservoir._advance([spec], reservoir._stack([spec], 1), xs, block)
    return np.ascontiguousarray(block[1:].T)


def alone_features(spec, x) -> np.ndarray:
    """States stacked with the windowed input history, ``(feature_dim, T)``, C-ordered.

    Row block ``w`` of the window is the ``(d_in, T)`` input delayed by ``w``
    samples, zero before its start.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=np.complex128))
    n, d_in = spec.n_neurons, xs.shape[0]
    feats = np.empty((spec.feature_dim, xs.shape[1]), dtype=np.complex128)
    feats[:n] = alone_states(spec, xs)
    for w in range(spec.n_window):
        feats[n + w * d_in : n + (w + 1) * d_in] = delayed(xs, w)
    return feats


def c_ordered(a) -> np.ndarray:
    """``a`` as the C-ordered complex 2-D array the package's fits take."""
    return np.atleast_2d(np.ascontiguousarray(a, dtype=np.complex128))


def alone_readout(spec, train_input, target, d_max, ridge=0.0) -> Readout:
    """The delay search's readout on the features of ``train_input``."""
    feats = alone_features(spec, train_input)
    delay, w = reservoir._delay_search(feats, c_ordered(target), d_max, ridge)
    return Readout(w_out=w, delay=delay)


def delayed(target, delay: int) -> np.ndarray:
    """The ``(n_out, L)`` target delayed by ``delay`` samples, zero before its start."""
    out = np.zeros_like(target)
    out[:, delay:] = target[:, : max(target.shape[1] - delay, 0)]
    return out


def train_readout(features, target, delay: int = 0, ridge: float = 0.0) -> Readout:
    """Least-squares readout against the target delayed by ``delay`` samples.

    With ``ridge = 0`` this is the plain pseudoinverse fit, so the residual
    rows are orthogonal to the feature rows.  The fit consumes its features,
    so it gets a copy and ``features`` stays as it was.
    """
    f, tgt = c_ordered(features).copy(), c_ordered(target)
    w = reservoir._least_squares(f, ridge)[0](delayed(tgt, delay))
    return Readout(w_out=w, delay=delay)


def assert_fit_matches_lstsq(features, target):
    """The ``ridge = 0`` weights and residuals agree with ``lstsq`` on the whitened features.

    The reference is ``lstsq``'s minimum-norm solve of the whitened rows (a
    row of zero scale keeps scale 1), its weights scaled back.  Both solves
    are backward stable, so they agree to ``cond · eps · max(shape)``: the
    condition number of the whitened live rows, times ``lstsq``'s ``rcond``
    factor.  Weights are compared in whitened units, residuals relative to
    each target row's energy.
    """
    f, tgt = c_ordered(features), c_ordered(target)
    weights, residuals = reservoir._least_squares(f, 0.0)
    scale = np.sqrt(np.mean(np.abs(f) ** 2, axis=1))
    live = scale > 1e-300
    scale = np.where(live, scale, 1.0)
    fw = f / scale[:, None]
    bound = np.linalg.cond(fw[live]) * np.finfo(np.float64).eps * max(fw[live].shape)
    ref = np.linalg.lstsq(fw.T, tgt.T, rcond=None)[0].T
    got = weights(tgt) * scale
    assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)
    ref_res = np.sum(np.abs(ref @ fw - tgt) ** 2, axis=1)
    assert np.all(np.abs(residuals(tgt) - ref_res) <= bound * np.sum(np.abs(tgt) ** 2, axis=1))
