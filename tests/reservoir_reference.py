"""One input run alone: the batch-of-one reference of the batched detector core.

Built on the package's own recursion, feature layout and fit
(``reservoir._advance`` on a stack of one core, ``reservoir._features`` and
``reservoir._least_squares``), so a batch element must match it to the bit.
The ``ridge = 0`` fit is also checked against ``np.linalg.lstsq``'s
minimum-norm solve, within rounding (:func:`assert_fit_matches_lstsq`).
"""

import numpy as np

from rclab import reservoir
from rclab.reservoir import Readout


def alone_states(spec, x) -> np.ndarray:
    """States of the ``(d_in, T)`` input ``x`` from a zero initial state, ``(n_neurons, T)``."""
    xs = np.atleast_2d(np.asarray(x, dtype=np.complex128))[None]
    block = np.zeros((xs.shape[2] + 1, spec.n_neurons), dtype=np.complex128)
    reservoir._advance([spec], xs, block)
    return np.ascontiguousarray(block[1:].T)


def alone_features(spec, x) -> np.ndarray:
    """States stacked with the windowed input history, ``(feature_dim, T)``."""
    xs = np.atleast_2d(np.asarray(x, dtype=np.complex128))
    return reservoir._features(spec, alone_states(spec, xs), xs, 0)


def alone_readout(spec, train_input, target, d_max, ridge=0.0) -> Readout:
    """The delay search's readout on the features of ``train_input``."""
    delay, w = reservoir._delay_search(alone_features(spec, train_input), target, d_max, ridge)
    return Readout(w_out=w, delay=delay)


def train_readout(features, target, delay: int = 0, ridge: float = 0.0) -> Readout:
    """Least-squares readout against the target delayed by ``delay`` samples.

    With ``ridge = 0`` this is the plain pseudoinverse fit, so the residual
    rows are orthogonal to the feature rows.
    """
    f, tgt = reservoir._fit_inputs(features, target)
    w = reservoir._least_squares(f, ridge)[0](reservoir._delayed(tgt, delay))
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
    f, tgt = reservoir._fit_inputs(features, target)
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
