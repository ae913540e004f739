"""One input run alone: the batch-of-one reference of the batched detector core.

Built on the package's own recursion, feature layout and fit
(``reservoir._advance`` on a stack of one core, ``reservoir._features`` and
``reservoir._fit_weights``), so a batch element must match it to the bit.
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
    w = reservoir._fit_weights(f, reservoir._delayed(tgt, delay), ridge)
    return Readout(w_out=w, delay=delay)
