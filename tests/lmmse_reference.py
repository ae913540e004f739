"""LMMSE channel interpolation on the RS subcarriers: ``_estimate_channel_freq``'s oracle.

``reference_estimate`` forms the frequency correlation ``R[:, ks]`` of the
operating PDP and solves ``(R_ks + σI) x = ls`` on each antenna's RS comb,
as the estimator did before it moved to the tap domain.  ``R_ks`` has rank
at most the tap count, so ``R_ks + σI`` is singular in floating point once
``σ`` is under ``lstsq``'s rank tolerance (``eps · n_ks`` times the trace,
which bounds the largest eigenvalue), as at ``σ = 0``.  There the answer is
the ``σ → 0`` limit, ``lstsq``'s minimum-norm solve against ``R_ks``; above
it one LU solve serves.  The tap-domain estimate must match it within
rounding.
"""

import numpy as np

from rclab.bench_cli import LMMSE_ESTIMATION_BACKOFF


def frequency_correlation(delays, powers, n_sc: int, cols: np.ndarray) -> np.ndarray:
    """Channel frequency-correlation columns ``R[:, cols]`` from the tap powers."""
    steer = np.exp(-2j * np.pi * np.outer(np.arange(n_sc), delays) / n_sc)  # (n_sc, taps)
    return (steer * powers) @ steer[cols].conj().T


def reference_estimate(rx_grid: np.ndarray, tx_grid: np.ndarray, pdp, noise_var: float) -> np.ndarray:
    """``(n_sc, n_rx, n_tx)`` LS at the RS REs of symbol 0, LMMSE-interpolated by ``R[:, ks]``."""
    n_sc, _, n_rx = rx_grid.shape
    sigma = noise_var * LMMSE_ESTIMATION_BACKOFF
    h = np.empty((n_sc, n_rx, tx_grid.shape[2]), dtype=np.complex128)
    for tx in range(tx_grid.shape[2]):
        ks = np.flatnonzero(tx_grid[:, 0, tx])  # the RS REs: symbol 0 is zero elsewhere
        r_cross = frequency_correlation(pdp.delays, pdp.powers, n_sc, ks)  # (n_sc, n_ks)
        r_ks = r_cross[ks]
        ls = rx_grid[ks, 0, :] / tx_grid[ks, 0, tx][:, None]
        if sigma > np.finfo(np.float64).eps * ks.size * np.trace(r_ks).real:
            x = np.linalg.solve(r_ks + sigma * np.eye(ks.size), ls)
        else:
            x = np.linalg.lstsq(r_ks, ls, rcond=None)[0]
        h[:, :, tx] = r_cross @ x
    return h
