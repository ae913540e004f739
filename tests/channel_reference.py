"""Channel draws one at a time: the per-draw reference of ``channel.draw_channels``.

``factorize_by_phase`` splits one tap vector into its minimum-phase and
non-minimum-phase factors with ``np.roots`` on one companion matrix, the
per-draw oracle of ``filters.classify_rows``.  ``reference_taps`` draws one
realization with its own scalar generator calls and normalizes it with
``normalize_agc``, and ``reference_draws`` runs the per-draw retry loop on
``factorize_by_phase``.
The batched draws must match them to the bit, generator state included.
"""

from typing import NamedTuple

import numpy as np

from rclab.channel import MAX_PHASE_RETRIES
from rclab.filters import Phase, _phase_of_roots, minimum_phase_factor
from rclab.signal_core import polynomial_roots


class UnitCircleRootError(ValueError):
    """A root fell inside the forbidden ring around the unit circle."""


class PhaseFactorization(NamedTuple):
    """``h = mp_factor * nmp_factor`` with the overall gain carried by the MP part."""

    mp_factor: np.ndarray
    nmp_factor: np.ndarray
    classification: Phase


def factorize_by_phase(h) -> PhaseFactorization:
    """Split FIR taps into minimum-phase and non-minimum-phase factors.

    Roots strictly inside the unit circle go to ``mp_factor`` (which also
    carries the overall gain); roots strictly outside go to ``nmp_factor``,
    monic in z^0.  A root with ``1 - RING_TOL < |z| < 1 + RING_TOL`` raises
    :class:`UnitCircleRootError` since the dichotomy is undefined there.
    """
    hv = np.asarray(h, dtype=np.complex128)
    if abs(hv[0]) == 0.0:
        raise ValueError("h[0] = 0: strip leading zeros (pure delay) first")
    roots = polynomial_roots(hv)
    classification = _phase_of_roots(roots)
    if classification is None:
        raise UnitCircleRootError("root within the unit-circle tolerance ring")
    outside = roots[np.abs(roots) >= 1.0]
    nmp = np.atleast_1d(np.poly(outside)).astype(np.complex128)
    return PhaseFactorization(minimum_phase_factor(hv[0], roots), nmp, classification)


def normalize_agc(h_raw) -> np.ndarray:
    """Scale taps to unit Euclidean norm (receiver AGC model)."""
    h = np.asarray(h_raw, dtype=np.complex128)
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return h / norm


def reference_taps(pdp, rng) -> np.ndarray:
    """One AGC-normalized realization: circular Gaussian taps, Rician mean on tap 0."""
    h = np.zeros(pdp.length, dtype=np.complex128)
    noise = rng.standard_normal(pdp.n_taps) + 1j * rng.standard_normal(pdp.n_taps)
    h[pdp.delays] = np.sqrt(pdp.powers / 2.0) * noise
    if pdp.k_factor is not None:
        k = pdp.k_factor
        p0 = pdp.powers[0]
        mean = np.sqrt(k / (k + 1.0) * p0)
        diffuse = np.sqrt(p0 / (k + 1.0) / 2.0)
        h[0] = mean + diffuse * (rng.standard_normal() + 1j * rng.standard_normal())
    return normalize_agc(h)


def reference_draws(pdp, rng, n, require=None):
    """``[(taps, mp_taps, phase, redraws)]`` of ``n`` draws made one at a time."""
    out = []
    for _ in range(n):
        for redraws in range(MAX_PHASE_RETRIES):
            h = reference_taps(pdp, rng)
            try:
                fact = factorize_by_phase(h)
            except UnitCircleRootError:
                continue
            if require is None or fact.classification is require:
                mp = h if fact.classification is Phase.STRICTLY_MP else fact.mp_factor
                out.append((h, mp, fact.classification, redraws))
                break
        else:
            raise ValueError(f"no acceptable realization within {MAX_PHASE_RETRIES} draws")
    return out
