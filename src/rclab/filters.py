"""Phase classes of FIR taps, minimum-phase factors and one-pole partial fractions.

An FIR tap vector ``h`` is read as the transfer function ``sum_k h_k z^{-k}``.
A channel is *strictly minimum-phase* (MP) when every root lies strictly
inside the unit circle, *strictly non-minimum-phase* (NMP) when every root
lies strictly outside, and *mixed* otherwise.  Strictly MP channels have a
stable causal all-pole inverse; of any other channel the configuration keeps
the minimum-phase factor.  ``channel.draw_channels`` classifies its draws
here, and ``weight_config`` splits all-pole filters into one-pole sections.
"""

import enum

import numpy as np

from .signal_core import polynomial_roots

RING_TOL = 1e-6
POLE_SEPARATION_TOL = 1e-6
POLE_JITTER = 1e-5


class UnitCircleRootError(ValueError):
    """A root fell inside the forbidden ring around the unit circle."""


class Phase(enum.Enum):
    STRICTLY_MP = "strictly_mp"
    STRICTLY_NMP = "strictly_nmp"
    MIXED = "mixed"


def perturb_clustered_poles(poles: np.ndarray) -> np.ndarray:
    """Split pole clusters by a deterministic radial jitter.

    Poles closer than ``POLE_SEPARATION_TOL`` to an already-kept pole are
    pushed radially outward in multiples of ``POLE_JITTER``; ordering is made
    stable by sorting on (real, imag) first.
    """
    p = np.asarray(poles, dtype=np.complex128).ravel()
    order = np.lexsort((p.imag, p.real))
    adjusted = p[order].copy()
    for i in range(1, adjusted.size):
        bump = 1
        while np.min(np.abs(adjusted[:i] - adjusted[i])) <= POLE_SEPARATION_TOL:
            base = p[order][i]
            direction = base / abs(base) if abs(base) > 0 else 1.0
            adjusted[i] = base + direction * bump * POLE_JITTER
            bump += 1
    out = np.empty_like(adjusted)
    out[order] = adjusted
    return out


def section_residues(poles: np.ndarray) -> np.ndarray:
    """Residues of ``1 / prod_k (1 - p_k z^{-1})`` at simple nonzero poles."""
    k = poles.size
    res = np.empty(k, dtype=np.complex128)
    for i in range(k):
        others = np.delete(poles, i)
        res[i] = 1.0 / np.prod(1.0 - others / poles[i])
    return res


def _phase_of_roots(roots: np.ndarray) -> Phase | None:
    """Phase class of a root set, or ``None`` when a root lies in the ``RING_TOL`` ring."""
    mags = np.abs(roots)
    if np.any((mags > 1.0 - RING_TOL) & (mags < 1.0 + RING_TOL)):
        return None
    n_inside = np.count_nonzero(mags < 1.0)
    if n_inside == mags.size:
        return Phase.STRICTLY_MP
    if n_inside == 0:
        return Phase.STRICTLY_NMP
    return Phase.MIXED


def minimum_phase_factor(h0: complex, roots: np.ndarray) -> np.ndarray:
    """``h0 * prod (1 - r z^{-1})`` over the roots strictly inside the unit circle."""
    # poly() coefficients double as z^{-1}-polynomial coefficients of
    # prod (1 - r z^{-1}); an empty root list yields [1].
    inside = roots[np.abs(roots) < 1.0]
    return h0 * np.atleast_1d(np.poly(inside)).astype(np.complex128)


def classify_rows(rows):
    """Phase class of every row of an ``(n, L)`` tap stack.

    Returns ``(phases, roots)``: ``phases[i]`` is ``None`` when a root of
    row ``i`` lies in the ring ``1 - RING_TOL < |z| < 1 + RING_TOL``, where
    the MP/NMP split is undefined, and ``roots[i]`` holds the row's roots in
    :func:`signal_core.polynomial_roots` order (the input of
    :func:`minimum_phase_factor`), or ``None`` when the row was certified.

    A row whose first tap dominates, ``|h_0| > sum_{k>=1} |h_k| r^{-(L-1)}``
    with ``r = 1 - 2 RING_TOL``, has every root strictly inside radius ``r``:
    it is certified strictly minimum-phase without finding its roots.  The
    other rows get one stacked eigenvalue call on the companion matrices that
    ``np.roots`` builds, which yields the same roots to the bit.
    """
    h = np.asarray(rows, dtype=np.complex128)
    n, length = h.shape
    mags = np.abs(h)
    if np.any(mags[:, 0] == 0.0):
        raise ValueError("h[0] = 0: strip leading zeros (pure delay) first")
    # rows whose last tap polynomial_roots would keep share one companion size
    full = mags[:, -1] > 1e-14 * mags.max(axis=1)
    bound = mags[:, 1:].sum(axis=1) * (1.0 - 2.0 * RING_TOL) ** -(length - 1)
    certified = full & (mags[:, 0] > bound)
    roots = [None] * n
    stacked = np.flatnonzero(full & ~certified)
    if stacked.size:
        c = h[stacked]
        companion = np.zeros((stacked.size, length - 1, length - 1), dtype=np.complex128)
        companion[:, 0, :] = -c[:, 1:] / c[:, :1]
        sub = np.arange(length - 2)
        companion[:, sub + 1, sub] = 1.0
        r = np.linalg.eigvals(companion)
        r = np.take_along_axis(r, np.lexsort((r.imag, r.real), axis=-1), axis=-1)
        for i, row_roots in zip(stacked.tolist(), r):
            roots[i] = row_roots
    for i in np.flatnonzero(~full).tolist():
        roots[i] = polynomial_roots(h[i])
    phases = [Phase.STRICTLY_MP if r is None else _phase_of_roots(r) for r in roots]
    return phases, roots
