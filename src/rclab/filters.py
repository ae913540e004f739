"""One-pole decompositions, phase factorization, and approximate stable inverses.

An FIR tap vector ``h`` is read as the transfer function ``sum_k h_k z^{-k}``.
A channel is *strictly minimum-phase* (MP) when every root lies strictly
inside the unit circle, *strictly non-minimum-phase* (NMP) when every root
lies strictly outside, and *mixed* otherwise.  Strictly MP channels have a
stable causal all-pole inverse; anything else needs an FIR correction and a
decision delay.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .signal_core import all_pole_filter, as_complex_seq, polynomial_roots

RING_TOL = 1e-6
POLE_SEPARATION_TOL = 1e-6
POLE_JITTER = 1e-5


class UnitCircleRootError(ValueError):
    """A root fell inside the forbidden ring around the unit circle."""


class Phase(enum.Enum):
    STRICTLY_MP = "strictly_mp"
    STRICTLY_NMP = "strictly_nmp"
    MIXED = "mixed"


@dataclass(frozen=True)
class PoleSet:
    """Parallel one-pole decomposition ``sum_k c_k / (1 - p_k z^{-1})``."""

    poles: np.ndarray
    residues: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.poles, dtype=np.complex128).ravel()
        c = np.asarray(self.residues, dtype=np.complex128).ravel()
        if p.size != c.size:
            raise ValueError("poles and residues must have equal length")
        object.__setattr__(self, "poles", p)
        object.__setattr__(self, "residues", c)

    @property
    def is_stable(self) -> bool:
        return bool(np.all(np.abs(self.poles) < 1.0))

    def impulse_response(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.complex128)
        steps = np.arange(n)
        for p, c in zip(self.poles, self.residues):
            out += c * p**steps
        return out


@dataclass(frozen=True)
class PhaseFactorization:
    """``h = mp_factor * nmp_factor`` with the overall gain carried by the MP part."""

    mp_factor: np.ndarray
    nmp_factor: np.ndarray
    classification: Phase


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


def _residues_simple(poles: np.ndarray) -> np.ndarray:
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


def factorize_by_phase(h) -> PhaseFactorization:
    """Split FIR taps into minimum-phase and non-minimum-phase factors.

    Roots strictly inside the unit circle go to ``mp_factor`` (which also
    carries the overall gain); roots strictly outside go to ``nmp_factor``,
    monic in z^0.  A root with ``1 - RING_TOL < |z| < 1 + RING_TOL`` raises
    :class:`UnitCircleRootError` since the dichotomy is undefined there.
    """
    hv = as_complex_seq(h, "h")
    if abs(hv[0]) == 0.0:
        raise ValueError("h[0] = 0: strip leading zeros (pure delay) first")
    trimmed = np.trim_zeros(hv, "b")
    if trimmed.size == 1:
        return PhaseFactorization(
            mp_factor=trimmed.copy(),
            nmp_factor=np.ones(1, dtype=np.complex128),
            classification=Phase.STRICTLY_MP,
        )
    roots = polynomial_roots(trimmed)
    classification = _phase_of_roots(roots)
    if classification is None:
        raise UnitCircleRootError("root within the unit-circle tolerance ring")
    outside = roots[np.abs(roots) >= 1.0]
    nmp = np.atleast_1d(np.poly(outside)).astype(np.complex128)
    return PhaseFactorization(
        mp_factor=minimum_phase_factor(hv[0], roots), nmp_factor=nmp, classification=classification
    )


def classify_rows(rows):
    """Phase class of every row of an ``(n, L)`` tap stack, as :func:`factorize_by_phase` gives it.

    Returns ``(phases, roots)``: ``phases[i]`` is ``None`` when a root of
    row ``i`` lies in the ring, and ``roots[i]`` holds the row's roots in
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
        trimmed = np.trim_zeros(h[i], "b")
        roots[i] = polynomial_roots(trimmed) if trimmed.size > 1 else np.zeros(0, np.complex128)
    phases = [Phase.STRICTLY_MP if r is None else _phase_of_roots(r) for r in roots]
    return phases, roots


def stable_inverse_approx(h, l_ff: int, n: int):
    """Approximate stable inverse of mixed-phase taps: one-pole bank plus FIR.

    The pole bank is pinned to the roots of the minimum-phase factor (all
    strictly inside the unit circle); the ``l_ff`` FIR taps and the pole
    residues are fitted jointly by least squares against a delayed unit
    sample over an ``n``-sample horizon.  Non-minimum-phase content forces a
    decision delay: the fit targets index ``len(h) + l_ff - 2``, the largest
    the ``l_ff``-tap FIR part can reach, and larger ``l_ff`` buys both more
    delay and a longer anticausal truncation, so the residual is
    non-increasing in ``l_ff``.  Strictly MP inputs need no delay at all (the
    pole bank alone inverts them exactly), so they are fitted at delay 0.

    Returns ``(PoleSet, fir_taps, delay)``.
    """
    hv = as_complex_seq(h, "h")
    if l_ff < 1:
        raise ValueError("l_ff must be >= 1")
    fact = factorize_by_phase(hv)
    length = np.trim_zeros(hv, "b").size
    if fact.classification is Phase.STRICTLY_MP:
        delay = 0
    else:
        delay = length + l_ff - 2
    if n <= delay + length:
        raise ValueError(f"horizon n = {n} too short for delay {delay}")

    mp_roots = polynomial_roots(fact.mp_factor) if fact.mp_factor.size > 1 else np.zeros(0, complex)
    h_pad = np.zeros(n, dtype=np.complex128)
    h_pad[: hv.size] = hv
    sections = np.column_stack([np.ones(mp_roots.size), -mp_roots])
    columns = list(all_pole_filter(sections, h_pad))
    for i in range(l_ff):
        columns.append(np.roll(h_pad, i) * (np.arange(n) >= i))
    a = np.column_stack(columns)
    target = np.zeros(n, dtype=np.complex128)
    target[delay] = 1.0
    sol = np.linalg.lstsq(a, target, rcond=None)[0]
    residues = sol[: mp_roots.size]
    fir = sol[mp_roots.size :]
    return PoleSet(poles=mp_roots, residues=residues), fir, delay
