"""Configure untrained reservoir weights from channel statistics.

Two routes produce the same kind of diagonal one-pole reservoir:

* time domain - collect zero-forcing equalizer impulse responses for many
  channel draws, PCA the collection, force each principal column to be
  strictly minimum-phase by lifting its first tap until it dominates the
  tail, truncate each column's inverse filter to ``l_f`` coefficients, and
  split the reduced all-pole filter into parallel one-pole sections.
* frequency domain - sample the inverse frequency response of each draw on a
  uniform grid, PCA, then fit each principal response with an all-pole
  rational function (Sanathanan-Koerner reweighted least squares) of
  denominator order ``l_rp``.

Mixed-phase draws contribute only their minimum-phase factor; the
non-minimum-phase remainder is left to the trained window taps of the
readout.  Unstable poles produced by truncation or fitting are reflected
inside the unit circle and counted in the per-column diagnostics.

Both routes end in :func:`pole_bank`, which splits every column's reduced
all-pole filter into one-pole sections; the configured core is the vector of
their poles.  A MIMO reservoir tiles that vector once per stream, and each
copy listens to one receive stream.

Memory: a route holds one statistics array at a time and, while it forms the
covariance, one column block of the covariance product.  The statistics are
released once the covariance holds them, before its eigen-decomposition.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import PowerDelayProfile, draw_channels
from .filters import Phase, perturb_clustered_poles, section_residues
from .reservoir import ReservoirSpec
from .signal_core import hermitian_eig, hermitian_product, polynomial_roots, toeplitz_inverse_first_column

COMPENSATION_MARGIN = 0.05
COMPENSATION_FLOOR = 1e-3
REFLECTION_CAP = 0.99
SK_ITERATIONS = 10
GRID_SIZE = 256  # frequency-domain route: points of the sampled inverse responses


def empirical_covariance(vectors) -> np.ndarray:
    """``K = mean_r g_r g_r^H`` of the statistics rows ``g_r``.

    ``vectors`` is the complex ``(n_obs, n)`` array of equalizer impulse
    responses (time domain) or sampled inverse frequency responses
    (frequency domain), one realization per row.  Besides the statistics it
    holds the ``(n, n)`` result and one column block of
    :func:`signal_core.hermitian_product`, never a conjugate copy of the
    statistics.
    """
    g = np.asarray(vectors, dtype=np.complex128)
    if g.ndim != 2 or g.size == 0:
        raise ValueError("statistics must be a non-empty (n_obs, n) array")
    k = hermitian_product(g.T)
    return np.divide(k, g.shape[0], out=k)


@dataclass(frozen=True)
class ColumnDiagnostics:
    offset: float  # the lifted first tap p[0, m] (NaN on the fd route), headed b_m
    reduce_order_error: float
    n_reflected_poles: int


@dataclass(frozen=True)
class ConfigReport:
    spec: ReservoirSpec
    input_weights: np.ndarray
    diagnostics: tuple


def collect_equalizer_irs(
    pdp: PowerDelayProfile,
    n: int,
    n_obs: int,
    rng: np.random.Generator,
    require: Phase | None = None,
) -> np.ndarray:
    """Zero-forcing equalizer impulse responses of ``n_obs`` channel draws, ``(n_obs, n)``.

    Draws are resampled until their phase class is ``require`` (any class
    when ``None``), as in :func:`channel.draw_channels`.  A draw that is not
    strictly minimum-phase contributes the inverse of its minimum-phase
    factor; a factor shorter than the profile is inverted again at its own
    length, since its zero padding would change the signs of zeros.
    """
    if n < pdp.length:
        raise ValueError(f"n = {n} shorter than the channel length {pdp.length}")
    draws = draw_channels(pdp, rng, n_obs, require)
    irs = toeplitz_inverse_first_column(draws.mp_taps, n)
    for length in set(draws.mp_lengths.tolist()) - {pdp.length}:  # np.unique would import numpy.ma
        rows = np.flatnonzero(draws.mp_lengths == length)
        irs[rows] = toeplitz_inverse_first_column(draws.mp_taps[rows, :length], n)
    return irs


def pca_basis(vectors, m: int) -> np.ndarray:
    """Top-``m`` eigenvectors of the statistics' empirical covariance, deterministic order.

    The statistics are dropped once their covariance is formed, so statistics
    that the caller passes as a temporary are freed before the ``eigh``.
    """
    k = empirical_covariance(vectors)
    n_obs = len(vectors)
    del vectors
    if not 1 <= m <= k.shape[0]:
        raise ValueError(f"need 1 <= m <= {k.shape[0]}")
    if n_obs < m:
        warnings.warn(f"{m} PCA columns from only {n_obs} observations", stacklevel=2)
    return hermitian_eig(k, m)


def mp_compensate(f: np.ndarray) -> np.ndarray:
    """The ``(n, m)`` columns ``p`` of ``f``, each first tap lifted until it dominates the tail.

    The lifted tap ``p[0, m] = max((1 + COMPENSATION_MARGIN) * sum_{n>=1}
    |f[n, m]|, COMPENSATION_FLOOR)`` is real and guarantees every root of the
    column lies strictly inside the unit circle (first-tap dominance).  The
    other rows are ``f``'s own bits, so ``F = P + B`` with ``B = F - P``
    nonzero only in row 0: the skip connection's offsets.
    """
    fm = np.asarray(f, dtype=np.complex128)
    if fm.ndim != 2 or fm.size == 0:
        raise ValueError("f must be a non-empty (n, m) array")
    if not np.all(np.any(fm != 0, axis=0)):
        raise ValueError("f has an all-zero column")
    tails = np.sum(np.abs(fm[1:, :]), axis=0)
    p = fm.copy()
    p[0, :] = np.maximum((1.0 + COMPENSATION_MARGIN) * tails, COMPENSATION_FLOOR)
    return p


def reduce_order(p, l_f: int):
    """Truncate the inverse filters of strictly-MP impulse responses, one per column.

    Returns ``(q, errors)`` for the ``(n, m)`` responses ``p``: row ``k`` of
    ``q`` holds the first ``l_f`` coefficients of column ``k``'s exact
    length-``n`` inverse, and ``errors[k]`` is the Euclidean mismatch between
    the column and the impulse response of the reduced all-pole filter
    ``1/Q(z)``.
    """
    pm = np.asarray(p, dtype=np.complex128)
    if l_f < 1:
        raise ValueError("l_f must be >= 1")
    cols = pm.T
    n = cols.shape[1]
    q = toeplitz_inverse_first_column(cols, min(l_f, n))
    p_hat = toeplitz_inverse_first_column(q, n)
    return q, [float(np.linalg.norm(c - c_hat)) for c, c_hat in zip(cols, p_hat)]


def _reflect_unstable(poles: np.ndarray):
    """Pull poles on or outside the unit circle back inside; count the events."""
    out = poles.copy()
    mags = np.abs(out)
    unstable = mags >= 1.0
    n_reflected = int(np.count_nonzero(unstable))
    if n_reflected:
        new_mag = np.minimum(1.0 / mags[unstable], REFLECTION_CAP)
        out[unstable] = out[unstable] / mags[unstable] * new_mag
    return out, n_reflected


def _denominator_to_sections(q: np.ndarray, l_f: int):
    """Poles and weights of ``1/Q(z)`` padded to exactly ``l_f`` sections.

    The denominator is normalized monic, its roots stabilized by reflection
    and de-clustered by the deterministic jitter, and the residues taken at
    the adjusted poles.  Missing sections (trailing-zero coefficients or a
    degree-zero denominator) are padded with zero poles and zero weights.
    """
    lead = q[0]
    if abs(lead) == 0.0:
        raise ValueError("reduced denominator has a zero leading coefficient")
    poles, n_reflected = _reflect_unstable(polynomial_roots(q / lead))
    if poles.size > 1:
        poles = perturb_clustered_poles(poles)
    weights = section_residues(poles) / lead
    if poles.size == 0:
        # constant filter 1/lead: carry it on a zero pole
        weights = np.array([1.0 / lead], dtype=np.complex128)
        poles = np.zeros(1, dtype=np.complex128)
    # q has at most l_f coefficients, so at most l_f - 1 roots: the padding is never negative
    pad = np.zeros(l_f - poles.size, dtype=np.complex128)
    return np.concatenate([poles, pad]), np.concatenate([weights, pad]), n_reflected


STATE_RMS_TARGET = 0.005


def _drive_normalization(poles, weights) -> float:
    """Single input gain bounding the RMS state magnitude of every neuron.

    For unit-power white input the state of a one-pole neuron has RMS
    ``|c| / sqrt(1 - |p|^2)``; one global scalar keeps that below
    ``STATE_RMS_TARGET`` for the worst neuron.  A common scale changes neither the spanned
    subspace nor the per-column recombinations (the trained readout absorbs
    it), but it keeps a tanh reservoir inside its near-linear range, where
    the configured pole bank behaves as designed.
    """
    p = np.abs(np.asarray(poles))
    c = np.abs(np.asarray(weights))
    active = c > 0
    if not np.any(active):
        return 1.0
    return float(np.min(STATE_RMS_TARGET * np.sqrt(1.0 - p[active] ** 2) / c[active]))


def pole_bank(qs, errors, offsets, l_f: int, n_window: int, activation: str,
              gains=None) -> ConfigReport:
    """The configured core: each column's ``c / Q(z)`` as ``l_f`` one-pole sections.

    ``qs`` holds every column's reduced denominator, ``gains`` its numerator
    ``c`` (``None``: no multiply, as a product with 1 can flip the sign of a
    zero imaginary part), ``errors`` and ``offsets`` (the lifted first taps
    ``p[0, m]``) its diagnostics.  The readout's window holds at least the
    ``z^0`` skip tap, which carries ``B``'s row 0, ``f[0, m] - p[0, m]``; so
    ``n_window`` 0 and 1 give the same core.
    """
    poles, weights, diagnostics = [], [], []
    for col, (q, err) in enumerate(zip(qs, errors)):
        p_col, w_col, n_ref = _denominator_to_sections(q, l_f)
        poles.append(p_col)
        weights.append(w_col if gains is None else w_col * gains[col])
        diagnostics.append(ColumnDiagnostics(float(offsets[col]), err, n_ref))
    poles, weights = np.concatenate(poles), np.concatenate(weights)
    spec = ReservoirSpec(
        w_in=_drive_normalization(poles, weights) * weights[:, None],
        w_res=poles,
        activation=activation,
        n_window=max(n_window, 1),
    )
    return ConfigReport(spec, weights, tuple(diagnostics))


def configure_time_domain_report(
    pdp: PowerDelayProfile,
    n: int,
    n_obs: int,
    m: int,
    l_f: int,
    n_window: int,
    rng: np.random.Generator,
    activation: str,
) -> ConfigReport:
    """Full time-domain pipeline with per-column diagnostics."""
    p = mp_compensate(pca_basis(collect_equalizer_irs(pdp, n, n_obs, rng), m))
    return pole_bank(*reduce_order(p, l_f), p[0].real, l_f, n_window, activation)


# ---------------------------------------------------------------------------
# Frequency-domain route
# ---------------------------------------------------------------------------

def collect_inverse_responses(
    pdp: PowerDelayProfile, n_obs: int, rng: np.random.Generator
) -> np.ndarray:
    """Inverse frequency responses ``1 / H_mp(e^{j w_k})`` on the ``GRID_SIZE``-point grid.

    ``H_mp`` is the draw itself when it is strictly minimum-phase and its
    minimum-phase factor otherwise.  The reciprocal is taken in place.
    """
    # zero padding to the profile length changes no FFT input
    mp_taps = draw_channels(pdp, rng, n_obs).mp_taps
    spectra = np.fft.fft(mp_taps, GRID_SIZE, axis=-1)
    return np.divide(1.0, spectra, out=spectra)


def all_pole_fit(values: np.ndarray, order: int):
    """Fit ``values(w_k) ~= c / Q(e^{j w_k})`` with ``order`` denominator coefficients.

    ``SK_ITERATIONS`` rounds of reweighted linear least squares on
    ``c - values * Q = 0`` (weights ``1/|Q_prev|``), denominator pinned monic
    in z^0.  Returns ``(c, q)`` with ``q[0] = 1``.
    """
    v = np.asarray(values, dtype=np.complex128).ravel()
    grid_size = v.size
    if order < 1:
        raise ValueError("order must be >= 1")
    omega = 2.0 * np.pi * np.arange(grid_size) / grid_size
    basis = np.exp(-1j * np.outer(omega, np.arange(1, order)))  # (grid, order-1)
    weights = np.ones(grid_size)
    for _ in range(SK_ITERATIONS):
        a = np.concatenate([np.ones((grid_size, 1)), -v[:, None] * basis], axis=1)
        sol, _, _, _ = np.linalg.lstsq(a * weights[:, None], v * weights, rcond=None)
        c = sol[0]
        q_tail = sol[1:]
        q_eval = 1.0 + basis @ q_tail
        weights = 1.0 / np.maximum(np.abs(q_eval), 1e-12)
        if not np.all(np.isfinite(sol)):
            raise ValueError("rational fit diverged (non-finite coefficients)")
    q = np.concatenate([[1.0 + 0.0j], q_tail])
    return c, q


def configure_frequency_domain_report(
    pdp: PowerDelayProfile,
    n: int,
    n_obs: int,
    m: int,
    l_rp: int,
    n_window: int,
    rng: np.random.Generator,
    activation: str,
) -> ConfigReport:
    """Full frequency-domain pipeline with per-column diagnostics.

    The statistics are the inverse responses sampled on the fixed
    ``GRID_SIZE``-point frequency grid; ``n`` is not read.  It is kept so the
    signature matches ``configure_time_domain_report``.
    """
    f = pca_basis(collect_inverse_responses(pdp, n_obs, rng), m)
    gains, qs = zip(*(all_pole_fit(col, l_rp) for col in f.T))
    omega = 2.0 * np.pi * np.arange(GRID_SIZE) / GRID_SIZE
    steer = np.exp(-1j * np.outer(omega, np.arange(l_rp)))
    errors = [float(np.linalg.norm(c / (steer @ q) - col)) for c, q, col in zip(gains, qs, f.T)]
    return pole_bank(qs, errors, np.full(m, np.nan), l_rp, n_window, activation, gains=gains)


# ---------------------------------------------------------------------------
# MIMO assembly
# ---------------------------------------------------------------------------

def assemble_mimo(spec: ReservoirSpec, n_tx: int) -> ReservoirSpec:
    """MIMO reservoir: the SISO core's pole vector tiled once per stream.

    Copy ``i`` listens to receive stream ``i`` only, which also serves a
    factorizable channel; the cross-stream mixing lives in the trained
    output weights.
    """
    if spec.d_in != 1 or not spec.is_diagonal:
        raise ValueError("the SISO core must be a pole vector with d_in = 1")
    n = spec.n_neurons
    w_in = np.zeros((n_tx * n, n_tx), dtype=np.complex128)
    for i in range(n_tx):
        w_in[i * n : (i + 1) * n, i] = spec.w_in[:, 0]
    return ReservoirSpec(w_in, np.tile(spec.w_res, n_tx), spec.activation, spec.n_window)


def diagnostics_csv(diagnostics, fp) -> None:
    """Per-column diagnostics: ``m,b_m,reduce_order_error,n_reflected_poles``.

    ``b_m`` is the lifted first tap ``p[0, m]``, NaN on the fd route.
    """
    fp.write("m,b_m,reduce_order_error,n_reflected_poles\n")
    for m, d in enumerate(diagnostics):
        fp.write(f"{m},{d.offset:.12g},{d.reduce_order_error:.12g},{d.n_reflected_poles}\n")
