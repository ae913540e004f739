"""Subspace approximation-error analysis for ensembles of equalizer responses.

Everything revolves around the quantity

    err(F) = E_g || F F^H T(g) - T(g) ||_F^2

where ``T(g)`` is the N x N lower-triangular Toeplitz (convolution) matrix of
an equalizer impulse response ``g`` and ``F`` is an orthonormal basis of a
candidate reservoir subspace.  Two independent evaluation routes are provided:

* a Monte-Carlo route that projects every shifted copy of every realization
  (computed via FFT cross-correlations, never materializing T(g) densely:
  the basis in blocks of columns, each block one FFT of its columns, then
  one forward and one inverse FFT per realization, so its working memory
  is a few 2N x block arrays besides the N x M basis), and
* a closed-form route using the empirical covariance and lower shift matrices,
  ``sum_i [tr(K L_i^H L_i) - tr(K L_i^H F F^H L_i)]``, evaluated through the
  diagonal-cumulative-sum structure of ``sum_i L_i K L_i^H``.

Both are exact identities for a common dataset, which makes their agreement a
strong self-check of either implementation.
"""

from dataclasses import dataclass

import numpy as np

from .channel import PowerDelayProfile
from .filters import Phase
from .signal_core import column_blocks, hermitian_eig
from .weight_config import collect_equalizer_irs, empirical_covariance


# Basis columns per block of the Monte-Carlo route.  A block's spectrum and
# product buffer are each about 2N x 64 complex (2 MB at N = 1000) instead of
# 2N x m; blocks of 16 to 128 columns give the same bits.
MC_BLOCK_COLUMNS = 64


def toeplitz_frobenius_sq(g: np.ndarray) -> float:
    """``||T(g)||_F^2`` via the weighted vector norm ``sum_n (N - n) |g_n|^2``."""
    gv = np.asarray(g, dtype=np.complex128).ravel()
    n = gv.size
    return float(np.dot(np.arange(n, 0, -1), np.abs(gv) ** 2))


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer ``>= target``: a length the FFT handles fast."""
    n = target
    while True:
        rest = n
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _shift_projection_energies(f: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``E[r, m] = sum_i |<f_m, L_i g_r>|^2`` for every realization and column.

    ``<f_m, L_i g> = sum_k conj(F[k+i, m]) g[k]`` is the cross-correlation of
    column ``m`` with ``g`` at lag ``i``; only lags ``0..N-1`` contribute.
    The basis is taken ``MC_BLOCK_COLUMNS`` columns at a time: the spectrum
    of a block's reversed columns is computed once, and each realization
    then costs one forward FFT of ``g`` and one inverse FFT of the product
    per block.  FFTs and sums run per column, and no block but a one-column
    basis is one column wide, so the blocks change no bit.
    """
    n, m = f.shape
    nfft = _next_fast_len(2 * n - 1)
    out = np.empty((vectors.shape[0], m))
    for lo, hi in column_blocks(m, MC_BLOCK_COLUMNS):
        ff = np.fft.fft(np.conj(f[::-1, lo:hi]), nfft, axis=0)
        prod = np.empty_like(ff)
        for r, g in enumerate(vectors):
            gf = np.fft.fft(g, nfft)
            np.multiply(ff, gf[:, None], out=prod)
            conv = np.fft.ifft(prod, axis=0, out=prod)
            out[r, lo:hi] = np.sum(np.abs(conv[:n, :]) ** 2, axis=0)
    return out


def _monte_carlo_terms(f: np.ndarray, vectors: np.ndarray):
    """``(mean_r ||T(g_r)||_F^2, e)`` with ``e[m] = mean_r sum_i |<f_m, L_i g_r>|^2``.

    The Monte-Carlo error of the first ``m`` columns is ``mean - sum(e[:m])``.
    """
    n_obs = vectors.shape[0]
    energies = np.sum(_shift_projection_energies(f, vectors), axis=0) / n_obs
    return sum(toeplitz_frobenius_sq(g) for g in vectors) / n_obs, energies


def p2_objective_numerical(f: np.ndarray, vectors) -> float:
    """Monte-Carlo projection error ``mean_r ||F F^H T(g_r) - T(g_r)||_F^2``.

    Works column-by-column over shifted copies of each realization ``g_r``, a
    row of ``vectors`` (Pythagoras: ``||(I - FF^H) s||^2 = ||s||^2 - ||F^H s||^2``
    for the orthonormal ``F``), so no N x N matrix is ever formed.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim == 2 and vectors.size == 0:
        raise ValueError(f"statistics must be a non-empty (n_obs, n) array, got shape {vectors.shape}")
    fm = np.asarray(f, dtype=np.complex128)
    if fm.ndim != 2 or vectors.ndim != 2 or fm.shape[0] != vectors.shape[1]:
        raise ValueError("basis and dataset dimensions do not match")
    mean_norm, energies = _monte_carlo_terms(fm, vectors)
    return mean_norm - float(np.sum(energies))


def shift_accumulated_covariance(k: np.ndarray) -> np.ndarray:
    """``sum_i L_i K L_i^H``: cumulative sums of ``K`` along its diagonals."""
    km = np.asarray(k, dtype=np.complex128)
    n = km.shape[0]
    out = np.empty_like(km)
    idx = np.arange(n)
    for off in range(n):
        rows = idx[: n - off]
        out[rows, rows + off] = np.cumsum(km[rows, rows + off])
        if off:
            out[rows + off, rows] = np.cumsum(km[rows + off, rows])
    return out


def _closed_form_terms(k: np.ndarray, f: np.ndarray):
    """``(tr(K sum_i L_i^H L_i), p)`` with ``p[m] = f_m^H (sum_i L_i K L_i^H) f_m``.

    The closed-form error of the first ``m`` columns is ``total - sum(p[:m])``.
    """
    n = k.shape[0]
    total = float(np.real(np.dot(np.arange(n, 0, -1), k.diagonal())))
    zf = shift_accumulated_covariance(k) @ f
    return total, np.real(np.sum(np.multiply(np.conj(f), zf, out=zf), axis=0))


def theorem1_error(k: np.ndarray, f: np.ndarray) -> float:
    """Closed-form error ``sum_i [tr(K L_i^H L_i) - tr(K L_i^H F F^H L_i)]``.

    ``K`` is the (empirical) covariance of the equalizer responses and ``F``
    an orthonormal basis.  Costs O(N^2 M); no dense N^3 work.
    """
    km = np.asarray(k, dtype=np.complex128)
    fm = np.asarray(f, dtype=np.complex128)
    if km.ndim != 2 or km.shape[0] != km.shape[1]:
        raise ValueError("K must be square")
    if fm.ndim != 2 or fm.shape[0] != km.shape[0]:
        raise ValueError("F rows must match K")
    total, projected = _closed_form_terms(km, fm)
    return total - float(np.sum(projected))


def lemma1_error(eigenvalues, m: int) -> float:
    """Tail eigenvalue sum ``sum_{j >= m} lambda_j`` (minimum projection error)."""
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if not 0 <= m <= lam.size:
        raise ValueError(f"need 0 <= m <= {lam.size}")
    return float(np.sum(lam[m:]))


@dataclass(frozen=True)
class ApproxErrorReport:
    """Normalized numerical and closed-form error curves over subspace sizes."""

    m_values: tuple
    numerical_normalized: tuple
    theoretical_normalized: tuple

    def __post_init__(self):
        if not (len(self.m_values) == len(self.numerical_normalized) == len(self.theoretical_normalized)):
            raise ValueError("curve lengths must match m_values")
        for curve in (self.numerical_normalized, self.theoretical_normalized):
            arr = np.asarray(curve)
            if np.any(np.diff(arr) > 1e-10 * max(abs(arr[0]), 1.0)):
                raise ValueError("error curves must be nonincreasing in m")

    def max_gap(self) -> float:
        a = np.asarray(self.numerical_normalized)
        b = np.asarray(self.theoretical_normalized)
        return float(np.max(np.abs(a - b)))

    def write_csv(self, fp) -> None:
        fp.write("M,numerical_normalized,theoretical_normalized\n")
        for m, num, theo in zip(self.m_values, self.numerical_normalized, self.theoretical_normalized):
            fp.write(f"{m},{num:.17g},{theo:.17g}\n")


def approx_error_report(vectors, m_values) -> ApproxErrorReport:
    """Evaluate both error routes on one ``(n_obs, n)`` dataset for several subspace sizes.

    The cumulative structure over the eigenvector index is exploited so the
    whole sweep costs one pass over the realizations plus one covariance
    decomposition, regardless of how many ``m`` values are requested.  The
    Monte-Carlo pass takes the ``N x m_max`` basis ``MC_BLOCK_COLUMNS``
    columns at a time: one FFT of the block, then one forward FFT of each
    realization and one inverse FFT of its product with the block spectrum.
    """
    k_hat = empirical_covariance(vectors)
    vectors = np.asarray(vectors)
    n = vectors.shape[1]
    m_list = sorted(set(int(m) for m in m_values))
    if m_list[0] < 1 or m_list[-1] > n:
        raise ValueError(f"m values must lie in [1, {n}]")
    v = hermitian_eig(k_hat, m_list[-1])[1]

    # both routes are cumulative over the eigenvectors: one pass serves every m
    mean_norm, energies = _monte_carlo_terms(v, vectors)
    cum_energy = np.concatenate([[0.0], np.cumsum(energies)])
    numerical = [(mean_norm - cum_energy[m]) / mean_norm for m in m_list]
    total, projected = _closed_form_terms(k_hat, v)
    cum_proj = np.concatenate([[0.0], np.cumsum(projected)])
    theoretical = [(total - cum_proj[m]) / mean_norm for m in m_list]

    numerical = [0.0 if abs(val) < 5e-15 else val for val in numerical]
    theoretical = [0.0 if abs(val) < 5e-15 else val for val in theoretical]
    return ApproxErrorReport(
        m_values=tuple(m_list),
        numerical_normalized=tuple(numerical),
        theoretical_normalized=tuple(theoretical),
    )


def reproduce_fig5(
    pdp: PowerDelayProfile,
    n: int,
    n_obs: int,
    m_values,
    seed,
) -> ApproxErrorReport:
    """End-to-end validation run: strictly-MP draws, both curves, normalized.

    Both curves are divided by ``mean_r ||T(g_r)||_F^2``; they coincide up to
    floating-point accumulation error, decrease with the subspace size, and
    vanish at full dimension.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vectors = collect_equalizer_irs(pdp, n, n_obs, rng, require=Phase.STRICTLY_MP)
    return approx_error_report(vectors, m_values)
