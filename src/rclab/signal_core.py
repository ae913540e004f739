"""Complex-valued numerical primitives shared by the rest of the library.

Sequences are plain 1-D ``numpy`` arrays of ``complex128``.  A lower-triangular
Toeplitz operator is represented by its first column only; its inverse is
computed by forward substitution, never by materializing the matrix.  All
functions here are pure and safe to call from concurrent workers.
"""

from dataclasses import dataclass

import numpy as np
import scipy.signal


class SingularChannelError(ValueError):
    """Raised when a leading tap of zero makes a convolution non-invertible."""


class NonHermitianError(ValueError):
    """Raised when a matrix fed to the Hermitian eigensolver is not Hermitian."""


def as_complex_seq(x, name: str = "sequence") -> np.ndarray:
    """Validate and convert ``x`` to a finite, non-empty 1-D complex array."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def toeplitz_inverse_first_column(h, n: int) -> np.ndarray:
    """First column of the inverse of the N x N lower-triangular Toeplitz of ``h``.

    This is the impulse response of the exact deconvolution (zero-forcing)
    filter ``g`` with ``h * g = [1, 0, ..., 0]`` over the first ``n`` samples.
    Computed by forward substitution on the banded first column in O(n * len(h)).
    """
    hv = as_complex_seq(h, "h")
    if abs(hv[0]) == 0.0:
        raise SingularChannelError("h[0] = 0: leading tap makes the channel singular")
    if n < hv.size:
        raise ValueError(f"n = {n} must be >= len(h) = {hv.size}")
    impulse = np.zeros(n, dtype=np.complex128)
    impulse[0] = 1.0
    # lfilter with denominator h runs exactly the forward-substitution recursion.
    return scipy.signal.lfilter(np.ones(1, dtype=np.complex128), hv, impulse)


@dataclass(frozen=True)
class HermitianEig:
    """Eigen-pairs of a Hermitian matrix, eigenvalues sorted descending.

    The phase of each eigenvector is normalized so that its first component
    of non-negligible magnitude is real and positive, which makes repeated
    decompositions reproducible.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(k, herm_tol: float = 1e-8) -> HermitianEig:
    """Eigen-decomposition of a Hermitian matrix with deterministic ordering."""
    km = np.asarray(k, dtype=np.complex128)
    if km.ndim != 2 or km.shape[0] != km.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {km.shape}")
    scale = np.linalg.norm(km)
    if np.linalg.norm(km - km.conj().T) > herm_tol * max(scale, 1e-300):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(km)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        sig = np.flatnonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))
        if sig.size:
            pivot = col[sig[0]]
            vectors[:, j] = col * (pivot.conjugate() / abs(pivot))
    return HermitianEig(values=values, vectors=vectors)


def least_squares(a, b) -> np.ndarray:
    """Least-squares solution of ``a @ x = b`` with minimum-norm semantics.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  The
    residual is orthogonal to the column space of ``a``; rank-deficient
    systems get the Moore-Penrose (minimum-norm) solution.
    """
    am = np.asarray(a, dtype=np.complex128)
    bm = np.asarray(b, dtype=np.complex128)
    if am.ndim != 2:
        raise ValueError("a must be 2-D")
    sol, _, _, _ = np.linalg.lstsq(am, bm, rcond=None)
    return sol


def polynomial_roots(coeffs) -> np.ndarray:
    """Roots of ``sum_k c_k z^{-k}``, reported in the z-plane.

    Trailing (high-order) coefficients that are negligible relative to the
    largest coefficient are stripped first, so pure delays do not masquerade
    as roots at the origin.  Roots are sorted by (real, imag) for stable
    downstream ordering.
    """
    c = as_complex_seq(coeffs, "coeffs")
    mags = np.abs(c)
    keep = np.flatnonzero(mags > 1e-14 * mags.max())
    if keep.size == 0 or keep[-1] == 0:
        raise ValueError("constant polynomial has no roots")
    c = c[: keep[-1] + 1]
    if abs(c[0]) == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    roots = np.roots(c)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]
