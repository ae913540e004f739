"""Complex-valued numerical primitives shared by the rest of the library.

The filters take tap vectors as ``(batch, L)`` stacks of ``complex128``, one
vector per row; :func:`polynomial_roots` takes one 1-D coefficient sequence.
A lower-triangular Toeplitz operator is represented by its first column only;
its inverse is computed by forward substitution, never by materializing the
matrix.  All functions here are pure and safe to call from concurrent workers.
"""

import numpy as np


def all_pole_filter(a, x) -> np.ndarray:
    """The input ``x`` filtered by ``1 / A(z)`` for every row ``A`` of ``a``.

    ``a`` is ``(batch, L)``: row ``r`` holds ``A_r(z) = sum_k a[r, k] z^{-k}``.
    ``x`` is one ``(T,)`` input shared by every row; the result is ``(batch, T)``.

    The recursion is the direct form II transposed one, in complex arithmetic
    written out as real operations: every coefficient enters as
    ``a_k conj(a_0) / |a_0|^2``, and each step updates delay ``k`` from the
    previous value of delay ``k + 1``, so one step covers every delay of every
    row.  A one-tap ``A`` is a plain scaling, ``np.convolve(1 / a_0, x)``.
    Batching rows never changes a row's result.
    """
    av = np.asarray(a, dtype=np.complex128)
    if av.ndim != 2 or av.shape[1] == 0:
        raise ValueError(f"a must be a non-empty (batch, L) array, got shape {av.shape}")
    if np.any(av[:, 0] == 0.0):
        raise ValueError("a[0] = 0: the leading tap makes 1 / A(z) singular")
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim != 1:
        raise ValueError(f"x must be (T,), got shape {xv.shape}")
    if av.shape[1] > 1:
        return _transposed_direct_form(av, xv)
    out = np.empty((av.shape[0], xv.size), dtype=np.complex128)
    for r in range(av.shape[0]) if xv.size else ():  # np.convolve rejects empty input
        out[r] = np.convolve(1 / av[r, :1], xv)
    return out


def _transposed_direct_form(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`all_pole_filter` for rows of at least two taps.

    The delay line is ``z[part, k, row]`` with the batch innermost, so each
    elementwise step runs over long contiguous rows.  A row of ``L`` taps uses
    delays ``0 .. L - 2``; the top delay stays ``-0.0``, the exact identity of
    addition, so delay ``L - 2`` gets ``b_k x - a_k y`` with nothing added.
    Each step forms the input terms of its own sample and writes its output
    into the complex result, so apart from the result the memory is a few
    ``(2, L, batch)`` arrays whatever the input's length.
    """
    batch, width = a.shape
    a0r = a[:, 0].real
    a0i = a[:, 0].imag
    mag = a0r * a0r + a0i * a0i

    def scaled(cr, ci):
        # real and imaginary parts of c conj(a_0), before the division by |a_0|^2
        return cr * a0r + ci * a0i, ci * a0r - cr * a0i

    # the numerator b = [1, 0, ..., 0] contributes terms of the input alone,
    # b_k conj(a_0) x / |a_0|^2 for k = 0 (head) and k > 0 (rest); each step
    # forms [re head, re rest, im head, im rest] as (cr xr - ci xi, ci xr + cr xi)
    (b0r, b0i), (bkr, bki) = scaled(1.0, 0.0), scaled(0.0, 0.0)
    x_coef = np.stack([b0r, bkr, b0i, bki])
    y_coef = np.stack([b0i, bki, b0r, bkr])
    xr, xi = x.real, x.imag
    s1 = np.empty((4, batch))
    s2 = np.empty((4, batch))
    terms = np.empty((4, batch))
    head = terms.reshape(2, 2, batch)[:, 0]  # (part, batch)
    rest = terms.reshape(2, 2, batch)[:, 1, None]  # (part, 1, batch)

    ar, ai = scaled(a.real[:, 1:].T, a.imag[:, 1:].T)  # (width - 1, batch)
    # (ti yr + tr yi) is computed as (ti yr - (-tr) yi), which rounds identically
    p = np.stack([ar, ai])
    q = np.stack([ai, -ar])
    z = np.zeros((2, width, batch))
    z[:, -1] = -0.0
    z_next = z.copy()
    t1 = np.empty_like(p)
    t2 = np.empty_like(p)
    out = np.empty((batch, x.size), dtype=np.complex128)
    y = out.view(np.float64).reshape(batch, x.size, 2).T  # (part, T, batch) view of out
    for t in range(x.size):
        np.multiply(x_coef, xr[t], out=s1)
        np.multiply(y_coef, xi[t], out=s2)
        np.subtract(s1[:2], s2[:2], out=terms[:2])
        np.add(s1[2:], s2[2:], out=terms[2:])
        np.divide(terms, mag, out=terms)
        yt = y[:, t]
        np.add(z[:, 0], head, out=yt)
        np.multiply(p, yt[0], out=t1)
        np.multiply(q, yt[1], out=t2)
        np.subtract(t1, t2, out=t1)
        np.divide(t1, mag, out=t1)
        np.add(z[:, 1:], rest, out=z_next[:, :-1])
        np.subtract(z_next[:, :-1], t1, out=z_next[:, :-1])
        z, z_next = z_next, z
    return out


def toeplitz_inverse_first_column(h, n: int) -> np.ndarray:
    """First columns of the inverses of the n x n lower-triangular Toeplitz of each row of ``h``.

    ``h`` is a ``(batch, L)`` stack of tap vectors and the result is
    ``(batch, n)``.  Row ``r`` is the impulse response of the exact
    deconvolution (zero-forcing) filter ``g`` with ``h[r] * g = [1, 0, ..., 0]``
    over the first ``n >= 1`` samples, so a shorter ``n`` gives the prefix of
    a longer one, bit for bit.  Computed by forward substitution on the banded
    first column in O(n * L) per row.
    """
    rows = np.asarray(h, dtype=np.complex128)
    if rows.ndim != 2 or not np.all(np.isfinite(rows)):
        raise ValueError(f"h must be a finite (batch, L) stack, got shape {rows.shape}")
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
    impulse = np.zeros(n, dtype=np.complex128)
    impulse[0] = 1.0
    # forward substitution on the first column is the recursion of 1 / H(z)
    return all_pole_filter(rows, impulse)


# Rows of ``a`` per column block of :func:`hermitian_product`: each block holds
# a (32, k) conjugate instead of a conjugate of all of ``a``.
HERMITIAN_BLOCK_ROWS = 32


def column_blocks(n: int, width: int) -> list:
    """``(lo, hi)`` bounds of consecutive ``width``-column blocks of ``n`` columns.

    A lone last column joins the block before it: numpy takes a one-column
    product (``gemv``) or sum (pairwise) down another path than a wider block,
    which rounds differently.  So a block is one column wide only when ``n`` is,
    which needs ``width >= 2``.
    """
    if width < 2:
        raise ValueError(f"width = {width} must be >= 2: a block is one column wide only when n is")
    starts = list(range(0, n, width))
    if n > 1 and n % width == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def hermitian_product(a) -> np.ndarray:
    """``a @ a.conj().T`` of a complex ``(n, k)`` array, filled in column blocks.

    The columns ``lo:hi`` of each :func:`column_blocks` block of
    ``HERMITIAN_BLOCK_ROWS`` are ``a @ a[lo:hi].conj().T``, so besides the
    ``(n, n)`` result only one block's ``(hi - lo, k)`` conjugate and
    ``(n, hi - lo)`` product are held, never a conjugate copy of ``a``.
    ``a`` may be any strided view, such as the transpose of an ``(k, n)``
    array.  Every block keeps the bits of the whole product (checked at one
    BLAS thread).
    """
    out = np.empty((a.shape[0], a.shape[0]), dtype=np.complex128)
    for lo, hi in column_blocks(a.shape[0], HERMITIAN_BLOCK_ROWS):
        out[:, lo:hi] = a @ a[lo:hi].conj().T
    return out


def hermitian_eig(k, n_vectors: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix with deterministic ordering.

    Returns ``(values, vectors)``, as ``np.linalg.eigh`` does: every
    eigenvalue, sorted descending, and the top ``n_vectors`` eigenvectors
    (all when ``None``); a kept column is the same to the bit whatever the
    count.  The phase of each eigenvector is normalized so that its first
    component of non-negligible magnitude is real and positive, so repeated
    decompositions agree.  Raises ``ValueError`` if ``||K - K^H|| > 1e-8 ||K||``.
    """
    km = np.asarray(k, dtype=np.complex128)
    if km.ndim != 2 or km.shape[0] != km.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {km.shape}")
    scale = np.linalg.norm(km)
    if np.linalg.norm(km - km.conj().T) > 1e-8 * max(scale, 1e-300):
        raise ValueError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh(km)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1][:, :n_vectors].copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        sig = np.flatnonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))
        if sig.size:
            pivot = col[sig[0]]
            vectors[:, j] = col * (pivot.conjugate() / abs(pivot))
    return values, vectors


def polynomial_roots(coeffs) -> np.ndarray:
    """Roots of ``sum_k c_k z^{-k}``, reported in the z-plane.

    Trailing (high-order) coefficients that are negligible relative to the
    largest coefficient are stripped first, so pure delays do not masquerade
    as roots at the origin; a nonzero constant is left, which has no roots.
    Roots are sorted by (real, imag) for stable downstream ordering.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError(f"coeffs must be a finite, non-empty 1-D sequence, got shape {c.shape}")
    mags = np.abs(c)
    keep = np.flatnonzero(mags > 1e-14 * mags.max())
    if keep.size == 0:
        raise ValueError("the zero polynomial has no defined roots")
    c = c[: keep[-1] + 1]
    if abs(c[0]) == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    roots = np.roots(c)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]
