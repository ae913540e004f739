"""The all-pole recursion with its input terms formed for the whole input at once.

``signal_core.all_pole_filter`` forms each step's input terms from that
step's sample and writes straight into its complex result.
:func:`whole_input_all_pole_filter` computes the ``(T, 2, batch)`` input terms
first and runs the same recursion over them into a float ``(T, 2, batch)``
output, then copies that into a complex array.  Both use the same ufunc
calls in the same operand order, so they must match to the bit, signed
zeros included.
"""

import numpy as np


def whole_input_all_pole_filter(a, x, lengths) -> np.ndarray:
    """``all_pole_filter(a, x, lengths)`` for valid arguments, ``lengths`` given."""
    av = np.asarray(a, dtype=np.complex128)
    batch = av.shape[0]
    xv = np.asarray(x, dtype=np.complex128)
    xv = np.broadcast_to(xv, (batch, xv.shape[-1]))
    sizes = np.asarray(lengths, dtype=np.int64)
    out = np.empty(xv.shape, dtype=np.complex128)
    for r in np.flatnonzero(sizes == 1) if xv.shape[1] else ():
        b = np.ones(1, dtype=np.complex128)
        b /= av[r, 0]
        out[r] = np.convolve(b, xv[r])[: xv.shape[1]]
    rows = np.flatnonzero(sizes > 1)
    if rows.size:
        out[rows] = _transposed_direct_form(av[rows, : sizes[rows].max()], xv[rows], sizes[rows])
    return out


def _transposed_direct_form(a: np.ndarray, x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Rows of at least two taps, input terms precomputed for every step.

    The delay line is ``z[part, k, row]`` with the batch innermost, so each
    elementwise step runs over long contiguous rows.  A row of ``n`` taps uses
    delays ``0 .. n - 2``; the delays after them stay ``-0.0``, the exact
    identity of addition, so a row's last delay gets ``b_k x - a_k y`` with
    nothing added from beyond its own length.
    """
    batch, width = a.shape
    t_len = x.shape[1]
    a0r = a[:, 0].real
    a0i = a[:, 0].imag
    mag = a0r * a0r + a0i * a0i

    def scaled(cr, ci):
        # real and imaginary parts of c conj(a_0), before the division by |a_0|^2
        return cr * a0r + ci * a0i, ci * a0r - cr * a0i

    def times(cr, ci, vr, vi):
        return (cr * vr - ci * vi) / mag, (ci * vr + cr * vi) / mag

    # the numerator b = [1, 0, ..., 0] contributes terms of the input alone
    xr, xi = x.real.T, x.imag.T  # (T, batch)
    head = np.stack(times(*scaled(1.0, 0.0), xr, xi), axis=1)  # (T, 2, batch)
    rest = np.stack(times(*scaled(0.0, 0.0), xr, xi), axis=1)[:, :, None, :]

    ar, ai = scaled(a.real[:, 1:].T, a.imag[:, 1:].T)  # (width - 1, batch)
    # (ti yr + tr yi) is computed as (ti yr - (-tr) yi), which rounds identically
    p = np.stack([ar, ai])
    q = np.stack([ai, -ar])
    tail = np.arange(width)[:, None] >= lengths - 1  # (width, batch)
    padded = bool(np.any(tail[:-1]))
    z = np.zeros((2, width, batch))
    z[:, tail] = -0.0
    z_next = z.copy()
    t1 = np.empty_like(p)
    t2 = np.empty_like(p)
    y = np.empty((t_len, 2, batch))
    for t in range(t_len):
        yt = y[t]
        np.add(z[:, 0], head[t], out=yt)
        np.multiply(p, yt[0], out=t1)
        np.multiply(q, yt[1], out=t2)
        np.subtract(t1, t2, out=t1)
        np.divide(t1, mag, out=t1)
        np.add(z[:, 1:], rest[t], out=z_next[:, :-1])
        np.subtract(z_next[:, :-1], t1, out=z_next[:, :-1])
        if padded:
            np.copyto(z_next, -0.0, where=tail)
        z, z_next = z_next, z
    out = np.empty((batch, t_len), dtype=np.complex128)
    out.real = y[:, 0].T
    out.imag = y[:, 1].T
    return out
