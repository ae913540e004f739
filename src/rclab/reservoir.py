"""Echo-state network dynamics and readout training.

The recurrent core is fixed (never trained): either a random sparse matrix
rescaled to a target spectral radius, or a bank of one-pole filters produced
by the weight-configuration pipeline and held as its pole vector.  Only the
linear readout is fitted, by least squares against a (possibly delayed)
target: without a ridge penalty one QR of the whitened features serves
every candidate delay and the winner's weights (a rank-deficient fit warns
and takes ``lstsq``'s minimum norm instead); with one, a Gram solve of the
features, whitened in place.  The windowed variant (WESN) feeds the readout
the current and ``n_window - 1`` past input vectors alongside the states,
which realizes an explicit FIR tap-delay line ``{z^0, ..., z^-(n_window-1)}``.

Complex tanh is applied split-wise, ``tanh(Re) + j tanh(Im)``, which reduces
to the linear case for small drive.

Detection (:func:`train_and_equalize`, a generator) trains each core on the
known prefix of a batch of signals, one element at a time.  An element's
prefix is recursed ``TRAIN_BLOCK`` samples at a time, and each block's
states go straight into the element's feature rows, so no state array of
the whole prefix is held.  The final states carry on into one recursion
that advances every core and element together in one flat state row, and
the readouts are applied ``STREAM_CHUNK`` samples at a time, straight into
one frame buffer of every core.  The output is handed out in frames as long
as the prefix (an OFDM symbol, when the prefix is the RS symbol), each as
soon as every element's readout has finished it, so no buffer grows with
the input length.  The stream builds no feature array: each readout reads
its states in place from the recursion's block and its input window from
one buffer per block, filled once for the batch and shared by every core.
Each element of each core gets the same bits as it would alone, in a stack
of one core and a batch of one element, with its whole prefix recursed in
one block.
"""

import warnings
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .signal_core import all_pole_filter, column_blocks, hermitian_product

ACTIVATIONS = ("linear", "tanh")


@dataclass(frozen=True)
class ReservoirSpec:
    """Untrained network: input weights, recurrent weights, window length.

    A diagonal core, such as a configured bank of one-pole filters, holds its
    recurrent weights as the ``(n_neurons,)`` pole vector; any other core
    holds its ``(n_neurons, n_neurons)`` matrix.  ``n_window = 0`` is a
    vanilla ESN; a window of one tap is the ``z^0`` skip connection that
    feeds the readout the raw current input.
    """

    w_in: np.ndarray  # (n_neurons, d_in)
    w_res: np.ndarray  # (n_neurons,) poles of a diagonal core, else (n_neurons, n_neurons)
    activation: str = "linear"
    n_window: int = 0

    def __post_init__(self):
        w_in = np.atleast_2d(np.asarray(self.w_in, dtype=np.complex128))
        w_res = np.asarray(self.w_res, dtype=np.complex128)
        n = w_in.shape[0]
        if w_res.shape not in ((n,), (n, n)):
            raise ValueError(f"w_res must be ({n},) or ({n}, {n}) for {n} rows of w_in, got {w_res.shape}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.n_window < 0:
            raise ValueError("n_window must be >= 0")
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "w_res", w_res)

    @property
    def n_neurons(self) -> int:
        return self.w_res.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_in.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.n_neurons + self.d_in * self.n_window

    @property
    def is_diagonal(self) -> bool:
        return self.w_res.ndim == 1


@dataclass(frozen=True)
class Readout:
    """Trained output weights and the learned decision delay."""

    w_out: np.ndarray  # (n_out, feature_dim)
    delay: int = 0

    def __post_init__(self):
        object.__setattr__(self, "w_out", np.atleast_2d(np.asarray(self.w_out, dtype=np.complex128)))
        if self.delay < 0:
            raise ValueError("delay must be >= 0")


# Samples per block of the streamed readout, split by column_blocks: states and
# features are built and consumed one block at a time, so the equalizer's
# state buffer stays within (STREAM_CHUNK + 2, batch * total neurons) whatever
# the input length.  At 128 that block is 2.17 MB for a 4x4 slot's stacked
# cores at three SNRs (1,050 complex columns), against 4.3 MB at 256 and
# 17.2 MB at 1024.  The value stays a power of two that divides 1024: BLAS
# rounds the tail columns of a product differently from its body, so the
# output bits depend on where the blocks end.  Blocks of 128 subdivide blocks
# of 1024, so only a last 1024-block of 128 samples or more may round
# differently; a README slot's is 44 samples and keeps every bit.  A chunk of
# 99 does not keep them.
STREAM_CHUNK = 128

# Samples per block of the training recursion, split by column_blocks (a lone
# last sample joins the block before it).  Each block's drive is one matrix
# product, and numpy and BLAS take narrow products down other paths, which
# round differently: blocks of 1, 2, 3 or 7 samples change a one-neuron
# core's drive at d_in 3 or 4.  Blocks of 256 give the drive of the whole
# prefix to the bit (d_in 1-4; 1-8, 35 and 140 neurons; prefixes of 257 to
# 1500 samples; one BLAS thread).  So the width is fixed, and does not follow
# STREAM_CHUNK.
TRAIN_BLOCK = 256


def _stack(specs, n_batch: int):
    """Layout of a state row holding ``n_batch`` states of every core: ``(cols, diag, dense)``.

    ``cols[k]`` are core ``k``'s columns, its batch elements one after the
    other.  The diagonal cores come first, side by side under the one
    multiplier ``diag``, each pole vector tiled once per element; the dense
    cores follow, grouped by size, and ``dense`` holds each group's
    ``(columns, n_neurons, matrices)``, one matrix per row of the group.
    """
    if len({(s.activation, s.d_in) for s in specs}) != 1:
        raise ValueError("stacked cores must share one activation and one d_in")
    is_diag = [s.is_diagonal for s in specs]
    order = sorted(range(len(specs)), key=lambda k: 0 if is_diag[k] else specs[k].n_neurons)
    cols, lo = [None] * len(specs), 0
    for k in order:
        cols[k] = slice(lo, lo + n_batch * specs[k].n_neurons)
        lo = cols[k].stop
    diag = [np.tile(specs[k].w_res, n_batch) for k in order if is_diag[k]]
    dense = []
    for n, group in groupby([k for k in order if not is_diag[k]], key=lambda k: specs[k].n_neurons):
        group = list(group)
        mats = np.stack([specs[k].w_res for k in group for _ in range(n_batch)]).transpose(0, 2, 1)
        dense.append((slice(cols[group[0]].start, cols[group[-1]].stop), n, mats))
    return cols, np.concatenate(diag or [np.empty(0, dtype=np.complex128)]), dense


def _advance(specs, layout, xs: np.ndarray, block: np.ndarray) -> None:
    """Run ``s[n] = act(W_res s[n-1] + W_in x[n])`` for every core at once, in place.

    ``layout`` is :func:`_stack`'s for ``specs`` and the batch, and ``block``
    is ``(n + 1, width)`` in that layout: row 0 holds the stacked state, and
    row ``j + 1`` receives the drive of sample ``j`` of the ``(batch, d_in,
    n)`` input and then its state.  The drive is written straight into the
    block, in row order.  Each sample takes one tiled multiply for the
    diagonal cores, one matrix product per dense group (each row by its own
    matrix, which gives the bits of the unbatched ``W_res @ s``; one
    matrix-matrix product does not), one add of the products to the drive
    and one in-place tanh over the row's float64 view.

    Three layouts keep every core's bits those of the core run alone, and the
    stacked-core tests fail if any changes: the drive is one ``np.matmul`` of
    the ``(batch, n, d_in)`` samples by ``W_in.T`` into the block's own
    ``(batch, n, n_neurons)`` view, the row-order product ``x.T @ W_in.T``
    (``W_in @ x`` rounds differently); the diagonal product stays
    ``np.multiply(diag, s)``, because numpy's complex multiply rounds
    differently with the operands swapped; and the dense matrices are a
    C-ordered ``np.stack`` of ``W_res`` viewed ``.transpose(0, 2, 1)``,
    because a concatenation of broadcast views, or a C copy of ``W_res.T``,
    reaches BLAS in another order and rounds differently.
    """
    cols, diag, dense = layout
    n_batch, _, n = xs.shape
    nd, tanh = diag.size, specs[0].activation == "tanh"
    for spec, c in zip(specs, cols):
        drive = block[1:, c].reshape(n, n_batch, spec.n_neurons).transpose(1, 0, 2)
        np.matmul(xs.transpose(0, 2, 1), spec.w_in.T, out=drive)
    prod = np.empty_like(block[0])
    prod_diag = prod[:nd]
    groups = [(prod[c].reshape(-1, 1, k), block[:-1, c].reshape(n, -1, 1, k), w) for c, k, w in dense]
    # the loop runs once per sample: ufuncs take their output positionally, which calls faster
    multiply, matmul, add = np.multiply, np.matmul, np.add
    rows = zip(block[:-1, :nd], block[1:], block[1:].view(np.float64))
    for j, (prev, row, flat) in enumerate(rows):
        if nd:
            multiply(diag, prev, prod_diag)
        for out, states, w in groups:
            matmul(states[j], w, out)
        add(row, prod, row)
        if tanh:
            np.tanh(flat, flat)


def block_states(poles, y) -> np.ndarray:
    """Linear diagonal-reservoir states in one shot: row k is ``(y * psi_k)[:N]``.

    ``psi_k`` is the impulse response of ``1 / (1 - p_k z^{-1})`` (unit input
    weight convention), run as one all-pole filter per pole.  Serves as the
    closed-form oracle for the state recursion of :func:`train_and_equalize`
    with linear activation and a diagonal core.
    """
    p = np.asarray(poles, dtype=np.complex128).ravel()
    yv = np.asarray(y, dtype=np.complex128).ravel()
    return all_pole_filter(np.column_stack([np.ones(p.size), -p]), yv)


def _window(dst: np.ndarray, x: np.ndarray, t0: int) -> None:
    """Fill ``dst``, ``(..., n_window * d_in, n)``, with the input window of samples ``[t0, t0 + n)``.

    Row block ``w`` is the ``(..., d_in, T)`` input ``x`` delayed by ``w``
    samples, zero before its start and after its end; leading axes, such as
    a batch, are filled together.
    """
    (d_in, t), n = x.shape[-2:], dst.shape[-1]
    for w in range(dst.shape[-2] // d_in):
        lead = min(max(w - t0, 0), n)
        stop = max(min(t + w - t0, n), lead)
        rows = dst[..., w * d_in : (w + 1) * d_in, :]
        rows[..., :lead] = 0.0
        rows[..., lead:stop] = x[..., t0 - w + lead : t0 - w + stop]
        rows[..., stop:] = 0.0


def _row_energy(a: np.ndarray) -> np.ndarray:
    """Each row's ``sum(|a|²)``, 32 rows at a time: only one block's float temporaries are held.

    A row's sum does not depend on the other rows, so the blocks give the
    bits of the whole array's ``np.sum(np.abs(a) ** 2, axis=1)``.
    """
    out = np.empty(a.shape[0])
    for lo, hi in column_blocks(a.shape[0], 32):
        out[lo:hi] = np.sum(np.abs(a[lo:hi]) ** 2, axis=1)
    return out


def _least_squares(f: np.ndarray, ridge: float):
    """``(weights, residuals)`` of readout fits against the C-ordered features ``f``, factored once.

    ``weights(t)`` solves ``w @ f ≈ t`` for the rows of ``t`` and
    ``residuals(t)`` gives each row's squared training error.  Rows are
    whitened to unit RMS before solving (the scales fold back into the
    weights), so the ridge penalty treats every feature equally regardless of
    the drive normalization of the states.  The fit consumes ``f``: its
    contents after the call are unspecified.

    With ``ridge > 0`` the rows are whitened in place, and each target solves
    the penalized Gram system of the whitened rows (a
    :func:`signal_core.hermitian_product`, with no conjugate copy of them);
    a residual is that of the whitened fit, ``‖v @ fw − t‖²`` for the solution ``v`` whose scaled-back
    ``v / scale`` are the weights.  With ``ridge = 0`` the rows whose
    whitening scale is zero get weight exactly 0, the minimum-norm answer for
    them, and the live rows take one QR, ``fᵀ = QR``: the weights are
    ``R⁻¹Qᴴt`` and the residual is ``‖t‖² − ‖Qᴴt‖²``.  A live ``|R_jj|`` at or under ``lstsq``'s rank
    tolerance (``eps · max(shape)`` of the largest) means the fit is
    rank-deficient: it warns and solves by ``lstsq``'s minimum norm instead.
    So do fewer samples than live rows, under the one warning that the fit
    is underdetermined, which any fit with no more samples than rows gets.
    Features that are all zero warn too: the readout can only output zero.
    """
    if f.shape[1] <= f.shape[0]:
        warnings.warn(
            f"only {f.shape[1]} samples for {f.shape[0]} features; fit is underdetermined",
            stacklevel=3,
        )
    scale = np.sqrt(_row_energy(f) / f.shape[1])
    live = scale > 1e-300
    if not np.any(live):
        warnings.warn("every feature row is zero; the readout outputs zero", stacklevel=3)
    if ridge > 0.0:
        scale = np.where(live, scale, 1.0)
        fw = np.divide(f, scale[:, None], out=f)
        gram = hermitian_product(fw)
        gram += (ridge * fw.shape[1]) * np.eye(fw.shape[0])

        def solve(t):
            return np.linalg.solve(gram, fw @ t.conj().T).conj().T

        def ridge_residuals(t):
            r = solve(t) @ fw
            r -= t
            return _row_energy(r)

        return lambda t: solve(t) / scale[None, :], ridge_residuals
    fw = f[live] / scale[live, None]
    q, r = np.linalg.qr(fw.T)
    diag = np.abs(r.diagonal())
    tol = np.finfo(np.float64).eps * max(fw.shape) * diag.max(initial=0.0)
    determined = fw.shape[1] >= fw.shape[0]
    full_rank = determined and not np.any(diag <= tol)
    if full_rank:
        qc = q.conj()

        def solve(t):
            return np.linalg.solve(r, (t @ qc).T).T
    else:
        if determined:
            warnings.warn(
                f"readout fit is rank-deficient: {np.sum(diag > tol)} of {fw.shape[0]} live "
                f"feature rows have |R_jj| above the rank tolerance {tol:.3g} over "
                f"{fw.shape[1]} samples; solving by minimum-norm lstsq",
                stacklevel=3,
            )

        def solve(t):
            return np.linalg.lstsq(fw.T, t.T, rcond=None)[0].T

    def weights(t):
        w = np.zeros((t.shape[0], f.shape[0]), dtype=np.complex128)
        w[:, live] = solve(t) / scale[live]
        return w

    def residuals(t):
        if full_rank:
            return _row_energy(t) - _row_energy(t @ qc)
        return _row_energy(weights(t) @ f - t)

    return weights, residuals


def _delay_search(features, target, d_max: int, ridge: float):
    """``(delay, weights)`` of the delay in ``[0, d_max]`` with the least training residual.

    One factorization of the features serves every delay, with the delayed
    targets stacked as rows of one array, and the refit of the winner.  The
    winner's weights are formed from its target alone, so they are exactly
    those of the same fit's ``weights`` against that one delayed target.
    Both inputs are C-ordered complex ``(rows, L)`` arrays, as
    :func:`train_and_equalize` makes them, since the fit rounds by layout.
    Like :func:`_least_squares`, the search consumes ``features``: their
    contents after the call are unspecified.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    weights, row_residuals = _least_squares(features, ridge)
    n_out, n = target.shape
    # row block d is the target delayed by d samples, zero before its start
    delayed = np.zeros((d_max + 1, n_out, n), dtype=np.complex128)
    for d, rows in enumerate(delayed):
        rows[:, d:] = target[:, : max(n - d, 0)]
    residuals = row_residuals(delayed.reshape(-1, n)).reshape(d_max + 1, -1).sum(axis=1)
    # residuals within rounding error of each other count as ties, which go
    # to the smallest delay
    tie_tol = 1e-12 * float(np.linalg.norm(target) ** 2)
    best = 0
    for d in range(1, d_max + 1):
        if residuals[d] < residuals[best] - tie_tol:
            best = d
    return best, weights(delayed[best])


def _apply_readout(dst, readout: Readout, states, window) -> None:
    """Write into ``dst`` the readout of ``n`` samples' states and input window.

    The features are read where they lie, the ``(n_neurons, n)`` states and
    the ``(n_window * d_in, n)`` window, as ``w_out[:, :k] @ states +
    w_out[:, k:] @ window``; no feature array is built.
    """
    k = states.shape[0]
    np.matmul(readout.w_out[:, :k], states, out=dst)
    if window.shape[0]:
        dst += readout.w_out[:, k:] @ window


def _train(spec: ReservoirSpec, xs, target, d_max: int, ridge: float):
    """One core over the ``(batch, d_in, L)`` known prefix, element by element: readouts and last states.

    Each element's prefix runs through a state block of at most
    ``TRAIN_BLOCK + 2`` rows, one :func:`~rclab.signal_core.column_blocks`
    block of ``TRAIN_BLOCK`` samples at a time, and each block's states go
    straight into the element's C-ordered ``(feature_dim, L)`` features, so
    no state array of the whole prefix is held.  The block is freed before
    the fit, and the features after it.  The last states come back as one
    row in :func:`_stack`'s layout for the batch.
    """
    n_batch, _, n_train = xs.shape
    k, layout = spec.n_neurons, _stack([spec], 1)
    blocks = column_blocks(n_train, TRAIN_BLOCK)
    readouts, last = [], np.empty(n_batch * k, dtype=np.complex128)
    for i, xi in enumerate(xs):
        feats = np.empty((spec.feature_dim, n_train), dtype=np.complex128)
        block = np.zeros((min(n_train, TRAIN_BLOCK + 1) + 1, k), dtype=np.complex128)
        for lo, hi in blocks:
            _advance([spec], layout, xs[i : i + 1, :, lo:hi], block[: hi - lo + 1])
            feats[:k, lo:hi] = block[1 : hi - lo + 1].T
            block[0] = block[hi - lo]
        last[i * k : (i + 1) * k] = block[0]
        del block
        _window(feats[k:], xi, 0)
        delay, w = _delay_search(feats, target, d_max, ridge)
        del feats  # consumed by the fit; the next element's are built without them
        readouts.append(Readout(w, delay))
    return readouts, last


def train_and_equalize(specs, x, target, d_max: int, ridge: float = 0.0):
    """Train readouts on the first samples of every batch element, then stream the rest in frames.

    A generator.  ``x`` is ``(batch, d_in, T)`` and ``target`` the ``(n_out,
    L)`` waveform known for the first ``L`` samples of every element.  For
    each core of ``specs`` (one activation and ``d_in``), each element's
    readout wins the delay search over ``[0, d_max]`` on the features of its
    first ``L`` samples.  The generator first yields the readouts, per core
    and element, once every core is trained.  Then it runs the input on over
    ``d_max`` trailing zero samples, in
    :func:`~rclab.signal_core.column_blocks` blocks of ``STREAM_CHUNK``
    samples (a lone last sample joins the block before it), and yields the
    output in frames of ``L`` samples, from sample ``L`` to ``T`` (only the
    last may be shorter): each a ``(cores, batch, n_out, m)`` array, yielded
    after the block that finishes it and before the next block is recursed.
    Each readout's output is advanced by its learned delay, so it stays
    aligned with the undelayed target; the prefix's own output is never
    yielded.  A frame is a view of a buffer of ``L + 2 d_max`` samples plus
    the widest block's, which the stream then overwrites, so nothing held
    scales with ``T``.  The blocks, and so the rounding of each output
    sample, depend on the lengths only.
    """
    xs = np.ascontiguousarray(x, dtype=np.complex128)
    layout = _stack(specs, len(xs))
    cols = layout[0]
    if xs.ndim != 3 or xs.shape[1] != specs[0].d_in:
        raise ValueError(f"expected input of shape (batch, d_in = {specs[0].d_in}, T), got {xs.shape}")
    tgt = np.atleast_2d(np.ascontiguousarray(target, dtype=np.complex128))
    n_batch, d_in, t = xs.shape
    n_train, end = tgt.shape[1], t + d_max
    if n_train > t:
        raise ValueError(f"target has {n_train} samples but the input only {t}")
    readouts, lasts = zip(*[_train(s, xs[:, :, :n_train], tgt, d_max, ridge) for s in specs])
    yield list(readouts)
    blocks = [(n_train + lo, hi - lo) for lo, hi in column_blocks(end - n_train, STREAM_CHUNK)]
    chunk = max((n for _, n in blocks), default=0)
    block = np.empty((chunk + 1, max(c.stop for c in cols)), dtype=np.complex128)
    for c, last in zip(cols, lasts):
        block[0, c] = last
    # one window buffer of every element, refilled for each block; a core reads its first rows
    rows = [s.feature_dim - s.n_neurons for s in specs]
    window = np.empty((n_batch, max(rows), chunk), dtype=np.complex128)
    # column p of every core's frame buffer holds output sample start - d_max + p
    start, width = n_train, n_train + chunk + 2 * d_max
    frames = np.empty((len(specs), n_batch, tgt.shape[0], width), dtype=np.complex128)
    for t0, n in blocks:
        xb = xs[:, :, t0 : t0 + n]
        if xb.shape[2] < n:
            tail = np.zeros((n_batch, d_in, n - xb.shape[2]), dtype=np.complex128)
            xb = np.concatenate([xb, tail], axis=2)
        _advance(specs, layout, xb, block[: n + 1])
        states = [block[1 : n + 1, c].reshape(n, n_batch, s.n_neurons) for s, c in zip(specs, cols)]
        _window(window[:, :, :n], xs, t0)
        for i in range(n_batch):
            for out, ros, st, r in zip(frames, readouts, states, rows):
                # samples t0 + j become output samples t0 + j - delay, kept inside [0, T)
                d = ros[i].delay
                lo, hi = max(t0, d), min(t0 + n, t + d)
                if lo < hi:
                    j, off = slice(lo - t0, hi - t0), d_max - d - start
                    _apply_readout(out[i, :, lo + off : hi + off], ros[i], st[j, i].T, window[i, :r, j])
        # every readout has written the output samples before t0 + n - d_max
        while start < t and min(start + n_train, t) <= t0 + n - d_max:
            m = min(n_train, t - start)
            yield frames[..., d_max : d_max + m]
            # the samples after the frame, some only partly written, take its place
            start += m
            live = t0 + n - start
            frames[..., d_max : d_max + live] = frames[..., d_max + m : d_max + m + live]
        block[0] = block[n]


def random_reservoir(
    n_neurons: int,
    spectral_radius: float,
    sparsity: float,
    d_in: int,
    n_window: int,
    rng: np.random.Generator,
    activation: str = "tanh",
    input_scale: float = 1.0,
) -> ReservoirSpec:
    """Random untrained network: sparse uniform recurrent matrix, rescaled.

    Exactly ``round(sparsity * n_neurons**2)`` recurrent entries are zeroed,
    which must leave at least one; the rest are complex uniform on the unit
    square, rescaled so the largest eigenvalue magnitude equals
    ``spectral_radius``.  Input weights are complex uniform on [-1, 1]^2,
    times ``input_scale``.
    """
    if not 0.0 < spectral_radius < 1.0:
        raise ValueError("need 0 < spectral_radius < 1")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("need 0 <= sparsity < 1")
    n_zero = int(round(sparsity * n_neurons * n_neurons))
    if n_zero == n_neurons * n_neurons:
        raise ValueError(
            f"sparsity = {sparsity} zeroes every recurrent weight when n_neurons = {n_neurons}")
    while True:
        w = rng.uniform(-1.0, 1.0, (n_neurons, n_neurons)) + 1j * rng.uniform(
            -1.0, 1.0, (n_neurons, n_neurons)
        )
        mask = rng.permutation(n_neurons * n_neurons)[:n_zero]
        w.ravel()[mask] = 0.0
        radius = np.max(np.abs(np.linalg.eigvals(w)))
        if radius > 0.0:
            break
    w *= spectral_radius / radius
    w_in = rng.uniform(-1.0, 1.0, (n_neurons, d_in)) + 1j * rng.uniform(
        -1.0, 1.0, (n_neurons, d_in)
    )
    return ReservoirSpec(
        w_in=input_scale * w_in,
        w_res=w,
        activation=activation,
        n_window=n_window,
    )


def dump_spec_text(spec: ReservoirSpec) -> str:
    """Text dump of a diagonal single-input spec: its pole vector beside its input weights.

    One line per neuron: ``neuron_index,pole_real,pole_imag,w_in_real,w_in_imag``.
    """
    if not spec.is_diagonal or spec.d_in != 1:
        raise ValueError("text dump is defined for diagonal single-input specs")
    lines = ["neuron_index,pole_real,pole_imag,w_in_real,w_in_imag"]
    for i, (p, c) in enumerate(zip(spec.w_res, spec.w_in[:, 0])):
        lines.append(f"{i},{p.real:.17g},{p.imag:.17g},{c.real:.17g},{c.imag:.17g}")
    return "\n".join(lines) + "\n"
