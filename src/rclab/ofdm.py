"""OFDM transmit/receive chain: square-QAM mapping, resource grids with comb
reference-signal (RS) patterns, and cyclic-prefix modulation.

Grids are ``(n_sc, n_sym, n_tx)`` complex arrays of resource elements (REs).
The first OFDM symbol of each slot carries the RS combs: unit-modulus QPSK on
each antenna's comb and exact zeros on every other RE, so an antenna's comb is
the nonzero subcarriers of its symbol 0.  The remaining symbols carry payload.
Two comb layouts are supported:

* ``conventional`` - antenna-orthogonal combs: antenna ``p`` transmits on
  subcarriers ``p * rs_spacing (mod rs_spacing * n_tx)`` while the other
  antennas keep those REs empty.  Suits estimators that need per-pair
  channel observability.
* ``learning`` - all antennas transmit distinct RS sequences on the same
  comb simultaneously, so a receiver can be trained on the full known
  time-domain waveform of the RS symbol.
"""

import enum
import functools

import numpy as np

QAM_ORDERS = (4, 16, 64)


class RsMode(enum.Enum):
    CONVENTIONAL = "conventional"
    LEARNING = "learning"


# ---------------------------------------------------------------------------
# Gray-coded square QAM with unit average energy
# ---------------------------------------------------------------------------

def _scale(order: int) -> float:
    """The level spacing of a square constellation with unit average energy, halved."""
    return np.sqrt(3.0 / (2.0 * (order - 1)))


def bits_per_symbol(order: int) -> int:
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    return int(np.log2(order))


@functools.cache
def _constellation(order: int) -> np.ndarray:
    """Read-only ``(order,)`` table: the symbol of each ``k``-bit pattern.

    A pattern's bits, most significant first, alternate between the I axis
    (even positions) and the Q axis (odd positions).
    """
    k = bits_per_symbol(order)
    idx = np.arange(1 << (k // 2))
    levels = np.empty(idx.size)
    levels[idx ^ (idx >> 1)] = 2 * idx - (idx.size - 1)  # by Gray value
    groups = (np.arange(order)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    weights = 1 << np.arange(k // 2 - 1, -1, -1)
    i, q = groups[:, 0::2] @ weights, groups[:, 1::2] @ weights
    table = _scale(order) * (levels[i] + 1j * levels[q])
    table.flags.writeable = False
    return table


def qam_map(patterns, order: int) -> np.ndarray:
    """Unit-average-energy Gray-coded QAM symbols of ``k``-bit patterns, in their shape.

    A pattern is the integer whose ``k = log2(order)`` bits, most significant
    first, are the symbol's bits: the form :func:`qam_decide` returns.
    """
    table = _constellation(order)
    p = np.asarray(patterns)
    if not np.issubdtype(p.dtype, np.integer) or (p.size and (p.min() < 0 or p.max() >= order)):
        raise ValueError(f"patterns must be integers in [0, {order})")
    return table[p]


def _axis_index(vals, order: int) -> np.ndarray:
    """Index of the nearest level on one I or Q axis of a square constellation."""
    m = int(np.sqrt(order))
    return np.clip(np.round((vals / _scale(order) + (m - 1)) / 2.0).astype(np.int64), 0, m - 1)


@functools.cache
def _decision_table(order: int) -> np.ndarray:
    """Read-only ``(m, m)`` table: each point's bit pattern, as an integer, at its level indices."""
    points = _constellation(order)
    table = np.empty((int(np.sqrt(order)),) * 2, dtype=np.uint8)
    table[_axis_index(points.real, order), _axis_index(points.imag, order)] = np.arange(order)
    table.flags.writeable = False
    return table


def qam_decide(symbols, order: int) -> np.ndarray:
    """Nearest-neighbor hard decisions, one ``uint8`` per symbol, in the shape of ``symbols``.

    Each axis rounds to the index of its nearest level, and the index pair
    looks up the symbol's bit pattern in one table, where every pattern sits
    at the level indices of its :func:`qam_map` symbol.  A decision is the
    integer whose ``k`` bits, most significant first, are the symbol's bits.
    """
    s = np.asarray(symbols, dtype=np.complex128)
    return _decision_table(order)[_axis_index(s.real, order), _axis_index(s.imag, order)]


# ---------------------------------------------------------------------------
# Resource grids
# ---------------------------------------------------------------------------

def rs_subcarriers(n_sc: int, n_tx: int, rs_spacing: int, mode: RsMode, antenna: int) -> np.ndarray:
    """Comb subcarrier indices carrying RS for one antenna."""
    if rs_spacing < 1 or n_sc % rs_spacing != 0:
        raise ValueError("rs_spacing must be a positive divisor of n_sc")
    if mode is RsMode.CONVENTIONAL:
        period = rs_spacing * n_tx
        if n_sc % period != 0:
            raise ValueError("rs_spacing * n_tx must divide n_sc in conventional mode")
        return np.arange(antenna * rs_spacing, n_sc, period)
    return np.arange(0, n_sc, rs_spacing)


def payload_bit_count(n_sc: int, n_sym: int, n_tx: int, order: int) -> int:
    """Bits needed to fill every data RE (the RS symbol carries no data)."""
    return n_sc * (n_sym - 1) * n_tx * bits_per_symbol(order)


def build_grid(
    n_sc: int,
    n_tx: int,
    rs_spacing: int,
    mode: RsMode,
    payload_patterns,
    rng: np.random.Generator,
    order: int = 16,
) -> np.ndarray:
    """The ``(n_sc, n_sym, n_tx)`` transmit grid: the RS comb symbol at position 0, then payload.

    ``payload_patterns`` holds one :func:`qam_map` pattern per payload RE, in
    :func:`payload` order; their count fixes ``n_sym``, one RS symbol plus as
    many whole payload symbols as they fill.  RS REs carry unit-modulus QPSK
    sequences drawn from ``rng`` (distinct per antenna); within the RS symbol
    every non-RS RE is empty, so the whole RS waveform is known to the
    receiver in both comb modes and payload capacity is identical across modes.
    """
    patterns = np.asarray(payload_patterns).ravel()
    per_symbol = n_sc * n_tx
    if patterns.size == 0 or patterns.size % per_symbol:
        raise ValueError(f"payload must fill whole symbols of {per_symbol} patterns, "
                         f"got {patterns.size}")

    grid = np.zeros((n_sc, patterns.size // per_symbol + 1, n_tx), dtype=np.complex128)
    for p in range(n_tx):
        comb = rs_subcarriers(n_sc, n_tx, rs_spacing, mode, p)
        quads = rng.integers(0, 4, size=comb.size)
        grid[comb, 0, p] = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quads))

    data = np.swapaxes(grid, -1, -3)[..., 1:, :]  # payload()'s view, before its reshape
    data[...] = qam_map(patterns, order).reshape(data.shape)
    return grid


def payload(grid: np.ndarray) -> np.ndarray:
    """The payload REs, ``(..., n_payload)``, of ``(..., n_sc, n_sym, n_tx)`` grid values.

    Every RE of symbols ``1 … n_sym − 1``, by antenna, then symbol, then
    subcarrier: the order in which :func:`build_grid` fills them.
    """
    data = np.swapaxes(grid, -1, -3)[..., 1:, :]
    return data.reshape(*data.shape[:-3], -1)


# ---------------------------------------------------------------------------
# Modulation
# ---------------------------------------------------------------------------

def _check_cp(n_sc: int, n_cp: int) -> None:
    """Reject a cyclic prefix outside ``[0, n_sc)``, which is no prefix of the symbol."""
    if not 0 <= n_cp < n_sc:
        raise ValueError(f"need 0 <= n_cp < n_sc, got n_sc = {n_sc}, n_cp = {n_cp}")


def ofdm_modulate(grid: np.ndarray, n_cp: int) -> np.ndarray:
    """Unitary IFFT per symbol with a cyclic prefix of ``n_cp`` samples.

    ``(n_sc, n_sym, n_tx)`` REs become ``(n_tx, n_sym * (n_sc + n_cp))`` samples.
    """
    n_sc, _, n_tx = grid.shape
    _check_cp(n_sc, n_cp)
    time = np.fft.ifft(grid, axis=0, norm="ortho")
    with_cp = np.concatenate([time[n_sc - n_cp :], time], axis=0)
    return np.ascontiguousarray(np.transpose(with_cp, (2, 1, 0))).reshape(n_tx, -1)


def ofdm_demodulate(samples, n_sc: int, n_cp: int) -> np.ndarray:
    """Strip cyclic prefixes and apply the unitary FFT, per symbol.

    ``(..., n_ant, T)`` samples become ``(..., n_sc, n_sym, n_ant)`` REs with
    ``n_sym = T / (n_sc + n_cp)``; a ``T`` that ends in a partial symbol is rejected.
    """
    _check_cp(n_sc, n_cp)
    s = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
    sym_len = n_sc + n_cp
    if s.shape[-1] % sym_len:
        raise ValueError(f"expected whole symbols of {sym_len} samples per antenna, got {s.shape[-1]}")
    blocks = s.reshape(*s.shape[:-1], -1, sym_len)[..., n_cp:]
    return np.swapaxes(np.fft.fft(blocks, axis=-1, norm="ortho"), -1, -3)
