"""Frequency-selective channel generation and normalization.

Channels are tapped delay lines driven by a power delay profile (PDP).
Receiver automatic gain control is modeled as per-realization normalization
``||h||_2 = 1``, which removes path loss and shadowing from the problem.
:func:`apply_channel` takes a realization as its ``(L, N_r, N_t)`` tap
array; a single-antenna draw of length ``L`` is the ``(L, 1, 1)`` case.
A MIMO realization is drawn from the parametric form
``H_l = sum_q c_q a_r a_t^T / sqrt(N_p)`` built from uniform-linear-array
steering vectors, on the angle values the experiment config passes as given.

PDP file format: one tap per line as ``delay_samples power_db``, ``#`` comments,
optional header line ``k_factor_db <value>`` (Rician K applied to tap 0).
Coincident delays are merged (linear power sum) and powers renormalized.
"""

import importlib.resources
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filters import Phase, classify_rows, minimum_phase_factor

MAX_PHASE_RETRIES = 100


@dataclass(frozen=True)
class PowerDelayProfile:
    """Average tap powers of a multipath channel on the sample grid.

    ``delays`` are integer sample indices (strictly ascending, first = 0) and
    ``powers`` are linear weights summing to one.  ``k_factor`` is an optional
    linear Rician K applied to tap 0 (deterministic line-of-sight component).
    """

    delays: np.ndarray
    powers: np.ndarray
    k_factor: float | None = None
    label: str = ""

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=np.int64).ravel()
        p = np.asarray(self.powers, dtype=np.float64).ravel()
        if d.size == 0 or d.size != p.size:
            raise ValueError("delays and powers must be non-empty and equal length")
        if d[0] != 0:
            raise ValueError("first tap delay must be 0")
        if np.any(np.diff(d) <= 0):
            raise ValueError("delays must be strictly ascending")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"tap powers must be finite, got {p.tolist()}")
        if np.any(p <= 0):
            raise ValueError("tap powers must be positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("tap powers must sum to 1 (use from_linear to normalize)")
        if self.k_factor is not None and not 0 <= self.k_factor < np.inf:
            raise ValueError(f"k_factor must be finite and non-negative, got {self.k_factor}")
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "powers", p)

    @property
    def n_taps(self) -> int:
        return int(self.delays.size)

    @property
    def length(self) -> int:
        """Impulse-response length in samples (last delay + 1)."""
        return int(self.delays[-1]) + 1

    @classmethod
    def from_linear(cls, delays, powers, k_factor=None, label="") -> "PowerDelayProfile":
        """Build from unnormalized linear powers, merging coincident delays."""
        d = np.asarray(delays, dtype=np.int64).ravel()
        p = np.asarray(powers, dtype=np.float64).ravel()
        merged: dict[int, float] = {}
        for di, pi in zip(d, p):
            merged[int(di)] = merged.get(int(di), 0.0) + float(pi)
        keys = sorted(merged)
        pw = np.array([merged[k] for k in keys], dtype=np.float64)
        return cls(
            delays=np.array(keys, dtype=np.int64),
            powers=pw / pw.sum(),
            k_factor=k_factor,
            label=label,
        )

    @classmethod
    def from_file(cls, path) -> "PowerDelayProfile":
        """Parse the ``delay_samples power_db`` text format described above."""
        text = Path(path).read_text()
        k_factor = None
        delays, powers_db = [], []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:  # a wrong number of fields fails its unpacking with ValueError too
                if parts[0] == "k_factor_db":
                    (k_db,) = map(float, parts[1:])
                    k_factor = 10.0 ** (k_db / 10.0)
                    continue
                delay, power_db = map(float, parts)
            except ValueError:
                form = "k_factor_db value" if parts[0] == "k_factor_db" else "delay_samples power_db"
                raise ValueError(f"{path}:{ln}: expected '{form}', got {line!r}") from None
            if not delay.is_integer():
                raise ValueError(f"{path}:{ln}: delay {parts[0]} is not a whole number of samples")
            delays.append(int(delay))
            powers_db.append(power_db)
        if not delays:
            raise ValueError(f"{path}: no taps found")
        powers = 10.0 ** (np.asarray(powers_db) / 10.0)
        return cls.from_linear(delays, powers, k_factor=k_factor, label=Path(path).stem)


def load_pdp(name_or_path) -> PowerDelayProfile:
    """Load a PDP from a filesystem path or a profile shipped with the package.

    Bare names (``cdl_d``, ``cdl_e.pdp``, ...), and any path that is not a
    file, resolve against the packaged profile directory.
    """
    p = Path(name_or_path)
    if p.is_file():
        return PowerDelayProfile.from_file(p)
    name = p.name if p.name.endswith(".pdp") else p.name + ".pdp"
    resource = importlib.resources.files("rclab").joinpath("data", name)
    if resource.is_file():
        with importlib.resources.as_file(resource) as fp:
            return PowerDelayProfile.from_file(fp)
    raise FileNotFoundError(f"no PDP file or packaged profile named {name_or_path!r}")


def _draw_taps(pdp: PowerDelayProfile, rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` tapped-delay-line realizations ``(k, L)``, each AGC-normalized to unit norm.

    Taps are circular Gaussian with the Rician mean on tap 0.  Each draw
    takes its block of normals in turn (real parts, imaginary parts, then
    the diffuse part of tap 0 when there is a K factor), so the ``k`` rows
    and the generator's state are those of ``k`` draws of one.
    """
    nt = pdp.n_taps
    z = rng.standard_normal((k, 2 * nt + (2 if pdp.k_factor is not None else 0)))
    h = np.zeros((k, pdp.length), dtype=np.complex128)
    h[:, pdp.delays] = np.sqrt(pdp.powers / 2.0) * (z[:, :nt] + 1j * z[:, nt : 2 * nt])
    if pdp.k_factor is not None:
        kf = pdp.k_factor
        p0 = pdp.powers[0]
        mean = np.sqrt(kf / (kf + 1.0) * p0)
        diffuse = np.sqrt(p0 / (kf + 1.0) / 2.0)
        h[:, 0] = mean + diffuse * (z[:, -2] + 1j * z[:, -1])
    # one norm per row: np.linalg.norm along an axis sums in another order
    return h / np.array([np.linalg.norm(row) for row in h])[:, None]


@dataclass(frozen=True)
class ChannelDraws:
    """Accepted realizations, one row each.

    ``mp_taps`` holds each draw's minimum-phase part, zero-padded to the
    profile length: the taps themselves when the draw is strictly MP, its
    minimum-phase factor (:func:`filters.minimum_phase_factor` of its roots)
    otherwise.  ``mp_lengths`` are the unpadded lengths, ``phases`` the
    phase classes and ``redraws`` the rejected candidates before each draw.
    """

    taps: np.ndarray  # (n, L)
    mp_taps: np.ndarray  # (n, L)
    mp_lengths: np.ndarray  # (n,)
    phases: tuple
    redraws: np.ndarray  # (n,)


def draw_channels(
    pdp: PowerDelayProfile,
    rng: np.random.Generator,
    n: int,
    require: Phase | None = None,
) -> ChannelDraws:
    """Draw ``n`` realizations whose roots avoid the unit-circle ring.

    Candidates hitting the ring (where the MP/NMP split is undefined) are
    redrawn, as are candidates not matching ``require`` when given; a run of
    ``MAX_PHASE_RETRIES`` rejections raises ``ValueError``.
    Each round draws and classifies (:func:`filters.classify_rows`) exactly
    as many candidates as draws are missing, so no round overshoots: the
    draws, their redraw counts and the generator's final state are those of
    ``n`` single draws in sequence.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    taps = np.empty((n, pdp.length), dtype=np.complex128)
    mp_taps = np.zeros((n, pdp.length), dtype=np.complex128)
    mp_lengths = np.full(n, pdp.length, dtype=np.int64)
    phases = [None] * n
    redraws = np.zeros(n, dtype=np.int64)
    accepted = run = 0
    while accepted < n:
        candidates = _draw_taps(pdp, rng, n - accepted)
        for h, phase, roots in zip(candidates, *classify_rows(candidates)):
            if phase is None or (require is not None and phase is not require):
                run += 1
                if run == MAX_PHASE_RETRIES:
                    raise ValueError(f"no acceptable realization within {MAX_PHASE_RETRIES} "
                                     f"draws of {pdp.label or 'pdp'}")
                continue
            mp = h if phase is Phase.STRICTLY_MP else minimum_phase_factor(h[0], roots)
            taps[accepted] = h
            mp_taps[accepted, : mp.size] = mp
            mp_lengths[accepted] = mp.size
            phases[accepted] = phase
            redraws[accepted] = run
            accepted += 1
            run = 0
    return ChannelDraws(taps, mp_taps, mp_lengths, tuple(phases), redraws)


def steering_vectors(n_elements: int, spacing: float, angles) -> np.ndarray:
    """ULA responses ``exp(j 2 pi m spacing cos(angle))``, m = 0..N-1, one column per angle.

    ``spacing`` is the element spacing over the wavelength; the result is
    ``(n_elements, len(angles))``.
    """
    m = np.arange(n_elements)[:, None]
    return np.exp(2j * np.pi * m * spacing * np.cos(np.asarray(angles, dtype=np.float64)))


def sample_parametric_mimo(
    pdp: PowerDelayProfile,
    n_tx: int,
    n_rx: int,
    n_path: int,
    sector_deg: float,
    angle_offset_deg: float,
    element_spacing: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Taps ``(L, n_rx, n_tx)`` of ``H_l = sum_q c_q^l a_r,q a_t,q^T / sqrt(N_p)``.

    Arrival, then departure angles are drawn per path: a uniform centre in
    the broadside sector ``+-sector_deg`` (0 = array normal) plus a Laplace
    offset of scale ``angle_offset_deg``, converted to the axis-referenced
    angles that :func:`steering_vectors` expects, so a +-60 degree sector
    spans spatial frequencies ``cos(theta)`` in roughly [-0.87, 0.87].
    ``element_spacing`` is over the wavelength.  Each tap's PDP power is
    split equally across the ``n_path`` paths.  The realization is
    Frobenius-AGC normalized so ``sum_l ||H_l||_F^2 = N_r``.
    """
    if n_path < min(n_tx, n_rx):
        warnings.warn(
            f"n_path = {n_path} < min(n_tx, n_rx) = {min(n_tx, n_rx)}: "
            "per-tap matrices will be rank deficient",
            stacklevel=2,
        )
    half, scale = np.deg2rad(sector_deg), np.deg2rad(angle_offset_deg)
    aoa, aod = (
        np.pi / 2.0 - (rng.uniform(-half, half, n_path) + rng.laplace(0.0, scale, n_path))
        for _ in range(2)
    )
    a_rx = steering_vectors(n_rx, element_spacing, aoa)
    a_tx = steering_vectors(n_tx, element_spacing, aod)

    # Each tap's PDP power splits equally over the paths with circular
    # Gaussian gains.  A SISO Rician K-factor does not transfer here: pinning
    # the line-of-sight power to a single path would leave the strongest tap
    # matrix rank one, which no detector could separate into n_tx streams.
    length = pdp.length
    gains = np.zeros((n_path, length), dtype=np.complex128)
    scale = np.sqrt(pdp.powers / 2.0)
    noise = rng.standard_normal((n_path, pdp.n_taps)) + 1j * rng.standard_normal(
        (n_path, pdp.n_taps)
    )
    gains[:, pdp.delays] = scale[None, :] * noise

    taps = np.einsum("rq,ql,tq->lrt", a_rx, gains, a_tx) / np.sqrt(n_path)
    total = np.sum(np.abs(taps) ** 2)
    return taps * np.sqrt(n_rx / total)


def apply_channel(ch, x) -> np.ndarray:
    """Convolve transmit streams with the channel; the noise-free received streams ``y``.

    ``ch`` is the ``(L, N_r, N_t)`` tap array and ``x`` the ``(N_t, T)``
    transmit streams; ``y`` is ``(N_r, T)``.  A SISO channel is the
    ``(L, 1, 1)`` case.  Output is truncated to the input length; the noise
    is :func:`add_awgn`'s.
    """
    # ``h / 1`` and the full convolution cut to length are the exact arithmetic
    # of ``scipy.signal.lfilter(h, [1], x)``, the oracle the tests hold this to
    taps = np.asarray(ch, dtype=np.complex128)
    xs = np.asarray(x, dtype=np.complex128)
    if taps.ndim != 3 or xs.ndim != 2 or xs.shape[0] != taps.shape[2]:
        raise ValueError(
            f"expected (L, N_r, N_t) taps and (N_t, T) streams, got {taps.shape} and {xs.shape}")
    _, n_rx, n_tx = taps.shape
    t = xs.shape[1]
    y = np.zeros((n_rx, t), dtype=np.complex128)
    for r in range(n_rx):
        for c in range(n_tx):
            y[r] += np.convolve(taps[:, r, c] / 1, xs[c])[:t]
    return y


def add_awgn(y: np.ndarray, snr_db: float, rng) -> float:
    """Add complex white Gaussian noise to the ``(N_r, T)`` signal ``y`` in place; returns its variance.

    The SNR is the average power of ``y`` as given over the noise power,
    per receive antenna, and the returned variance is the mean over the
    antennas.  ``snr_db = inf`` leaves ``y`` as it is and returns 0;
    ``-inf`` and NaN raise ``ValueError``.
    """
    if snr_db == np.inf:
        return 0.0
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or inf, got {snr_db}")
    snr = 10.0 ** (snr_db / 10.0)
    p_sig = np.mean(np.abs(y) ** 2, axis=-1, keepdims=True)
    noise_var = p_sig / snr
    y += (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)) * np.sqrt(noise_var / 2.0)
    return float(np.mean(noise_var))
