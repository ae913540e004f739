"""End-to-end symbol-detection experiments and the ``rclab`` command line.

Detectors
---------
``rc-td`` / ``rc-fd``
    Windowed echo-state detector whose untrained weights come from the
    time/frequency-domain configuration pipeline.  Trained per slot on the
    known time-domain waveform of the reference-signal (RS) symbol, applied
    to the whole slot, then hard-decided in the frequency domain.
``rc-random`` / ``vanilla-esn``
    Same detection flow with randomly generated weights (``vanilla-esn``
    additionally drops the input window).
``lmmse``
    Classical baseline: least-squares channel estimates on the RS comb,
    frequency-domain LMMSE interpolation to all subcarriers (block fading
    makes the time dimension constant), per-RE linear MMSE equalization with
    bias correction, hard decisions.

Seeding
-------
Every random draw comes from a stream keyed by ``(master_seed, purpose,
slot, ...)``, so results are byte-identical across runs and across worker
counts.  ``RC_LAB_SEED`` overrides the config seed; ``--seed`` overrides both.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import configparser
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .channel import (
    PowerDelayProfile,
    add_awgn,
    apply_channel,
    draw_channels,
    load_pdp,
    sample_parametric_mimo,
)
from .filters import Phase
from .ofdm import (
    QAM_ORDERS,
    RsMode,
    bits_per_symbol,
    build_grid,
    ofdm_demodulate,
    ofdm_modulate,
    payload,
    payload_bit_count,
    qam_decide,
    rs_subcarriers,
)
from .reservoir import (
    ACTIVATIONS,
    ReservoirSpec,
    dump_spec_text,
    random_reservoir,
    train_and_equalize,
)
from .weight_config import (
    ConfigReport,
    assemble_mimo,
    configure_frequency_domain_report,
    configure_time_domain_report,
    diagnostics_csv,
)
from .theory import reproduce_fig5

DETECTOR_NAMES = ("rc-td", "rc-fd", "rc-random", "vanilla-esn", "lmmse")
RC_DETECTOR_NAMES = ("rc-td", "rc-fd", "rc-random", "vanilla-esn")
LMMSE_ESTIMATION_BACKOFF = 10.0 ** (6.0 / 10.0)  # 6 dB estimation-SNR back-off
INSPECT_BLOCK = 4096  # draws per round of inspect-channel

# purpose tags for seed streams
_T_CHANNEL, _T_NOISE, _T_PAYLOAD, _T_RS, _T_STATS_TD, _T_STATS_FD, _T_RANDOM, _T_VANILLA = range(8)


def _stream(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


class ConfigFileError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, with its fields grouped by config-file section.

    :func:`_config_keys` takes each key's section from the field order.
    """

    # [experiment]
    seed: int = 0
    n_slots: int = 1
    snr_db: tuple = (20.0,)
    detectors: tuple = ("rc-td", "lmmse")
    qam_order: int = 16
    workers: int = 1
    # [ofdm]
    n_sc: int = 1024
    n_cp: int = 160
    n_symbols: int = 14
    rs_spacing: int = 4
    # [channel]
    pdp: str = "cdl_d"
    channel_mode: str = "siso"  # key "mode": "siso" | "mimo"
    n_tx: int = 1
    n_rx: int = 1
    n_path: int = 20
    sector_deg: float = 60.0
    angle_offset_deg: float = 5.0
    element_spacing: float = 0.5
    require_phase: str = "any"  # "any" | "strictly_mp"
    # [rc]: reservoir computing
    m: int = 5
    l_f: int = 7
    l_rp: int = 7
    n_window: int = 5
    n_neurons: int = 35
    spectral_radius: float = 0.4
    sparsity: float = 0.6
    ridge: float = 0.0
    d_max: int = 12
    activation: str = "tanh"
    input_scale: float = 1.0
    stats_n: int = 128
    stats_obs: int = 300

    def __post_init__(self):
        if not self.snr_db:
            raise ConfigFileError("snr_db list must be non-empty")
        # +inf is the noise-free channel; every other float must be finite
        if any(np.isnan(snr) or snr == -np.inf for snr in self.snr_db):
            raise ConfigFileError(f"snr_db entries must be finite or inf, got {self.snr_db}")
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ConfigFileError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.detectors:
            raise ConfigFileError("detector list must be non-empty")
        for d in self.detectors:
            if d not in DETECTOR_NAMES:
                raise ConfigFileError(f"unknown detector {d!r}; choose from {DETECTOR_NAMES}")
            if self.detectors.count(d) > 1:
                raise ConfigFileError(f"detector {d!r} is listed more than once")
        if self.channel_mode not in ("siso", "mimo"):
            raise ConfigFileError("channel mode must be 'siso' or 'mimo'")
        if self.channel_mode == "siso" and (self.n_tx != 1 or self.n_rx != 1):
            raise ConfigFileError("siso mode requires n_tx = n_rx = 1")
        if self.channel_mode == "mimo":
            if self.n_tx != self.n_rx:
                raise ConfigFileError("the detectors assume a square MIMO system (n_tx = n_rx)")
            if self.n_tx < 1:
                raise ConfigFileError("mimo mode needs n_tx = n_rx >= 1")
            if self.n_path < 1:
                raise ConfigFileError("mimo mode needs n_path >= 1")
            if not self.element_spacing > 0:
                raise ConfigFileError("mimo mode needs element_spacing > 0")
            if not self.angle_offset_deg >= 0:
                raise ConfigFileError("mimo mode needs angle_offset_deg >= 0")
            if not self.sector_deg >= 0:
                raise ConfigFileError("mimo mode needs sector_deg >= 0")
        if self.require_phase not in ("any", "strictly_mp"):
            raise ConfigFileError("require_phase must be 'any' or 'strictly_mp'")
        if self.n_slots < 0 or self.workers < 1:
            raise ConfigFileError("need n_slots >= 0 and workers >= 1")
        if self.qam_order not in QAM_ORDERS:
            raise ConfigFileError(f"qam_order must be one of {QAM_ORDERS}")
        got = f"got n_sc = {self.n_sc}, n_cp = {self.n_cp}"
        if self.n_sc < 2 or self.n_sc & (self.n_sc - 1):
            raise ConfigFileError(f"[ofdm] n_sc must be a power of two, {got}")
        if not 0 <= self.n_cp < self.n_sc:
            raise ConfigFileError(f"[ofdm] need 0 <= n_cp < n_sc, {got}")
        try:
            for mode, dets in _rs_modes(self.detectors):
                if dets:
                    rs_subcarriers(self.n_sc, self.n_tx, self.rs_spacing, mode, 0)
        except ValueError as exc:
            raise ConfigFileError(
                f"[ofdm] {exc}, got rs_spacing = {self.rs_spacing}, n_tx = {self.n_tx}") from exc
        if self.n_symbols < 2:
            raise ConfigFileError("need n_symbols >= 2 (one RS symbol plus payload)")
        if self.ridge < 0:
            raise ConfigFileError("ridge must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ConfigFileError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 < self.spectral_radius < 1.0:
            raise ConfigFileError("need 0 < spectral_radius < 1")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigFileError("need 0 <= sparsity < 1")
        for key, low in (("seed", 0), ("n_neurons", 1), ("m", 1), ("stats_obs", 1), ("l_f", 1),
                         ("l_rp", 1), ("n_window", 0), ("d_max", 0)):
            if getattr(self, key) < low:
                raise ConfigFileError(f"{key} must be >= {low}, got {getattr(self, key)}")
        rc = set(RC_DETECTOR_NAMES) & set(self.detectors)
        if rc and self.d_max >= self.n_sc + self.n_cp:
            raise ConfigFileError(f"[rc] d_max must be below the RS symbol's "
                                  f"{self.n_sc + self.n_cp} samples, got {self.d_max}")
        if {"rc-td", "rc-fd"} & rc and self.stats_obs < self.m:
            raise ConfigFileError(f"[rc] stats_obs must be >= m = {self.m}, got {self.stats_obs}")
        if ({"rc-random", "vanilla-esn"} & rc
                and round(self.sparsity * self.n_neurons * self.n_neurons) == self.n_neurons ** 2):
            raise ConfigFileError(
                f"[rc] sparsity = {self.sparsity} zeroes every recurrent weight when n_neurons = "
                f"{self.n_neurons}; the random cores need at least one")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        # no default section: a [DEFAULT] header is an unknown section like any other
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
        try:
            if not parser.read(path):
                raise ConfigFileError(f"config file not found: {path}")
            items = {section: parser.items(section) for section in parser.sections()}
        except configparser.Error as exc:
            # configparser's messages span several lines; the CLI prints one
            raise ConfigFileError(f"malformed config file: {' '.join(str(exc).split())}") from exc
        kwargs = {}
        for section, pairs in items.items():
            if section not in _CONFIG_KEYS:
                raise ConfigFileError(f"unknown config section [{section}]")
            for key, raw in pairs:
                if key not in _CONFIG_KEYS[section]:
                    raise ConfigFileError(f"unknown key {key!r} in section [{section}]")
                name, parse = _CONFIG_KEYS[section][key]
                try:
                    kwargs[name] = parse(raw)
                except ValueError as exc:
                    raise ConfigFileError(f"bad value for {section}.{key}: {raw!r}") from exc
        cfg = cls(**kwargs)
        try:
            pdp = load_pdp(cfg.pdp)  # fail early if the referenced PDP is missing or malformed
        except (FileNotFoundError, ValueError) as exc:
            raise ConfigFileError(f"[channel] pdp: {exc}") from exc
        if "rc-td" in cfg.detectors:
            _check_td_statistics(cfg, pdp)
        return cfg


def _rs_modes(detectors):
    """``(mode, detectors)`` of each RS mode: RC detectors train on the learning comb, LMMSE on the other."""
    return ((RsMode.LEARNING, [d for d in detectors if d in RC_DETECTOR_NAMES]),
            (RsMode.CONVENTIONAL, [d for d in detectors if d == "lmmse"]))


def _check_td_statistics(cfg: ExperimentConfig, pdp: PowerDelayProfile) -> None:
    """Rules of the td route, whose statistics vectors have ``stats_n`` samples."""
    if cfg.stats_n < pdp.length:
        raise ConfigFileError(
            f"the td route needs [rc] stats_n >= the channel length {pdp.length}, got {cfg.stats_n}")
    if cfg.m > cfg.stats_n:
        raise ConfigFileError(f"the td route needs [rc] m <= stats_n = {cfg.stats_n}, got {cfg.m}")


def _float_list(raw: str):
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _name_list(raw: str):
    return tuple(tok.strip() for tok in raw.replace(",", " ").split())


def _config_keys() -> dict:
    """``{section: {key: (field, parser)}}`` of the config file, from the field order.

    A section runs from its first field to the next section's.  Keys are the
    field names apart from ``channel.mode``; the two list fields have their
    own parsers and every other field parses as its annotated type.
    """
    starts = {"seed": "experiment", "n_sc": "ofdm", "pdp": "channel", "m": "rc"}
    parsers = {"snr_db": _float_list, "detectors": _name_list}
    keys, section = {}, None
    for f in fields(ExperimentConfig):
        section = starts.get(f.name, section)
        key = "mode" if f.name == "channel_mode" else f.name
        keys.setdefault(section, {})[key] = (f.name, parsers.get(f.name, f.type))
    return keys


_CONFIG_KEYS = _config_keys()


@dataclass(frozen=True)
class BerRecord:
    detector: str
    snr_db: float
    n_bits: int
    n_errors: int
    seed: int

    @property
    def ber(self) -> float:
        return self.n_errors / self.n_bits if self.n_bits else 0.0


def write_ber_csv(records, fp) -> None:
    fp.write("detector,snr_db,n_bits,n_errors,ber,seed\n")
    for r in records:
        fp.write(f"{r.detector},{r.snr_db:.10g},{r.n_bits},{r.n_errors},{r.ber:.10g},{r.seed}\n")


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def rc_detect(
    rx_batch: np.ndarray,
    tx_grid: np.ndarray,
    n_cp: int,
    specs,
    order: int,
    d_max: int,
    ridge: float = 0.0,
) -> np.ndarray:
    """Train on the RS symbol's known waveform, equalize the slot, decide; per core and element.

    ``rx_batch`` is ``(batch, n_rx, T)``: received versions of one transmitted
    slot, such as one per SNR, whose ``(n_sc, n_sym, n_tx)`` grid ``tx_grid``
    carries ``order``-QAM payload, sent with ``n_cp``-sample cyclic prefixes.
    Each element gets its own readout in every core of ``specs`` (including
    its decision delay), refitted from scratch; no channel estimate is ever
    formed.  One state recursion advances every core over the whole batch.
    The stream hands out the equalized slot one OFDM symbol at a time, of
    every core and element; each is demodulated as it arrives and only its
    ``uint8`` QAM decisions are kept, so no equalized waveform of the slot is
    ever held.  Returns the ``(len(specs), batch, n_payload)`` decisions in
    :func:`~rclab.ofdm.payload` order.
    """
    # the RS symbol's known waveform: symbol 0 modulated alone, so no slot waveform is formed
    rs_waveform = ofdm_modulate(tx_grid[:, :1], n_cp)
    stream = train_and_equalize(specs, rx_batch, rs_waveform, d_max, ridge)
    next(stream)  # the readouts; the decisions below exist only once training's arrays are gone
    decisions = np.zeros((len(specs), len(rx_batch)) + tx_grid.shape, dtype=np.uint8)
    # the frames are the OFDM symbols after the RS symbol, which carries no data
    for sym, frame in enumerate(stream, 1):
        decisions[..., sym, :] = qam_decide(ofdm_demodulate(frame, len(tx_grid), n_cp)[..., 0, :], order)
    return payload(decisions)


def _tap_basis(pdp: PowerDelayProfile, n_sc: int) -> np.ndarray:
    """``F diag(√p)``, ``(n_sc, n_taps)``: the PDP's steering matrix, root-power scaled.

    In ``F = exp(-2πi k τ / n_sc)`` the phase ``k τ`` is reduced mod ``n_sc``
    exactly, so taps aliasing on an RS comb match there to rounding.
    """
    phasors = np.exp(-2j * np.pi * np.arange(n_sc) / n_sc)
    return phasors[np.outer(np.arange(n_sc), pdp.delays) % n_sc] * np.sqrt(pdp.powers)


def _rs_combs(tx_grid: np.ndarray, pdp: PowerDelayProfile, basis: np.ndarray) -> list:
    """Each TX antenna's RS subcarriers ``ks`` of symbol 0; warns where ``basis[ks]`` loses rank.

    An antenna's ``ks`` are the nonzero subcarriers of its symbol 0.  Taps
    whose delays alias on an antenna's comb give ``A = basis[ks]`` a rank
    below the tap count, whatever the noise: the comb cannot tell them apart,
    and the estimate is the minimum-norm (σ = 0) or the prior-weighted (σ > 0)
    split between them.
    """
    combs = []
    for tx in range(tx_grid.shape[2]):
        ks = np.flatnonzero(tx_grid[:, 0, tx])
        if ks.size == 0:
            raise ValueError(f"no RS resource elements for antenna {tx}")
        rank = np.linalg.matrix_rank(basis[ks])
        if rank < basis.shape[1]:
            warnings.warn(f"LMMSE channel estimate is rank-deficient: PDP delays "
                          f"{pdp.delays.tolist()} span rank {rank} of {basis.shape[1]} on {ks.size} "
                          "RS subcarriers; aliasing taps cannot be told apart", stacklevel=3)
        combs.append(ks)
    return combs


def _estimate_channel_freq(
    rx_grid: np.ndarray,
    tx_grid: np.ndarray,
    combs: list,
    basis: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    """LS at RS REs of symbol 0 + frequency-domain LMMSE interpolation, per TX-RX pair.

    With ``R = basis basisᴴ`` (:func:`_tap_basis`), ``A = basis[ks]`` on an
    antenna's RS subcarriers ``ks`` (:func:`_rs_combs`) and ``σ`` the
    backed-off noise variance, the push-through identity gives ``R[:, ks]
    (R_ks + σI)⁻¹ ls = basis z`` for the least-squares ``z`` of ``[A; √σ I] z
    ≈ [ls; 0]``: one ``lstsq`` for every σ ≥ 0.  At σ = 0, or σ lost to
    rounding, it is the minimum-norm σ → 0 limit.
    """
    n_sc, _, n_rx = rx_grid.shape
    n_taps = basis.shape[1]
    root_sigma = np.sqrt(noise_var * LMMSE_ESTIMATION_BACKOFF)
    h = np.empty((n_sc, n_rx, len(combs)), dtype=np.complex128)
    for tx, ks in enumerate(combs):
        ls = rx_grid[ks, 0, :] / tx_grid[ks, 0, tx][:, None]
        z = np.linalg.lstsq(np.vstack([basis[ks], root_sigma * np.eye(n_taps)]),
                            np.vstack([ls, np.zeros((n_taps, n_rx))]), rcond=None)[0]
        h[:, :, tx] = basis @ z
    return h


def lmmse_detect(
    rx_batch: np.ndarray,
    tx_grid: np.ndarray,
    n_cp: int,
    pdp: PowerDelayProfile,
    order: int,
    noise_vars,
) -> np.ndarray:
    """Estimated-CSI LMMSE symbol detection; the ``(batch, n_payload)`` ``uint8`` decisions.

    ``rx_batch`` is ``(batch, n_rx, T)``: received versions of the
    ``(n_sc, n_sym, n_tx)`` grid ``tx_grid``, whose payload is ``order``-QAM,
    sent with ``n_cp``-sample cyclic prefixes.  Each element is demodulated,
    estimated, equalized at its own entry of ``noise_vars`` and decided
    alone, so only one element's grids are alive at a time.  The PDP's tap
    basis and the RS combs are shared by the batch.
    """
    n_sc, n_sym, _ = tx_grid.shape
    basis = _tap_basis(pdp, n_sc)
    combs = _rs_combs(tx_grid, pdp, basis)
    decisions = []
    for rx, noise_var in zip(rx_batch, noise_vars):
        rx_grid = ofdm_demodulate(rx, n_sc, n_cp)  # (n_sc, n_sym, n_rx)
        h = _estimate_channel_freq(rx_grid, tx_grid, combs, basis, noise_var)
        # per-RE MMSE equalizer H^H (H H^H + sigma^2 I)^{-1}, bias-corrected; one solve for [y | h]
        hh = h.conj().transpose(0, 2, 1)
        gram = h @ hh + noise_var * np.eye(h.shape[1])[None]
        rhs = np.concatenate([rx_grid.transpose(0, 2, 1), h], axis=2)
        del rx_grid
        try:
            sol = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:  # noise-free and rank-deficient: the sigma -> 0 limit
            warnings.warn("LMMSE equalizer is singular; using its pseudo-inverse", stacklevel=2)
            sol = np.linalg.pinv(gram) @ rhs
        del rhs
        x_hat = hh @ sol[:, :, :n_sym]  # (n_sc, n_tx, n_sym)
        gains = np.einsum("kij,kji->ki", hh, sol[:, :, n_sym:])
        del sol
        x_hat /= np.where(np.abs(gains) > 1e-12, gains, 1.0)[:, :, None]
        decisions.append(qam_decide(payload(x_hat.transpose(0, 2, 1)), order))
    return np.stack(decisions)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

def configure(cfg: ExperimentConfig, method: str) -> ConfigReport:
    """The SISO reservoir configured from ``cfg``'s statistics by ``method``, "td" or "fd"."""
    pdp = load_pdp(cfg.pdp)
    if method == "td":
        _check_td_statistics(cfg, pdp)
        return configure_time_domain_report(
            pdp, cfg.stats_n, cfg.stats_obs, cfg.m, cfg.l_f, cfg.n_window,
            _stream(cfg.seed, _T_STATS_TD), activation=cfg.activation,
        )
    return configure_frequency_domain_report(
        pdp, cfg.stats_n, cfg.stats_obs, cfg.m, cfg.l_rp, cfg.n_window,
        _stream(cfg.seed, _T_STATS_FD), activation=cfg.activation,
    )


def _configured_specs(cfg: ExperimentConfig) -> dict:
    """Build every reservoir the configured detector list needs (once per run)."""
    specs: dict[str, ReservoirSpec] = {}
    for det in cfg.detectors:
        if det in ("rc-td", "rc-fd"):
            specs[det] = assemble_mimo(configure(cfg, det.removeprefix("rc-")).spec, cfg.n_tx)
        elif det in ("rc-random", "vanilla-esn"):
            windowed = det == "rc-random"
            specs[det] = random_reservoir(
                cfg.n_neurons,
                cfg.spectral_radius,
                cfg.sparsity,
                d_in=cfg.n_rx,
                n_window=cfg.n_window if windowed else 0,
                rng=_stream(cfg.seed, _T_RANDOM if windowed else _T_VANILLA),
                activation=cfg.activation,
                input_scale=cfg.input_scale,
            )
    return specs


def _draw_slot_channel(cfg: ExperimentConfig, pdp: PowerDelayProfile, slot: int):
    """The slot's ``(L, n_rx, n_tx)`` channel taps; a SISO draw is the ``(L, 1, 1)`` case."""
    rng = _stream(cfg.seed, _T_CHANNEL, slot)
    if cfg.channel_mode == "mimo":
        return sample_parametric_mimo(pdp, cfg.n_tx, cfg.n_rx, cfg.n_path, cfg.sector_deg,
                                      cfg.angle_offset_deg, cfg.element_spacing, rng)
    require = Phase.STRICTLY_MP if cfg.require_phase == "strictly_mp" else None
    return draw_channels(pdp, rng, 1, require).taps[0][:, None, None]


def _slot_errors(cfg: ExperimentConfig, specs: dict, pdp: PowerDelayProfile, slot: int) -> dict:
    """Error/bit counts for one slot: ``{(detector, snr_index): (errors, bits)}``.

    For each RS mode, the received signals of every SNR form one batch: one
    noise-free convolution, copied per SNR, which adds its own noise.  One
    state recursion per slot advances every RC detector's core over the
    learning batch.  The batch depends on ``cfg.snr_db`` only, never on
    ``cfg.workers``.  The payload bits are packed once into the ``k``-bit
    patterns that :func:`~rclab.ofdm.build_grid` maps and
    :func:`~rclab.ofdm.qam_decide` returns, so a detector's bit errors are
    the popcount of its decisions XOR the sent patterns.
    """
    ch = _draw_slot_channel(cfg, pdp, slot)
    n_bits = payload_bit_count(cfg.n_sc, cfg.n_symbols, cfg.n_tx, cfg.qam_order)
    bits = _stream(cfg.seed, _T_PAYLOAD, slot).integers(0, 2, n_bits)
    k = bits_per_symbol(cfg.qam_order)
    sent = (bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))).astype(np.uint8)
    del bits  # the int64 draw; only its packed patterns live through the detectors
    out = {}
    for mode_idx, (mode, dets) in enumerate(_rs_modes(cfg.detectors)):
        if not dets:
            continue
        grid = build_grid(cfg.n_sc, cfg.n_tx, cfg.rs_spacing, mode, sent,
                          _stream(cfg.seed, _T_RS, slot, mode_idx), order=cfg.qam_order)
        # one noise-free convolution, then each SNR's (n_rx, T) copy gets its own noise
        clean = apply_channel(ch, ofdm_modulate(grid, cfg.n_cp))
        batch = np.repeat(clean[None], len(cfg.snr_db), axis=0)
        del clean  # each SNR's copy is in the batch
        noise_vars = [add_awgn(y, snr, _stream(cfg.seed, _T_NOISE, slot, si, mode_idx))
                      for si, (y, snr) in enumerate(zip(batch, cfg.snr_db))]
        if mode is RsMode.LEARNING:
            ests = rc_detect(batch, grid, cfg.n_cp, [specs[d] for d in dets], cfg.qam_order,
                             cfg.d_max, cfg.ridge)
        else:
            ests = [lmmse_detect(batch, grid, cfg.n_cp, pdp, cfg.qam_order, noise_vars)]
        for det, per_snr in zip(dets, ests):
            for si, decisions in enumerate(per_snr):
                out[(det, si)] = int(np.bitwise_count(decisions ^ sent).sum()), n_bits
        del ests, batch, grid  # the next mode builds its arrays without this one's alive
    return out


def run_ber_experiment(cfg: ExperimentConfig) -> list:
    """Monte-Carlo BER sweep over block-fading slots; deterministic per seed.

    Slot tasks are independent and keyed by ``(seed, slot)``, so worker-count
    changes reorder only the (exact, integer) accumulation and the output is
    byte-identical for any ``workers`` setting.
    """
    specs = _configured_specs(cfg)
    totals = {(det, si): [0, 0] for det in cfg.detectors for si in range(len(cfg.snr_db))}
    if cfg.n_slots > 0:
        pdp = load_pdp(cfg.pdp)
        if cfg.workers > 1:
            # imported here: it loads multiprocessing, which a serial run never needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(
                    pool.map(_slot_errors, *zip(*[(cfg, specs, pdp, s) for s in range(cfg.n_slots)]))
                )
        else:
            results = [_slot_errors(cfg, specs, pdp, s) for s in range(cfg.n_slots)]
        for res in results:
            for key, (err, nbits) in res.items():
                totals[key][0] += err
                totals[key][1] += nbits
    records = []
    for det in cfg.detectors:
        for si, snr in enumerate(cfg.snr_db):
            err, nbits = totals[(det, si)]
            records.append(
                BerRecord(detector=det, snr_db=snr, n_bits=nbits, n_errors=err, seed=cfg.seed)
            )
    return records


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def _resolve_seed(args, cfg_seed: int) -> int:
    env = os.environ.get("RC_LAB_SEED")
    if getattr(args, "seed", None) is not None:
        source, seed = "--seed", args.seed
    elif env is not None:
        source = "RC_LAB_SEED"
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigFileError(f"RC_LAB_SEED must be an integer, got {env!r}") from exc
    else:
        return cfg_seed
    if seed < 0:
        raise ConfigFileError(f"{source} must be >= 0, got {seed}")
    return seed


def _write_to(path, writer) -> None:
    if path is None:
        writer(sys.stdout)
        return
    with open(path, "w", newline="\n") as fp:
        writer(fp)


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    cfg = replace(cfg, seed=_resolve_seed(args, cfg.seed))
    if getattr(args, "workers", None) is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def cmd_run_ber(args) -> int:
    cfg = _load_config(args)
    records = run_ber_experiment(cfg)
    _write_to(args.out, lambda fp: write_ber_csv(records, fp))
    return 0


def cmd_validate_theorem(args) -> int:
    try:
        m_values = [int(tok) for tok in args.m.split(",") if tok]
    except ValueError as exc:
        raise ConfigFileError(f"--m must list integers, got {args.m!r}") from exc
    if not m_values:
        raise ConfigFileError("--m must list at least one subspace size")
    if args.nobs < 1:
        raise ConfigFileError(f"--nobs must be >= 1, got {args.nobs}")
    pdp = load_pdp(args.pdp)
    if args.n < pdp.length:
        raise ConfigFileError(f"--n must be >= the channel length {pdp.length}, got {args.n}")
    seed = _resolve_seed(args, 0)
    report = reproduce_fig5(pdp, args.n, args.nobs, m_values, seed)
    _write_to(args.out, report.write_csv)
    return 0


def cmd_configure(args) -> int:
    report = configure(_load_config(args), args.method)
    _write_to(args.out, lambda fp: fp.write(dump_spec_text(report.spec)))
    if args.diagnostics:
        _write_to(args.diagnostics, lambda fp: diagnostics_csv(report.diagnostics, fp))
    return 0


def cmd_inspect_channel(args) -> int:
    if args.draws < 1:
        raise ConfigFileError(f"--draws must be >= 1, got {args.draws}")
    pdp = load_pdp(args.pdp)
    rng = _stream(_resolve_seed(args, 0), _T_CHANNEL)
    counts = dict.fromkeys((p.value for p in Phase), 0)
    ring_hits = 0
    # fixed-size rounds keep memory flat in --draws; k rounds of draws are
    # the same draws, in the same generator state, as one round of their sum
    for start in range(0, args.draws, INSPECT_BLOCK):
        draws = draw_channels(pdp, rng, min(INSPECT_BLOCK, args.draws - start))
        for p in Phase:
            counts[p.value] += draws.phases.count(p)
        ring_hits += int(draws.redraws.sum())

    def writer(fp):
        fp.write("classification,count,fraction\n")
        for name, count in counts.items():
            fp.write(f"{name},{count},{count / args.draws:.10g}\n")
        fp.write(f"ring_resampled,{ring_hits},{ring_hits / args.draws:.10g}\n")

    _write_to(args.out, writer)
    return 0


def cmd_dump_spec(args) -> int:
    cfg = _load_config(args)
    report = configure(cfg, args.method)

    def writer(fp):
        spec = report.spec
        sections = spec.n_neurons // cfg.m
        fp.write(f"profile            : {load_pdp(cfg.pdp).label or cfg.pdp}\n")
        fp.write(f"method             : {args.method}\n")
        fp.write(f"neurons            : {spec.n_neurons} ({cfg.m} columns x {sections} sections)\n")
        fp.write(f"window length      : {cfg.n_window}\n")
        fp.write(f"activation         : {spec.activation}\n")
        fp.write(f"max pole magnitude : {np.max(np.abs(spec.w_res)):.6f}\n")
        fp.write("neuron  pole (mag, phase deg)        section residue (mag, phase deg)\n")
        for i, (p, c) in enumerate(zip(spec.w_res, report.input_weights)):
            fp.write(
                f"{i:>6}  ({np.abs(p):8.5f}, {np.degrees(np.angle(p)):8.2f})"
                f"        ({np.abs(c):10.5f}, {np.degrees(np.angle(c)):8.2f})\n"
            )
        fp.write("column  offset b_m   reduction error   reflected poles\n")
        for d in report.diagnostics:
            fp.write(
                f"{d.m:>6}  {d.offset:10.5g}   {d.reduce_order_error:15.5g}   {d.n_reflected_poles}\n"
            )

    _write_to(args.out, writer)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclab",
        description="Reservoir-computing symbol detection experiments",
    )
    parser.add_argument("--version", action="version", version=f"rclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run-ber", help="Monte-Carlo BER sweep from a config file")
    run.add_argument("--config", required=True, help="experiment config file (ini-style)")
    run.add_argument("--out", help="output CSV path (default: stdout)")
    run.add_argument("--seed", type=int, help="override the config/environment seed")
    run.add_argument("--workers", type=int, help="parallel slot workers")
    run.set_defaults(func=cmd_run_ber)

    val = sub.add_parser("validate-theorem", help="numerical vs closed-form error curves")
    val.add_argument("--n", type=int, required=True, help="equalizer response length")
    val.add_argument("--nobs", type=int, required=True, help="number of channel draws")
    val.add_argument("--m", required=True, help="comma-separated subspace sizes")
    val.add_argument("--seed", type=int, help="master seed (default 0)")
    val.add_argument("--pdp", default="cdl_d", help="PDP file or packaged profile name")
    val.add_argument("--out", help="output CSV path (default: stdout)")
    val.set_defaults(func=cmd_validate_theorem)

    conf = sub.add_parser("configure", help="emit a configured reservoir dump")
    conf.add_argument("--config", required=True)
    conf.add_argument("--method", choices=("td", "fd"), default="td")
    conf.add_argument("--out", help="spec dump path (default: stdout)")
    conf.add_argument("--diagnostics", help="per-column diagnostics CSV path")
    conf.add_argument("--seed", type=int)
    conf.set_defaults(func=cmd_configure)

    insp = sub.add_parser("inspect-channel", help="phase classification histogram")
    insp.add_argument("--pdp", required=True)
    insp.add_argument("--draws", type=int, default=1000)
    insp.add_argument("--seed", type=int)
    insp.add_argument("--out", help="output CSV path (default: stdout)")
    insp.set_defaults(func=cmd_inspect_channel)

    dump = sub.add_parser("dump-spec", help="human-readable configured reservoir")
    dump.add_argument("--config", required=True)
    dump.add_argument("--method", choices=("td", "fd"), default="td")
    dump.add_argument("--out", help="output path (default: stdout)")
    dump.add_argument("--seed", type=int)
    dump.set_defaults(func=cmd_dump_spec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"rclab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
