import configparser
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclab import bench_cli as bc
from rclab import channel, reservoir
from rclab.channel import (
    PowerDelayProfile,
    add_awgn,
    apply_channel,
    load_pdp,
    sample_parametric_mimo,
)
from rclab.filters import Phase
from rclab.ofdm import (
    RsMode,
    bits_per_symbol,
    build_grid,
    ofdm_demodulate,
    ofdm_modulate,
    payload,
    payload_bit_count,
    qam_decide,
)
from rclab.reservoir import random_reservoir

from channel_reference import factorize_by_phase
from lmmse_reference import reference_estimate
from memory_guard import phase_peaks, traced_peak
from qam_reference import bit_errors, pack
from reservoir_reference import equalized


CONFIG_TEXT = """
[experiment]
seed = 11
n_slots = 2
snr_db = 15, 25
detectors = rc-td, lmmse
qam_order = 16

[ofdm]
n_sc = 256
n_cp = 32
n_symbols = 6
rs_spacing = 4

[channel]
pdp = cdl_d
mode = siso
require_phase = strictly_mp

[rc]
m = 3
l_f = 3
n_window = 3
d_max = 6
ridge = 1e-6
stats_n = 48
stats_obs = 80
"""


# every key set, each to a value other than its default
FULL_CONFIG_TEXT = """
[experiment]
seed = 3
n_slots = 2
snr_db = 5 12.5
detectors = rc-fd, vanilla-esn
qam_order = 4
workers = 2

[ofdm]
n_sc = 512
n_cp = 64
n_symbols = 7
rs_spacing = 8

[channel]
pdp = cdl_e
mode = mimo
n_tx = 2
n_rx = 2
n_path = 7
sector_deg = 45
angle_offset_deg = 2.5
element_spacing = 0.75
require_phase = strictly_mp

[rc]
m = 4
l_f = 6
l_rp = 5
n_window = 3
n_neurons = 20
spectral_radius = 0.7
sparsity = 0.25
ridge = 1e-3
d_max = 9
activation = linear
input_scale = 0.5
stats_n = 96
stats_obs = 150
"""
FULL_CONFIG = dict(
    seed=3, n_slots=2, snr_db=(5.0, 12.5), detectors=("rc-fd", "vanilla-esn"), qam_order=4,
    workers=2, n_sc=512, n_cp=64, n_symbols=7, rs_spacing=8, pdp="cdl_e", channel_mode="mimo",
    n_tx=2, n_rx=2, n_path=7, sector_deg=45.0, angle_offset_deg=2.5, element_spacing=0.75,
    require_phase="strictly_mp", m=4, l_f=6, l_rp=5, n_window=3, n_neurons=20,
    spectral_radius=0.7, sparsity=0.25, ridge=1e-3, d_max=9, activation="linear",
    input_scale=0.5, stats_n=96, stats_obs=150,
)


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(CONFIG_TEXT)
    return p


class TestExperimentConfig:
    def test_from_file(self, config_file):
        cfg = bc.ExperimentConfig.from_file(config_file)
        assert cfg.seed == 11
        assert cfg.snr_db == (15.0, 25.0)
        assert cfg.detectors == ("rc-td", "lmmse")
        assert cfg.n_sc == 256 and cfg.rs_spacing == 4
        assert cfg.require_phase == "strictly_mp"
        assert cfg.ridge == 1e-6

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nbogus = 1\n")
        with pytest.raises(bc.ConfigFileError, match="bogus"):
            bc.ExperimentConfig.from_file(p)

    def test_every_key_round_trips(self, tmp_path):
        for f in dataclasses.fields(bc.ExperimentConfig):
            assert FULL_CONFIG[f.name] != f.default, f.name
        p = tmp_path / "full.ini"
        p.write_text(FULL_CONFIG_TEXT)
        assert bc.ExperimentConfig.from_file(p) == bc.ExperimentConfig(**FULL_CONFIG)

    def test_key_in_wrong_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[ofdm]\nseed = 1\n")
        with pytest.raises(bc.ConfigFileError, match=r"unknown key 'seed' in section \[ofdm\]"):
            bc.ExperimentConfig.from_file(p)

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[nope]\na = 1\n")
        with pytest.raises(bc.ConfigFileError, match="nope"):
            bc.ExperimentConfig.from_file(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[experiment]\nseed = abc\n")
        with pytest.raises(bc.ConfigFileError):
            bc.ExperimentConfig.from_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(bc.ConfigFileError):
            bc.ExperimentConfig.from_file(tmp_path / "nope.ini")

    def test_unknown_detector(self):
        with pytest.raises(bc.ConfigFileError):
            bc.ExperimentConfig(detectors=("zf",))

    # a repeated lmmse wrote two identical rows; a repeated RC detector
    # stacked its core twice in the state recursion
    @pytest.mark.parametrize("detectors, name", [("lmmse, lmmse, rc-td", "lmmse"),
                                                 ("rc-td, rc-fd, rc-td", "rc-td")],
                             ids=["lmmse", "rc-td"])
    def test_repeated_detector_rejected_at_load(self, tmp_path, detectors, name):
        p = tmp_path / "bad.ini"
        p.write_text(f"[experiment]\ndetectors = {detectors}\n")
        with pytest.raises(bc.ConfigFileError, match=f"detector '{name}' is listed more than once"):
            bc.ExperimentConfig.from_file(p)

    # configparser's [DEFAULT] used to load silently: alone it was dropped, and
    # beside another section its keys were reported as that section's
    @pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                      "[DEFAULT]\nn_sc = 64\n[experiment]\nseed = 2\n"],
                             ids=["alone", "beside_experiment"])
    def test_default_section_is_unknown(self, tmp_path, text):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        with pytest.raises(bc.ConfigFileError, match=r"^unknown config section \[DEFAULT\]$"):
            bc.ExperimentConfig.from_file(p)

    def test_empty_snr(self):
        with pytest.raises(bc.ConfigFileError):
            bc.ExperimentConfig(snr_db=())

    def test_mimo_must_be_square(self):
        with pytest.raises(bc.ConfigFileError):
            bc.ExperimentConfig(channel_mode="mimo", n_tx=4, n_rx=2)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("experiment", "qam_order", "32"),
            ("ofdm", "rs_spacing", "3"),
            ("ofdm", "n_symbols", "1"),
            ("rc", "ridge", "-1"),
            ("rc", "activation", "relu"),
            ("rc", "spectral_radius", "1.0"),
            ("rc", "sparsity", "1.0"),
            ("rc", "d_max", "-1"),
            ("rc", "n_neurons", "0"),
            ("rc", "l_f", "0"),
            ("rc", "l_rp", "0"),
            ("rc", "n_window", "-1"),
            ("ofdm", "n_sc", "1000"),
            ("ofdm", "n_cp", "1024"),
            ("experiment", "seed", "-1"),
            ("channel", "pdp", "no_such_profile"),
            # round(0.6 * 1 * 1) zeroes the one recurrent weight of a random core
            pytest.param("rc", "n_neurons", "1\n[experiment]\ndetectors = vanilla-esn",
                         id="rc-n_neurons-all_zeroed"),
        ],
    )
    def test_rejected_at_load(self, tmp_path, section, key, value):
        p = tmp_path / "bad.ini"
        p.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(bc.ConfigFileError, match=key):
            bc.ExperimentConfig.from_file(p)

    # each of these used to load and then fail inside the slot worker
    @pytest.mark.parametrize(
        "lines, message",
        [
            ("n_tx = 0\nn_rx = 0", "n_tx = n_rx >= 1"),
            ("n_path = 0", "n_path >= 1"),
            ("element_spacing = -0.5", "element_spacing > 0"),
            ("element_spacing = 0", "element_spacing > 0"),
            ("angle_offset_deg = -5", "angle_offset_deg >= 0"),
            ("sector_deg = -5", "sector_deg >= 0"),
            ("n_tx = 3\nn_rx = 3\n[experiment]\ndetectors = lmmse",
             "rs_spacing \\* n_tx must divide n_sc .*got rs_spacing = 4, n_tx = 3"),
        ],
        ids=["n_tx", "n_path", "spacing_negative", "spacing_zero", "angle_offset", "sector",
             "lmmse_comb"],
    )
    def test_mimo_channel_rejected_at_load(self, tmp_path, lines, message):
        p = tmp_path / "bad.ini"
        p.write_text(f"[channel]\nmode = mimo\n{lines}\n")
        with pytest.raises(bc.ConfigFileError, match=message):
            bc.ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("lines, message", [
        ("n_sc = 96", r"\[ofdm\] n_sc must be a power of two, got n_sc = 96, n_cp = 160"),
        ("n_sc = 64\nn_cp = 64", r"\[ofdm\] need 0 <= n_cp < n_sc, got n_sc = 64, n_cp = 64"),
    ], ids=["n_sc", "n_cp"])
    def test_numerology_rejected_at_load(self, tmp_path, lines, message):
        p = tmp_path / "bad.ini"
        p.write_text(f"[ofdm]\n{lines}\n")
        with pytest.raises(bc.ConfigFileError, match=message):
            bc.ExperimentConfig.from_file(p)

    def test_readme_config_loads_with_every_key(self, tmp_path):
        # README's example config is a file that loads, and it names every key of every section
        readme = Path(__file__).resolve().parents[1] / "README.md"
        [block] = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
        p = tmp_path / "experiment.ini"
        p.write_text(block)
        bc.ExperimentConfig.from_file(p)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
        parser.read_string(block)
        assert {section: set(parser[section]) for section in parser.sections()} == {
            section: set(keys) for section, keys in bc._CONFIG_KEYS.items()}

    def test_learning_comb_needs_no_n_tx_period(self, tmp_path):
        # the RC detectors' comb is shared by every antenna, so n_tx = 3 loads without lmmse
        p = tmp_path / "rc.ini"
        p.write_text("[channel]\nmode = mimo\nn_tx = 3\nn_rx = 3\n"
                     "[experiment]\ndetectors = rc-td, rc-random\n")
        assert bc.ExperimentConfig.from_file(p).n_tx == 3

    # each of these used to run silently near chance level
    @pytest.mark.parametrize("rc", ["d_max = 5000", "d_max = 1184", "stats_obs = 4"],
                             ids=["d_max", "d_max_symbol_len", "stats_obs_below_m"])
    def test_rc_statistics_and_delay_rejected_at_load(self, tmp_path, rc):
        key = rc.split()[0]
        for detectors, rejected in (("rc-td", True), ("rc-fd", True), ("lmmse", False),
                                    ("rc-random", key == "d_max")):
            p = tmp_path / "bad.ini"
            p.write_text(f"[experiment]\ndetectors = {detectors}\n[rc]\n{rc}\n")
            if rejected:
                with pytest.raises(bc.ConfigFileError, match=f"{key} must be"):
                    bc.ExperimentConfig.from_file(p)
            else:
                bc.ExperimentConfig.from_file(p)

    # each of these used to load and then fail later, or run on a wrong value
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[experiment]\nsnr_db = 10, nan", "snr_db"),
            ("[experiment]\nsnr_db = -inf", "snr_db"),
            ("[rc]\nridge = nan", "ridge must be finite"),
            ("[rc]\ninput_scale = inf", "input_scale must be finite"),
            ("[channel]\nmode = mimo\nsector_deg = nan", "sector_deg must be finite"),
            ("[rc]\nstats_obs = 0", "stats_obs must be >= 1"),
            ("[rc]\nm = 0", "m must be >= 1"),
        ],
        ids=["snr_nan", "snr_minus_inf", "ridge_nan", "input_scale_inf", "sector_nan",
             "stats_obs", "m"],
    )
    def test_bad_number_rejected_at_load(self, tmp_path, text, message):
        p = tmp_path / "bad.ini"
        p.write_text(text + "\n")
        with pytest.raises(bc.ConfigFileError, match=message):
            bc.ExperimentConfig.from_file(p)

    def test_infinite_snr_is_noise_free(self, tmp_path):
        p = tmp_path / "clean.ini"
        p.write_text("[experiment]\nsnr_db = 10, inf\n")
        assert bc.ExperimentConfig.from_file(p).snr_db == (10.0, np.inf)

    # cdl_d is 13 samples long; these rules bind only when rc-td is configured
    @pytest.mark.parametrize(
        "stats_n, m, message",
        [(12, 5, "channel length 13"), (13, 14, "m <= stats_n")],
    )
    def test_td_statistics_rejected_at_load(self, tmp_path, stats_n, m, message):
        p = tmp_path / "bad.ini"
        rest = f"[channel]\npdp = cdl_d\n[rc]\nm = {m}\nstats_n = {stats_n}\n"
        p.write_text("[experiment]\ndetectors = rc-td, lmmse\n" + rest)
        with pytest.raises(bc.ConfigFileError, match=message):
            bc.ExperimentConfig.from_file(p)
        p.write_text("[experiment]\ndetectors = rc-fd, lmmse\n" + rest)
        assert bc.ExperimentConfig.from_file(p).detectors == ("rc-fd", "lmmse")


# a valid value for every config key but n_slots and workers, at a numerology
# small enough to run a slot in well under a second, then edge or invalid
# values for up to three keys
FUZZ_VALID = {
    "experiment": {
        "seed": st.integers(0, 3),
        "snr_db": st.sampled_from(["10", "5, 30", "inf"]),
        "detectors": st.lists(st.sampled_from(bc.DETECTOR_NAMES), min_size=1, max_size=3,
                              unique=True).map(", ".join),
        "qam_order": st.sampled_from([4, 16, 64]),
    },
    "ofdm": {
        "n_sc": st.sampled_from([32, 64]),
        "n_cp": st.integers(0, 16),
        "n_symbols": st.integers(2, 3),
        "rs_spacing": st.sampled_from([1, 2, 4]),
    },
    "channel": {
        "pdp": st.sampled_from(["cdl_d", "cdl_e", "flat", "mixed_3tap"]),
        "mode": st.sampled_from(["siso", "mimo"]),
        "n_tx": st.just(1),
        "n_rx": st.just(1),
        "n_path": st.integers(1, 4),
        "sector_deg": st.floats(0.0, 90.0),
        "angle_offset_deg": st.floats(0.0, 10.0),
        "element_spacing": st.floats(0.1, 1.0),
        "require_phase": st.sampled_from(["any", "strictly_mp"]),
    },
    "rc": {
        "m": st.integers(1, 4),
        "l_f": st.integers(1, 4),
        "l_rp": st.integers(1, 4),
        "n_window": st.integers(0, 3),
        "n_neurons": st.integers(1, 12),
        "spectral_radius": st.floats(0.05, 0.95),
        "sparsity": st.floats(0.0, 0.9),
        "ridge": st.sampled_from([0.0, 1e-6]),
        "d_max": st.integers(0, 10),
        "activation": st.sampled_from(["linear", "tanh"]),
        "input_scale": st.sampled_from([0.0, 0.3, 1.0]),
        "stats_n": st.integers(20, 40),
        "stats_obs": st.integers(5, 30),
    },
}
FUZZ_EDGES = {
    "seed": [-1], "snr_db": ["nan", "-inf", "-300"], "detectors": ["bogus", "lmmse, lmmse"],
    "qam_order": [2, 8], "n_sc": [1, 6, 48], "n_cp": [-1, 31, 64], "n_symbols": [0, 1],
    "rs_spacing": [-1, 0, 3, 64], "pdp": ["nope"], "mode": ["siso", "miso"],
    "n_tx": [0, 2, 3], "n_rx": [0, 2, 3], "n_path": [0], "sector_deg": [-5.0, 0.0, 360.0],
    "angle_offset_deg": [-1.0, 0.0], "element_spacing": [-0.5, 0.0], "require_phase": ["minimum"],
    "m": [0, 6, 50], "l_f": [0, 1, 12], "l_rp": [0, 12], "n_window": [-1, 0, 40],
    "n_neurons": [0, 1, 60], "spectral_radius": [0.0, 1.0, 1e-300], "sparsity": [-0.1, 0.999, 1.0],
    "ridge": [-1e-3, 1e300], "d_max": [-1, 0, 31, 500], "activation": ["relu"],
    "input_scale": [-1.0, 1e6], "stats_n": [0, 1, 5, 13], "stats_obs": [0, 1, 2],
}


@st.composite
def fuzz_config_text(draw):
    values = {key: draw(value) for keys in FUZZ_VALID.values() for key, value in keys.items()}
    if values["mode"] == "mimo":  # a square array, as the detectors assume
        values["n_tx"] = values["n_rx"] = draw(st.integers(1, 2))
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_EDGES)), max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(FUZZ_EDGES[key]))
    lines = ["[experiment]", "n_slots = 1"]
    for section, keys in FUZZ_VALID.items():
        lines += [] if section == "experiment" else [f"[{section}]"]
        lines += [f"{key} = {values[key]}" for key in keys]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=fuzz_config_text())
def test_config_fails_at_load_or_runs_a_slot(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text)
        try:
            cfg = bc.ExperimentConfig.from_file(path)
        except bc.ConfigFileError:
            return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate draws may warn; only an exception fails
        rows = bc.run_ber_experiment(cfg)
    assert len(rows) == len(cfg.detectors) * len(cfg.snr_db)


def detect_setup(n_sc=64, n_cp=8, n_sym=4, n_tx=1, mode=RsMode.LEARNING, seed=0, order=16):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, payload_bit_count(n_sc, n_sym, n_tx, order))
    grid = build_grid(n_sc, n_tx, 4, mode, pack(bits, bits_per_symbol(order)), rng, order=order)
    tx = ofdm_modulate(grid, n_cp)
    return n_cp, grid, bits, tx


class TestRcDetect:
    def test_identity_channel_noiseless(self):
        n_cp, grid, bits, tx = detect_setup()
        spec = random_reservoir(8, 0.4, 0.5, 1, 2, np.random.default_rng(1), activation="tanh")
        [[est]] = bc.rc_detect(tx[None], grid, n_cp, [spec], 16, d_max=4)
        assert bit_errors(est, bits, 4) == 0

    @pytest.mark.parametrize("n_ant, d_max, chunk", [(1, 4, 256), (4, 12, 7), (4, 0, 300)])
    def test_symbol_decisions_match_whole_slot_demap(self, monkeypatch, n_ant, d_max, chunk):
        # per-symbol FFTs and decisions give the bits of demapping the whole
        # equalized slot at once, for spans that split symbols anywhere
        n_cp, grid, _, tx = detect_setup(n_sc=64, n_cp=8, n_sym=5, n_tx=n_ant, seed=14)
        rng = np.random.default_rng(15)
        shape = (2,) + tx.shape
        rx = tx[None] + 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        specs = [random_reservoir(6, 0.4, 0.5, n_ant, 2, np.random.default_rng(16)),
                 random_reservoir(5, 0.4, 0.5, n_ant, 0, np.random.default_rng(17))]
        monkeypatch.setattr(reservoir, "STREAM_CHUNK", chunk)
        got = bc.rc_detect(rx, grid, n_cp, specs, 16, d_max=d_max)
        outs, _ = equalized(specs, rx, tx[:, : 64 + n_cp], d_max)
        for decisions, out in zip(got, outs):
            whole = np.concatenate([np.zeros(out.shape[:2] + (64 + n_cp,)), out], axis=2)
            want = qam_decide(payload(ofdm_demodulate(whole, 64, n_cp)), 16)
            assert decisions.dtype == np.uint8
            assert decisions.tobytes() == want.tobytes()

    def test_peak_memory_does_not_grow_with_the_slot(self):
        # doubling a 4x4 slot's length may grow rc_detect's traced peak by at
        # most a quarter of one core's (batch, n_out, T) complex output
        peaks = {}
        specs = [random_reservoir(20, 0.4, 0.5, 4, 3, np.random.default_rng(18))]
        for n_sym in (8, 16):
            n_cp, grid, _, tx = detect_setup(n_sc=256, n_cp=32, n_sym=n_sym, n_tx=4, seed=19)
            batch = np.repeat(tx[None], 3, axis=0)
            peaks[n_sym] = traced_peak(bc.rc_detect, batch, grid, n_cp, specs, 16, d_max=4)
        one_output = batch.size * 16 // 2  # (3, 4, T) complex at n_sym = 8
        assert peaks[16] - peaks[8] <= one_output / 4

    def test_noise_only_input_is_chance_level(self):
        n_cp, grid, bits, tx = detect_setup(n_sc=256, n_sym=12)
        rng = np.random.default_rng(2)
        noise = (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape)) / np.sqrt(2)
        spec = random_reservoir(8, 0.4, 0.5, 1, 2, np.random.default_rng(3))
        [[est]] = bc.rc_detect(noise[None], grid, n_cp, [spec], 16, d_max=4)
        ber = bit_errors(est, bits, 4) / bits.size
        assert bits.size >= 10_000
        assert abs(ber - 0.5) < 0.05


class TestLmmseDetect:
    def test_dense_rs_noiseless_exact(self):
        n_cp, grid, bits, tx = detect_setup()
        h = np.array([1.0, 0.4 - 0.2j, 0.1j])
        # interpolation uses the operating profile: same delay support as h
        pdp = PowerDelayProfile.from_linear([0, 1, 2], [1.0, 0.2, 0.01])
        grid_dense = build_grid(64, 1, 1, RsMode.CONVENTIONAL,
                                pack(bits, 4), np.random.default_rng(6), order=16)
        tx_dense = ofdm_modulate(grid_dense, n_cp)
        y = apply_channel(h[:, None, None], tx_dense)
        [est] = bc.lmmse_detect(y[None], grid_dense, n_cp, pdp, 16, [0.0])
        assert bit_errors(est, bits, 4) == 0

    def test_mimo_orthogonal_combs_noiseless(self):
        # 256/(4*4) = 16 RS observations per antenna pair >= 13 channel taps
        n_cp, grid, bits, tx = detect_setup(n_sc=256, n_cp=16, n_sym=4, n_tx=4,
                                           mode=RsMode.CONVENTIONAL, seed=7)
        pdp = load_pdp("cdl_d")
        taps = sample_parametric_mimo(pdp, 4, 4, 20, 60.0, 5.0, 0.5, np.random.default_rng(8))
        y = apply_channel(taps, tx)
        [est] = bc.lmmse_detect(y[None], grid, n_cp, pdp, 16, [0.0])
        assert bit_errors(est, bits, 4) == 0

    @pytest.mark.parametrize("noise_var", [0.0, 1e-30])
    def test_flat_noiseless_estimate(self, noise_var):
        # every entry of the flat profile's R_ks is 1: R_ks + sigma I is
        # singular when sigma is zero or lost to rounding
        n_cp, grid, bits, tx = detect_setup(n_sc=64, mode=RsMode.CONVENTIONAL, seed=11)
        [est] = bc.lmmse_detect(0.7j * tx[None], grid, n_cp, load_pdp("flat"), 16, [noise_var])
        assert bit_errors(est, bits, 4) == 0

    def test_perfect_csi_flat_awgn(self, monkeypatch):
        n_cp, grid, bits, tx = detect_setup(n_sc=256, n_sym=6, seed=9)
        h = np.array([1.0 + 0j])
        y = apply_channel(h[:, None, None], tx)
        nv = add_awgn(y, 14.0, np.random.default_rng(10))
        # perfect CSI: the estimator returns the exact per-subcarrier response
        monkeypatch.setattr(bc, "_estimate_channel_freq",
                            lambda *_: np.fft.fft(h, 256)[:, None, None])
        [est] = bc.lmmse_detect(y[None], grid, n_cp, load_pdp("flat"), 16, [nv])
        ber = bit_errors(est, bits, 4) / bits.size
        assert 0.0005 < ber < 0.02  # loose sanity bracket at 14 dB

    @pytest.mark.filterwarnings("ignore:n_path = 1")
    def test_noise_free_rank_deficient_channel_warns(self):
        # one path makes every 2x2 channel rank one, so without noise H H^H is
        # singular on every subcarrier: the sigma -> 0 limit still decides
        cfg = bc.ExperimentConfig(snr_db=(np.inf,), detectors=("lmmse",), n_sc=32, n_cp=8,
                                  n_symbols=3, rs_spacing=1, channel_mode="mimo", n_tx=2, n_rx=2,
                                  n_path=1)
        with pytest.warns(UserWarning, match="singular; using its pseudo-inverse"):
            [row] = bc.run_ber_experiment(cfg)
        assert 0 < row.n_errors < row.n_bits

    def test_missing_rs_detected(self):
        n_cp, grid, bits, tx = detect_setup(mode=RsMode.LEARNING, n_tx=2, n_sc=64)
        # learning grids share one comb: antenna 1's comb is fine, but wipe it
        grid[:, 0, :] = 0
        with pytest.raises(ValueError, match="no RS"):
            bc.lmmse_detect(tx[None], grid, n_cp, load_pdp("flat"), 16, [0.0])

    @settings(max_examples=80, deadline=None)
    @given(
        delays=st.lists(st.integers(1, 47), max_size=7, unique=True).map(lambda d: [0] + sorted(d)),
        powers=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
        comb=st.sampled_from([(1, 64), (4, 64), (4, 256)]),  # (n_tx, n_sc): 16, 4, 16 RS subcarriers
        sigma=st.sampled_from([0.0, 1e-30, 0.01]),
        seed=st.integers(0, 2**16),
    )
    def test_tap_domain_matches_correlation_oracle(self, delays, powers, comb, sigma, seed):
        n_tx, n_sc = comb
        pdp = PowerDelayProfile.from_linear(delays, powers[: len(delays)])
        _, grid, _, _ = detect_setup(n_sc=n_sc, n_tx=n_tx, mode=RsMode.CONVENTIONAL, seed=seed)
        rng = np.random.default_rng(seed)
        rx = rng.standard_normal((n_sc, 2, n_tx)) + 1j * rng.standard_normal((n_sc, 2, n_tx))
        basis = bc._tap_basis(pdp, n_sc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            combs = bc._rs_combs(grid, pdp, basis)
        h = bc._estimate_channel_freq(rx, grid, combs, basis, sigma)
        ref = reference_estimate(rx, grid, pdp, sigma)
        np.testing.assert_allclose(h, ref, rtol=0, atol=1e-9 * max(1.0, np.abs(ref).max()))
        # the taps are rank-deficient on the comb exactly when two delays alias
        # on it, at any noise level: one warning per antenna
        n_ks = n_sc // (4 * n_tx)
        aliased = len({d % n_ks for d in delays}) < len(delays)
        assert len(caught) == (n_tx if aliased else 0)

    def test_aliasing_delays_warn_and_take_min_norm(self):
        # delays 0 and 16 are equal modulo the 16 RS subcarriers of a 64-subcarrier comb
        n_cp, grid, _, tx = detect_setup(n_sc=64, mode=RsMode.CONVENTIONAL, seed=12)
        pdp = PowerDelayProfile.from_linear([0, 5, 16], [0.6, 0.3, 0.1])
        rx = ofdm_demodulate(tx, 64, n_cp)
        basis = bc._tap_basis(pdp, 64)
        with pytest.warns(UserWarning, match=r"delays \[0, 5, 16\] span rank 2 of 3 on 16 RS "
                                             r"subcarriers; aliasing taps cannot be told apart"):
            combs = bc._rs_combs(grid, pdp, basis)
        h = bc._estimate_channel_freq(rx, grid, combs, basis, 0.0)
        np.testing.assert_allclose(h, reference_estimate(rx, grid, pdp, 0.0), rtol=0, atol=1e-12)

    def test_aliasing_delays_warn_at_any_noise(self):
        # the same aliasing comb at sigma > 0, where the estimate is no
        # minimum-norm limit but just as ambiguous: one warning per antenna and
        # detector call, not one per SNR
        n_cp, grid, _, tx = detect_setup(n_sc=64, mode=RsMode.CONVENTIONAL, seed=12)
        pdp = PowerDelayProfile.from_linear([0, 5, 16], [0.6, 0.3, 0.1])
        batch = np.repeat(tx[None], 3, axis=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bc.lmmse_detect(batch, grid, n_cp, pdp, 16, [0.1, 0.01, 0.001])
        assert [str(w.message) for w in caught] == [
            "LMMSE channel estimate is rank-deficient: PDP delays [0, 5, 16] span rank 2 of 3 on "
            "16 RS subcarriers; aliasing taps cannot be told apart"]

    def test_siso_readme_slot_memory(self):
        # a batch of three SNRs at the README numerology, where one (n_sc, n_ks)
        # correlation matrix alone is 4.2 MB: the estimate must form none
        cfg = bc.ExperimentConfig(snr_db=(10.0, 20.0, 30.0), detectors=("lmmse",))
        pdp = load_pdp(cfg.pdp)
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, payload_bit_count(cfg.n_sc, cfg.n_symbols, 1, cfg.qam_order))
        grid = build_grid(cfg.n_sc, 1, cfg.rs_spacing, RsMode.CONVENTIONAL, pack(bits, 4), rng)
        clean = apply_channel(bc._draw_slot_channel(cfg, pdp, 0), ofdm_modulate(grid, cfg.n_cp))
        batch = np.repeat(clean[None], 3, axis=0)
        noise_vars = [add_awgn(y, snr, rng) for y, snr in zip(batch, cfg.snr_db)]
        peak = traced_peak(bc.lmmse_detect, batch, grid, cfg.n_cp, pdp, 16, noise_vars)
        assert peak / 2**20 <= 5.0


def test_configured_cores_are_pole_vectors():
    # a configured core is its pole vector, and the 4x4 core tiles it: no
    # (n, n) matrix is built for either route
    cfg = bc.ExperimentConfig(detectors=("rc-td", "rc-fd"), channel_mode="mimo", n_tx=4, n_rx=4)
    siso = {method: bc.configure(cfg, method).spec.w_res.shape for method in ("td", "fd")}
    mimo = {det: spec.w_res.shape for det, spec in bc._configured_specs(cfg).items()}
    assert siso == {"td": (35,), "fd": (35,)}
    assert mimo == {"rc-td": (140,), "rc-fd": (140,)}


def test_slot_draw_passes_angle_config():
    # distinct non-default angle values reach the MIMO draw, each in its own
    # place: the slot's taps are a direct call's bytes and differ at the defaults
    cfg = bc.ExperimentConfig(seed=6, channel_mode="mimo", n_tx=2, n_rx=2, n_path=5,
                              sector_deg=20.0, angle_offset_deg=1.0, element_spacing=0.3)
    pdp = load_pdp(cfg.pdp)
    taps = bc._draw_slot_channel(cfg, pdp, 2)
    direct = sample_parametric_mimo(pdp, 2, 2, 5, 20.0, 1.0, 0.3,
                                    bc._stream(cfg.seed, bc._T_CHANNEL, 2))
    assert taps.tobytes() == direct.tobytes()
    defaults = bc.ExperimentConfig(seed=6, channel_mode="mimo", n_tx=2, n_rx=2, n_path=5)
    assert taps.tobytes() != bc._draw_slot_channel(defaults, pdp, 2).tobytes()


class TestRunBerExperiment:
    def test_zero_slots(self):
        cfg = bc.ExperimentConfig(n_slots=0, detectors=("lmmse",), n_sc=64, n_cp=8,
                                  n_symbols=4, stats_n=32, stats_obs=10)
        records = bc.run_ber_experiment(cfg)
        assert len(records) == 1
        assert records[0].n_bits == 0 and records[0].ber == 0.0

    def test_flat_noise_free_lmmse(self):
        cfg = bc.ExperimentConfig(n_slots=2, snr_db=(np.inf,), detectors=("lmmse",), n_sc=64,
                                  n_cp=8, n_symbols=4, pdp="flat", stats_n=32, stats_obs=10)
        [record] = bc.run_ber_experiment(cfg)
        assert record.n_bits > 0 and record.n_errors == 0

    def test_byte_identical_reruns_and_workers(self):
        cfg = bc.ExperimentConfig(
            seed=5, n_slots=3, snr_db=(18.0,), detectors=("rc-random", "lmmse"),
            n_sc=64, n_cp=8, n_symbols=4, rs_spacing=4, pdp="cdl_d",
            n_neurons=8, n_window=2, d_max=3, ridge=1e-6, stats_n=32, stats_obs=20,
        )
        outputs = []
        for workers in (1, 1, 3):
            import dataclasses

            c = dataclasses.replace(cfg, workers=workers)
            buf = io.StringIO()
            bc.write_ber_csv(bc.run_ber_experiment(c), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_records_consistent(self):
        cfg = bc.ExperimentConfig(
            seed=2, n_slots=1, snr_db=(10.0, 20.0), detectors=("lmmse",),
            n_sc=64, n_cp=8, n_symbols=4, stats_n=32, stats_obs=10,
        )
        records = bc.run_ber_experiment(cfg)
        assert [r.snr_db for r in records] == [10.0, 20.0]
        for r in records:
            assert r.ber == r.n_errors / r.n_bits
            assert r.seed == 2

    def test_ber_monotone_in_snr(self):
        # +10 dB never hurts, per detector, median over seeds (MP channels)
        bers = {}
        for seed in range(3):
            cfg = bc.ExperimentConfig(
                seed=seed, n_slots=2, snr_db=(15.0, 25.0), detectors=("rc-random", "lmmse"),
                n_sc=256, n_cp=16, n_symbols=8, rs_spacing=4, pdp="cdl_d",
                require_phase="strictly_mp", n_neurons=16, n_window=3, d_max=6,
                ridge=1e-6, input_scale=0.3, stats_n=32, stats_obs=20,
            )
            for r in bc.run_ber_experiment(cfg):
                bers.setdefault((r.detector, r.snr_db), []).append(r.ber)
        for det in ("rc-random", "lmmse"):
            assert np.median(bers[(det, 25.0)]) <= np.median(bers[(det, 15.0)])

    @pytest.mark.parametrize("mode, n_ant", [("siso", 1), ("mimo", 4)])
    def test_shared_convolution_gives_per_snr_apply_channel(self, monkeypatch, mode, n_ant):
        # each SNR's received signal is the one noise-free convolution plus its
        # own noise, byte for byte what apply_channel and add_awgn per SNR give
        cfg = bc.ExperimentConfig(
            seed=4, n_slots=1, snr_db=(5.0, 20.0, np.inf), detectors=("rc-random", "lmmse"),
            channel_mode=mode, n_tx=n_ant, n_rx=n_ant, n_sc=64, n_cp=16, n_symbols=3,
            n_neurons=6, n_window=2, d_max=2, stats_n=32, stats_obs=10,
        )
        seen, noise_vars = {}, []

        def rc_detect(batch, *_):
            seen[RsMode.LEARNING] = batch.copy()
            return [np.zeros((len(batch), 1), dtype=np.uint8)]

        def lmmse_detect(batch, grid, n_cp, pdp, order, nvs):
            seen[RsMode.CONVENTIONAL] = batch.copy()
            noise_vars.extend(nvs)
            return np.zeros((len(batch), 1), dtype=np.uint8)

        monkeypatch.setattr(bc, "rc_detect", rc_detect)
        monkeypatch.setattr(bc, "lmmse_detect", lmmse_detect)
        pdp = load_pdp(cfg.pdp)
        bc._slot_errors(cfg, bc._configured_specs(cfg), pdp, 0)
        ch = bc._draw_slot_channel(cfg, pdp, 0)
        bits = bc._stream(cfg.seed, bc._T_PAYLOAD, 0).integers(
            0, 2, payload_bit_count(cfg.n_sc, cfg.n_symbols, n_ant, cfg.qam_order))
        for mode_idx, rs_mode in enumerate((RsMode.LEARNING, RsMode.CONVENTIONAL)):
            grid = build_grid(cfg.n_sc, n_ant, cfg.rs_spacing, rs_mode,
                              pack(bits, bits_per_symbol(cfg.qam_order)),
                              bc._stream(cfg.seed, bc._T_RS, 0, mode_idx), order=cfg.qam_order)
            tx = ofdm_modulate(grid, cfg.n_cp)
            want, want_vars = [], []
            for si, snr in enumerate(cfg.snr_db):
                want.append(apply_channel(ch, tx))
                want_vars.append(add_awgn(want[-1], snr,
                                          bc._stream(cfg.seed, bc._T_NOISE, 0, si, mode_idx)))
            assert seen[rs_mode].shape == (len(cfg.snr_db), n_ant, tx.shape[1])
            for got, y in zip(seen[rs_mode], want):
                assert got.tobytes() == y.tobytes()
        assert noise_vars == want_vars  # the LMMSE mode's, the last one built

    def test_mimo_readme_slot_memory(self):
        # one README-numerology 4x4 slot of every detector at three SNRs peaks
        # near 10 MiB traced, in its stream and its ridge fit alike; training
        # that holds an element's whole (L + 1, n) state block beside its
        # features reaches 12.55 MiB, and a fit that copies its features, or a
        # slot that holds its int64 payload bits or noise-free signal through
        # training, 15.9 MiB
        cfg = bc.ExperimentConfig(
            seed=1, snr_db=(10.0, 20.0, 30.0), detectors=bc.DETECTOR_NAMES, channel_mode="mimo",
            n_tx=4, n_rx=4, ridge=1e-6, input_scale=0.3,
        )
        specs, pdp = bc._configured_specs(cfg), load_pdp(cfg.pdp)
        peak = traced_peak(bc._slot_errors, cfg, specs, pdp, 0) / 2**20
        if peak > 10.5:
            phases = [(reservoir, "_train"), (reservoir, "_delay_search"), (bc, "rc_detect"),
                      (bc, "lmmse_detect")]
            mib = {k: round(v / 2**20, 2)
                   for k, v in phase_peaks(phases, bc._slot_errors, cfg, specs, pdp, 0).items()}
            pytest.fail(f"traced peak {peak:.2f} MiB > 10.5 MiB; per phase, in MiB: {mib}")

    def test_grid_mode_wiring(self):
        # with orthogonal (conventional) combs a noiseless 4x4 system is
        # exactly estimable; a cross-wired learning grid would interfere
        cfg = bc.ExperimentConfig(
            seed=3, n_slots=1, snr_db=(300.0,), detectors=("lmmse",),
            channel_mode="mimo", n_tx=4, n_rx=4, n_path=20,
            n_sc=256, n_cp=16, n_symbols=4, rs_spacing=4, stats_n=32, stats_obs=10,
        )
        (record,) = bc.run_ber_experiment(cfg)
        assert record.n_errors == 0


class TestCli:
    def test_unknown_flag_exits_2(self):
        assert bc.main(["run-ber", "--config", "x", "--bogus"]) == 2

    def test_missing_subcommand_exits_2(self):
        assert bc.main([]) == 2

    def test_missing_config_is_runtime_error(self, tmp_path):
        assert bc.main(["run-ber", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_validate_theorem(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = bc.main([
            "validate-theorem", "--n", "48", "--nobs", "60",
            "--m", "1,4,16,48", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "M,numerical_normalized,theoretical_normalized"
        assert len(lines) == 5
        for ln in lines[1:]:
            _, num, theo = ln.split(",")
            assert abs(float(num) - float(theo)) <= 1e-8

    def test_run_ber_csv(self, config_file, tmp_path):
        out = tmp_path / "ber.csv"
        rc = bc.main(["run-ber", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "detector,snr_db,n_bits,n_errors,ber,seed"
        assert len(lines) == 1 + 2 * 2

    def test_seed_precedence(self, config_file, tmp_path, monkeypatch):
        out1, out2, out3 = (tmp_path / f"{i}.csv" for i in range(3))
        monkeypatch.setenv("RC_LAB_SEED", "77")
        bc.main(["run-ber", "--config", str(config_file), "--out", str(out1)])
        assert ",77\n" in out1.read_text()
        bc.main(["run-ber", "--config", str(config_file), "--out", str(out2), "--seed", "5"])
        assert ",5\n" in out2.read_text()
        monkeypatch.delenv("RC_LAB_SEED")
        bc.main(["run-ber", "--config", str(config_file), "--out", str(out3)])
        assert ",11\n" in out3.read_text()

    def test_bad_env_seed(self, config_file, monkeypatch):
        monkeypatch.setenv("RC_LAB_SEED", "not-an-int")
        assert bc.main(["run-ber", "--config", str(config_file)]) == 1

    # each used to fail inside numpy with "expected non-negative integer"
    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["run-ber", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
            (["run-ber"], "-2", "RC_LAB_SEED must be >= 0, got -2"),
            (["validate-theorem", "--n", "16", "--nobs", "10", "--m", "1", "--seed", "-3"], None,
             "--seed must be >= 0, got -3"),
            (["inspect-channel", "--pdp", "cdl_d"], "-4", "RC_LAB_SEED must be >= 0, got -4"),
        ],
        ids=["run_ber_flag", "run_ber_env", "validate_theorem_flag", "inspect_channel_env"],
    )
    def test_negative_seed_named(self, config_file, capsys, monkeypatch, argv, env, message):
        if env is None:
            monkeypatch.delenv("RC_LAB_SEED", raising=False)
        else:
            monkeypatch.setenv("RC_LAB_SEED", env)
        if argv[0] == "run-ber":
            argv = argv + ["--config", str(config_file)]
        assert bc.main(argv) == 1
        assert capsys.readouterr().err == f"rclab: error: {message}\n"

    def test_zero_workers_rejected(self, config_file, capsys):
        # used to be dropped as falsy, running on the config's worker count
        assert bc.main(["run-ber", "--config", str(config_file), "--workers", "0"]) == 1
        assert "workers >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n, nobs, m, message",
        [("16", "0", "1,4", "--nobs must be >= 1, got 0"),
         ("16", "10", "1,x", "--m must list integers, got '1,x'"),
         ("5", "5", "1", "--n must be >= the channel length 13, got 5")],
        ids=["nobs", "m", "n"],
    )
    def test_validate_theorem_names_the_flag(self, capsys, n, nobs, m, message):
        assert bc.main(["validate-theorem", "--n", n, "--nobs", nobs, "--m", m]) == 1
        assert capsys.readouterr().err == f"rclab: error: {message}\n"

    # each used to end in an IsADirectoryError traceback
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate-theorem", "--n", "32", "--nobs", "5", "--m", "1", "--out", "{dir}"],
             "[Errno 21] Is a directory: '{dir}'"),
            (["inspect-channel", "--pdp", "{dir}"], "no PDP file or packaged profile named '{dir}'"),
            (["run-ber", "--config", "{config}"],
             "[channel] pdp: no PDP file or packaged profile named '{dir}'"),
        ],
        ids=["validate_theorem_out", "inspect_channel_pdp", "run_ber_pdp"],
    )
    def test_directory_path_is_one_error_line(self, tmp_path, capsys, argv, message):
        config = tmp_path / "exp.ini"
        config.write_text(f"[channel]\npdp = {tmp_path}\n")
        paths = dict(dir=tmp_path, config=config)
        assert bc.main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == f"rclab: error: {message.format(**paths)}\n"

    def test_inspect_channel(self, tmp_path):
        out = tmp_path / "phases.csv"
        rc = bc.main(["inspect-channel", "--pdp", "mixed_3tap", "--draws", "200",
                      "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "classification,count,fraction"
        counts = {ln.split(",")[0]: int(ln.split(",")[1]) for ln in lines[1:]}
        assert counts["strictly_mp"] + counts["strictly_nmp"] + counts["mixed"] == 200
        assert counts["mixed"] > 0

    def test_inspect_channel_blocks_match_one_round(self, tmp_path, monkeypatch):
        def run(block):
            monkeypatch.setattr(bc, "INSPECT_BLOCK", block)
            out = tmp_path / f"phases_{block}.csv"
            rc = bc.main(["inspect-channel", "--pdp", "mixed_3tap", "--draws", "300",
                          "--seed", "4", "--out", str(out)])
            assert rc == 0
            return out.read_text()

        # 300 = 4 * 70 + 20 ends on a short round; 4096 draws all 300 in one
        assert run(70) == run(4096)

    def test_inspect_channel_negligible_last_tap(self, tmp_path):
        # the root finder strips the -300 dB tap: every draw is a constant, strictly MP
        pdp = tmp_path / "negligible.pdp"
        pdp.write_text("0 0\n1 -300\n")
        out = tmp_path / "phases.csv"
        assert bc.main(["inspect-channel", "--pdp", str(pdp), "--draws", "20", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "strictly_mp,20,1"

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_inspect_channel_needs_a_draw(self, tmp_path, capsys, draws):
        out = tmp_path / "phases.csv"
        rc = bc.main(["inspect-channel", "--pdp", "mixed_3tap", "--draws", draws, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"rclab: error: --draws must be >= 1, got {draws}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["[rc]\nm = 3\nm = 4\n", "m = 3\n[rc]\nl_f = 3\n"],
        ids=["duplicate_key", "key_before_section"],
    )
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, text):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        assert bc.main(["run-ber", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rclab: error: malformed config file: ")
        assert err.count("\n") == 1

    def test_ring_redraws_counted(self, tmp_path, monkeypatch):
        # the first k candidates classified hit the unit-circle ring
        k = 3
        real = channel.classify_rows
        calls = []

        def ring_then_real(rows):
            phases, roots = real(rows)
            for i in range(len(rows)):
                calls.append(rows[i])
                if len(calls) <= k:
                    phases[i] = None
            return phases, roots

        monkeypatch.setattr(channel, "classify_rows", ring_then_real)
        draws = channel.draw_channels(load_pdp("mixed_3tap"), np.random.default_rng(0), 1)
        h, phase, redraws = draws.taps[0], draws.phases[0], draws.redraws[0]
        assert redraws == k and len(calls) == k + 1
        assert phase is factorize_by_phase(h).classification

        calls.clear()
        out = tmp_path / "phases.csv"
        rc = bc.main(["inspect-channel", "--pdp", "mixed_3tap", "--draws", "5",
                      "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = dict(ln.split(",", 1) for ln in out.read_text().strip().splitlines())
        assert rows["ring_resampled"] == f"{k},{k / 5:.10g}"
        assert sum(int(rows[p.value].split(",")[0]) for p in Phase) == 5

    def test_configure_and_dump(self, config_file, tmp_path):
        spec_out = tmp_path / "spec.txt"
        diag_out = tmp_path / "diag.csv"
        rc = bc.main(["configure", "--config", str(config_file), "--method", "td",
                      "--out", str(spec_out), "--diagnostics", str(diag_out)])
        assert rc == 0
        assert spec_out.read_text().startswith("neuron_index,")
        assert diag_out.read_text().startswith("m,b_m,")
        dump_out = tmp_path / "dump.txt"
        rc = bc.main(["dump-spec", "--config", str(config_file), "--method", "fd",
                      "--out", str(dump_out)])
        assert rc == 0
        text = dump_out.read_text()
        assert "neurons" in text and "max pole magnitude" in text

    # the td route's rules hold whenever it runs, whatever the detector list
    @pytest.mark.parametrize("command", ["configure", "dump-spec"])
    @pytest.mark.parametrize(
        "line, message",
        [("stats_n = 5", "[rc] stats_n >= the channel length 13, got 5"),
         ("m = 200", "[rc] m <= stats_n = 128, got 200")],
        ids=["stats_n", "m"],
    )
    def test_td_statistics_checked_before_draws(self, tmp_path, capsys, monkeypatch, command,
                                                line, message):
        p = tmp_path / "lmmse.ini"
        p.write_text(f"[experiment]\ndetectors = lmmse\n[channel]\npdp = cdl_d\n[rc]\n{line}\n")
        monkeypatch.setattr(bc, "configure_time_domain_report",
                            lambda *args, **kwargs: pytest.fail("statistics were drawn"))
        assert bc.main([command, "--config", str(p), "--method", "td"]) == 1
        assert capsys.readouterr().err == f"rclab: error: the td route needs {message}\n"

    @staticmethod
    def fresh_env():
        """The environment of a fresh interpreter that imports this checkout's rclab.

        This checkout's ``src`` goes first on ``PYTHONPATH``, followed by any
        existing value: pytest's own ``pythonpath`` setting reaches no child
        process.
        """
        src = str(Path(bc.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def fresh_output(self, code):
        """Stdout of ``code`` run by a fresh interpreter that imports this checkout's rclab."""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=self.fresh_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_runtime_imports_numpy_only(self):
        # scipy is a test-only dependency: the oracle of the filters and FFTs
        code = (
            "import sys, rclab.bench_cli, rclab.theory; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        assert self.fresh_output(code) == "[]"

    def test_import_leaves_out_multiprocessing(self):
        # the process pool is imported by run_ber_experiment, only when workers > 1
        code = ("import sys, rclab; "
                "print(sorted(m for m in ('multiprocessing', 'socket') if m in sys.modules))")
        assert self.fresh_output(code) == "[]"

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rclab", "validate-theorem", "--n", "16",
             "--nobs", "10", "--m", "1,16", "--out", str(out)],
            capture_output=True, text=True, env=self.fresh_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("M,")
