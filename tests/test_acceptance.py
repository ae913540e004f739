"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The BER criteria are property-based comparisons
(medians over seeds); the subspace-error criteria are exact identities.
"""

import dataclasses
import io
import time
import warnings

import numpy as np
import scipy.stats

from rclab import bench_cli as bc
from rclab.channel import PowerDelayProfile, add_awgn, apply_channel, draw_channels, load_pdp
from rclab.filters import Phase
from rclab.ofdm import RsMode, build_grid, ofdm_modulate, payload_bit_count
from rclab.theory import (
    approx_error_report,
    lemma1_error,
    p2_objective_numerical,
    reproduce_fig5,
    theorem1_error,
)
from rclab.signal_core import hermitian_eig
from rclab.weight_config import (
    collect_equalizer_irs,
    configure_time_domain_report,
    empirical_covariance,
    mp_compensate,
    pca_basis,
    pole_bank,
    reduce_order,
)

from qam_reference import bit_errors, pack


def gate(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def median_ber(records, detector, snr):
    return float(np.median([r.ber for r in records if r.detector == detector and r.snr_db == snr]))


def test_criterion_01_trace_identity_desk_scale():
    start = time.time()
    pdp = load_pdp("cdl_d")
    rng = np.random.default_rng(1001)
    dataset = collect_equalizer_irs(pdp, 64, 200, rng, require=Phase.STRICTLY_MP)
    k_hat = empirical_covariance(dataset)
    # both quantities live on the scale of mean ||T(g)||_F^2 (their M=1
    # value); measuring the gap against that scale keeps "relative" well
    # defined at M=N, where both sides vanish
    from rclab.theory import toeplitz_frobenius_sq

    scale = float(np.mean([toeplitz_frobenius_sq(g) for g in dataset]))
    worst = 0.0
    for m in (1, 4, 16, 64):
        f = pca_basis(dataset, m)
        num = p2_objective_numerical(f, dataset)
        theo = theorem1_error(k_hat, f)
        worst = max(worst, abs(num - theo) / scale)
    elapsed = time.time() - start
    gate(1, "trace identity N=64", worst <= 1e-8 and elapsed < 60,
         f"max rel gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_error_curves_full_scale():
    start = time.time()
    pdp = load_pdp("cdl_d")
    m_values = [1, 2, 5, 10, 20, 50, 100, 300, 1000]
    report = reproduce_fig5(pdp, 1000, 1000, m_values, seed=2002)
    elapsed = time.time() - start
    gap = report.max_gap()
    num = np.asarray(report.numerical_normalized)
    theo = np.asarray(report.theoretical_normalized)
    nonincreasing = bool(np.all(np.diff(num) <= 1e-12) and np.all(np.diff(theo) <= 1e-12))
    zero_at_full = num[-1] <= 1e-8 and theo[-1] <= 1e-8
    gate(2, "error curves N=1000", gap <= 1e-8 and nonincreasing and zero_at_full and elapsed < 900,
         f"max gap {gap:.2e}, nonincreasing={nonincreasing}, "
         f"endpoint ({num[-1]:.1e}, {theo[-1]:.1e}), {elapsed:.0f}s")


def test_criterion_03_tail_eigenvalue_identity():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 65))
        n_obs = int(rng.integers(5, 80))
        vectors = rng.standard_normal((n_obs, n)) + 1j * rng.standard_normal((n_obs, n))
        vectors *= np.exp(-0.1 * np.arange(n))[None, :]
        lam = hermitian_eig(empirical_covariance(vectors))[0]
        m = int(rng.integers(1, n + 1))
        # the identity holds for any m, and a basis past the observations says so
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = pca_basis(vectors, m)
        assert len(caught) == (n_obs < m)
        resid = vectors.T - f @ (f.conj().T @ vectors.T)
        mean_resid = float(np.mean(np.sum(np.abs(resid) ** 2, axis=0)))
        rel = abs(mean_resid - lemma1_error(lam, m)) / max(lam.sum(), 1e-300)
        worst = max(worst, rel)
    gate(3, "tail eigenvalue identity", worst <= 1e-10, f"max rel gap {worst:.2e}")


def test_criterion_04_configuration_stability():
    rng = np.random.default_rng(4004)
    n_runs = 1000
    n_unstable = 0
    dominance_ok = True
    split_exact = True
    for _ in range(n_runs):
        n_taps = int(rng.integers(1, 6))
        delays = np.concatenate(
            [[0], np.sort(rng.choice(np.arange(1, 9), n_taps - 1, replace=False))]
        ) if n_taps > 1 else np.array([0])
        powers = rng.uniform(0.05, 1.0, n_taps)
        k = float(rng.uniform(1.0, 30.0)) if rng.uniform() < 0.5 else None
        pdp = PowerDelayProfile.from_linear(delays, powers, k_factor=k)
        # the time-domain route, step by step, so that the basis can be checked
        basis = mp_compensate(pca_basis(collect_equalizer_irs(pdp, 32, 25, rng), 2))
        report = pole_bank(*reduce_order(basis.p, 3), basis.offsets, 3, 1, "tanh")
        if np.any(np.abs(report.spec.w_res) >= 1.0):
            n_unstable += 1
        tails = np.sum(np.abs(basis.f[1:, :]), axis=0)
        if not np.all(basis.p[0, :].real > tails):
            dominance_ok = False
        if not np.array_equal(basis.p + basis.b, basis.f):
            split_exact = False
    gate(4, "configuration stability",
         n_unstable == 0 and dominance_ok and split_exact,
         f"{n_runs - n_unstable}/{n_runs} stable, dominance={dominance_ok}, split_exact={split_exact}")


def test_criterion_05_noiseless_exact_equalization():
    pdp = load_pdp("cdl_d")
    spec = configure_time_domain_report(pdp, 128, 400, 5, 7, 5, np.random.default_rng(5005),
                                        activation="linear").spec
    errors = 0
    total = 0
    for slot in range(10):
        h = draw_channels(pdp, np.random.default_rng((5005, 1, slot)), 1,
                          Phase.STRICTLY_MP).taps[0]
        bits = np.random.default_rng((5005, 2, slot)).integers(
            0, 2, payload_bit_count(256, 14, 1, 16)
        )
        grid = build_grid(256, 1, 4, RsMode.LEARNING, pack(bits, 4),
                          np.random.default_rng((5005, 3, slot)), order=16)
        y = apply_channel(h[:, None, None], ofdm_modulate(grid, 32))
        [[est]] = bc.rc_detect(y[None], grid, 32, [spec], 16, d_max=12, ridge=0.0)
        errors += bit_errors(est, bits, 4)
        total += bits.size
    gate(5, "noiseless exact equalization", errors == 0, f"{errors} bit errors in {total}")


def _fig6_config(seed):
    return bc.ExperimentConfig(
        seed=seed, n_slots=2, snr_db=(25.0,),
        detectors=("rc-td", "rc-fd", "rc-random", "lmmse"),
        qam_order=16, n_sc=1024, n_cp=160, n_symbols=14, rs_spacing=4,
        pdp="cdl_d", require_phase="strictly_mp",
        m=5, l_f=7, l_rp=7, n_window=5, n_neurons=35,
        spectral_radius=0.4, sparsity=0.6, d_max=12, activation="tanh",
        ridge=1e-6, input_scale=0.3, stats_n=64, stats_obs=1000,
    )


def test_criterion_06_configured_beats_random_siso_mp():
    start = time.time()
    records = []
    for seed in range(20):
        records.extend(bc.run_ber_experiment(_fig6_config(seed)))
    elapsed = time.time() - start
    med = {d: median_ber(records, d, 25.0) for d in ("rc-td", "rc-fd", "rc-random")}
    n_bits = next(r.n_bits for r in records)
    resolution = 1.0 / n_bits  # one bit error per run
    td_le = med["rc-td"] <= med["rc-random"]
    fd_le = med["rc-fd"] <= med["rc-random"]
    near_identical = (
        med["rc-td"] <= 2.0 * med["rc-fd"] + resolution
        and med["rc-fd"] <= 2.0 * med["rc-td"] + resolution
    )
    gate(6, "configured vs random (SISO MP, 25 dB)",
         td_le and fd_le and near_identical and elapsed < 1800,
         f"median BER td={med['rc-td']:.2e} fd={med['rc-fd']:.2e} "
         f"random={med['rc-random']:.2e}, {elapsed:.0f}s")


def test_criterion_07_window_beats_vanilla_mixed_phase():
    records = []
    for seed in range(20):
        cfg = bc.ExperimentConfig(
            seed=seed, n_slots=2, snr_db=(20.0,), detectors=("rc-random", "vanilla-esn"),
            qam_order=16, n_sc=256, n_cp=32, n_symbols=14, rs_spacing=4,
            pdp="mixed_3tap", require_phase="any",
            n_window=5, n_neurons=35, spectral_radius=0.4, sparsity=0.6,
            d_max=12, activation="tanh", ridge=1e-4, input_scale=1.0,
        )
        records.extend(bc.run_ber_experiment(cfg))
    wesn = median_ber(records, "rc-random", 20.0)
    vanilla = median_ber(records, "vanilla-esn", 20.0)
    gate(7, "windowed vs vanilla (mixed phase, 20 dB)", wesn < vanilla,
         f"median BER windowed={wesn:.3f} vanilla={vanilla:.3f}")


def test_criterion_08_mimo_error_floor():
    start = time.time()
    records = []
    for seed in range(20):
        cfg = bc.ExperimentConfig(
            seed=seed, n_slots=2, snr_db=(15.0, 30.0), detectors=("rc-fd", "rc-random"),
            qam_order=16, n_sc=256, n_cp=32, n_symbols=14, rs_spacing=4,
            pdp="cdl_d", channel_mode="mimo", n_tx=4, n_rx=4, n_path=20,
            m=3, l_rp=3, n_window=5, n_neurons=36, spectral_radius=0.4, sparsity=0.6,
            d_max=12, activation="tanh", ridge=1e-6, input_scale=0.3,
            stats_n=64, stats_obs=500,
        )
        records.extend(bc.run_ber_experiment(cfg))
    elapsed = time.time() - start
    conf_15 = median_ber(records, "rc-fd", 15.0)
    conf_30 = median_ber(records, "rc-fd", 30.0)
    rand_15 = median_ber(records, "rc-random", 15.0)
    rand_30 = median_ber(records, "rc-random", 30.0)
    conf_ratio = conf_30 / conf_15
    rand_ratio = rand_30 / rand_15
    gate(8, "MIMO error floor (4x4, 36 neurons)",
         conf_ratio < rand_ratio and conf_30 <= rand_30,
         f"floor ratio configured={conf_ratio:.3f} random={rand_ratio:.3f}; "
         f"BER@30dB configured={conf_30:.3e} random={rand_30:.3e}, {elapsed:.0f}s")


def analytic_16qam_ber(snr_db):
    """Exact bit error rate of Gray-coded 16-QAM over AWGN, by enumeration."""
    a = 1.0 / np.sqrt(10.0)
    sigma = np.sqrt(10 ** (-snr_db / 10.0) / 2.0)  # per-axis noise std
    levels = a * np.array([-3.0, -1.0, 1.0, 3.0])
    gray = [idx ^ (idx >> 1) for idx in range(4)]
    boundaries = np.array([-np.inf, -2 * a, 0.0, 2 * a, np.inf])
    total = 0.0
    for i, li in enumerate(levels):
        p_decide = scipy.stats.norm.cdf((boundaries[1:] - li) / sigma) - scipy.stats.norm.cdf(
            (boundaries[:-1] - li) / sigma
        )
        for j in range(4):
            hamming = bin(gray[i] ^ gray[j]).count("1")
            total += p_decide[j] * hamming
    return total / (4 * 2)  # 4 levels, 2 bits per axis


def test_criterion_09_lmmse_awgn_sanity(monkeypatch):
    snr_db = 12.0
    pdp = load_pdp("flat")
    h = np.array([1.0 + 0j])
    # perfect CSI: the estimator returns the exact per-subcarrier response
    monkeypatch.setattr(bc, "_estimate_channel_freq", lambda *_: np.fft.fft(h, 256)[:, None, None])
    errors = 0
    total = 0
    slot = 0
    while total < 100_000:
        bits = np.random.default_rng((9009, 1, slot)).integers(
            0, 2, payload_bit_count(256, 14, 1, 16)
        )
        grid = build_grid(256, 1, 4, RsMode.CONVENTIONAL, pack(bits, 4),
                          np.random.default_rng((9009, 2, slot)), order=16)
        tx = ofdm_modulate(grid, 16)
        y = apply_channel(h[:, None, None], tx)
        nv = add_awgn(y, snr_db, np.random.default_rng((9009, 3, slot)))
        [est] = bc.lmmse_detect(y[None], grid, 16, pdp, 16, [nv])
        errors += bit_errors(est, bits, 4)
        total += bits.size
        slot += 1
    empirical = errors / total
    lo = analytic_16qam_ber(snr_db + 0.5)
    hi = analytic_16qam_ber(snr_db - 0.5)
    gate(9, "LMMSE AWGN sanity",
         lo <= empirical <= hi,
         f"empirical {empirical:.4f} within 0.5 dB bracket [{lo:.4f}, {hi:.4f}] over {total} bits")


def test_criterion_10_cli_determinism(tmp_path):
    cfg_text = """
[experiment]
seed = 9
n_slots = 4
snr_db = 18
detectors = rc-random, lmmse
qam_order = 16

[ofdm]
n_sc = 128
n_cp = 16
n_symbols = 6
rs_spacing = 4

[channel]
pdp = cdl_d

[rc]
n_neurons = 12
n_window = 3
d_max = 4
ridge = 1e-6
stats_n = 32
stats_obs = 20
"""
    cfg_file = tmp_path / "det.ini"
    cfg_file.write_text(cfg_text)
    outs = []
    for i, workers in enumerate((1, 1, 8)):
        out = tmp_path / f"ber{i}.csv"
        rc = bc.main(["run-ber", "--config", str(cfg_file), "--out", str(out),
                      "--workers", str(workers)])
        assert rc == 0
        outs.append(out.read_bytes())
    theorem_outs = []
    for i in range(2):
        out = tmp_path / f"thm{i}.csv"
        rc = bc.main(["validate-theorem", "--n", "32", "--nobs", "40", "--m", "1,8,32",
                      "--seed", "4", "--out", str(out)])
        assert rc == 0
        theorem_outs.append(out.read_bytes())
    inspect_outs = []
    for i in range(2):
        out = tmp_path / f"ins{i}.csv"
        rc = bc.main(["inspect-channel", "--pdp", "cdl_d", "--draws", "300",
                      "--seed", "2", "--out", str(out)])
        assert rc == 0
        inspect_outs.append(out.read_bytes())
    ok = (outs[0] == outs[1] == outs[2]
          and theorem_outs[0] == theorem_outs[1]
          and inspect_outs[0] == inspect_outs[1])
    gate(10, "CLI determinism", ok,
         "run-ber (1/1/8 workers), validate-theorem, inspect-channel byte-identical")
