"""Byte-for-byte comparison of CLI output with committed golden files.

The ``run-ber`` goldens were written by the per-SNR detector path that
preceded the batched one; each sweep runs all five detectors at three SNRs
on a reduced numerology.  The ``configure``, ``dump-spec``,
``validate-theorem`` and ``inspect-channel`` goldens were written before the
configure dispatch and the channel-draw loop were folded into one path each.
Those commands run as ``python -m rclab`` with one BLAS thread, because the
eigensolver's last digits change with the thread count.  The ``*_skip``
goldens (``n_window = 0``, the configured cores' skip tap alone) were written
while the skip tap was a flag of its own; their configure dumps are the
window's, so those cases share its goldens.  Regenerate a file only with a
CHANGES.md entry that explains why its bytes changed.  The configured
readouts of the SISO sweep's first slot are checked against ``lstsq`` too.
"""

import hashlib
import io
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rclab import bench_cli as bc
from rclab import reservoir
from rclab.channel import load_pdp
from one_blas_thread import run_python
from reservoir_reference import assert_fit_matches_lstsq, delayed

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL = str(GOLDEN / "cli_small.ini")
SMALL_SKIP = str(GOLDEN / "cli_small_skip.ini")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize(
    "name, workers",
    [(name, workers) for name in ("run_ber_siso", "run_ber_mimo", "run_ber_siso_skip")
     for workers in (1, 3)],
)
def test_run_ber_matches_golden(tmp_path, name, workers):
    out = tmp_path / f"{name}.csv"
    argv = ["run-ber", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out)]
    assert bc.main(argv + ["--workers", str(workers)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def ber_rows(cfg) -> list:
    buf = io.StringIO()
    bc.write_ber_csv(bc.run_ber_experiment(cfg), buf)
    return buf.getvalue().splitlines()


# one recursion advances every RC detector of a slot; a detector's rows must
# not depend on which detectors share it
@pytest.mark.parametrize("detectors", [("rc-random",), ("rc-fd", "vanilla-esn")])
@pytest.mark.parametrize("name", ["run_ber_siso", "run_ber_mimo"])
def test_detector_rows_match_the_full_sweep(name, detectors):
    cfg = bc.ExperimentConfig.from_file(GOLDEN / f"{name}.ini")
    header, *rows = (GOLDEN / f"{name}.csv").read_text().splitlines()
    want = [header] + [row for row in rows if row.split(",")[0] in detectors]
    assert ber_rows(replace(cfg, detectors=detectors)) == want


def test_unequal_cores_match_per_detector_runs():
    # rc-td 30, rc-fd 35 and two random cores of 20 neurons
    cfg = replace(bc.ExperimentConfig.from_file(GOLDEN / "run_ber_siso.ini"), l_f=6, l_rp=7, n_neurons=20)
    header, *rows = ber_rows(cfg)
    alone = [row for det in cfg.detectors for row in ber_rows(replace(cfg, detectors=(det,)))[1:]]
    assert rows == alone


def first_slot_searches(monkeypatch, detector):
    """Spec, and each SNR's ``(args, (delay, weights))`` delay search, in slot 0 of the SISO sweep.

    Fails on any warning, so the golden readouts never take the
    rank-deficient fallback.
    """
    cfg = replace(bc.ExperimentConfig.from_file(GOLDEN / "run_ber_siso.ini"), detectors=(detector,))
    specs = bc._configured_specs(cfg)
    searches, search = [], reservoir._delay_search

    def spy(feats, *args):
        # the search consumes its features: keep them as they came in
        searches.append(((feats.copy(), *args), search(feats, *args)))
        return searches[-1][1]

    monkeypatch.setattr(reservoir, "_delay_search", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bc._slot_errors(cfg, specs, load_pdp(cfg.pdp), 0)
    assert len(searches) == len(cfg.snr_db)
    return specs[detector], searches


@pytest.mark.parametrize("detector", ["rc-td", "rc-fd"])
def test_configured_readout_matches_lstsq(monkeypatch, detector):
    _, searches = first_slot_searches(monkeypatch, detector)
    for (feats, target, d_max, _), _ in searches:
        stacked = np.vstack([delayed(target, d) for d in range(d_max + 1)])
        assert_fit_matches_lstsq(feats, stacked)


# the pad section of each configured column is a neuron with zero input
# weight and zero pole; the fit leaves its all-zero feature row out at weight
# exactly 0, where an SVD solve puts rounding amplified by the conditioning
@pytest.mark.parametrize("detector", ["rc-td", "rc-fd"])
def test_configured_readout_leaves_dead_neurons_at_zero(monkeypatch, detector):
    spec, searches = first_slot_searches(monkeypatch, detector)
    dead = np.flatnonzero(~spec.w_in.any(axis=1))
    assert dead.size > 0
    for _, (_, weights) in searches:
        assert not weights[:, dead].any()


# command line -> {output flag: golden file}
CLI_CASES = {
    "configure_td": (
        ["configure", "--config", SMALL, "--method", "td"],
        {"--out": "configure_td.txt", "--diagnostics": "configure_td_diag.csv"},
    ),
    "configure_fd": (
        ["configure", "--config", SMALL, "--method", "fd"],
        {"--out": "configure_fd.txt", "--diagnostics": "configure_fd_diag.csv"},
    ),
    "dump_spec_td": (
        ["dump-spec", "--config", SMALL, "--method", "td"],
        {"--out": "dump_spec_td.txt"},
    ),
    "dump_spec_fd": (
        ["dump-spec", "--config", SMALL, "--method", "fd"],
        {"--out": "dump_spec_fd.txt"},
    ),
    "configure_td_skip": (
        ["configure", "--config", SMALL_SKIP, "--method", "td"],
        {"--out": "configure_td.txt", "--diagnostics": "configure_td_diag.csv"},
    ),
    "configure_fd_skip": (
        ["configure", "--config", SMALL_SKIP, "--method", "fd"],
        {"--out": "configure_fd.txt", "--diagnostics": "configure_fd_diag.csv"},
    ),
    "dump_spec_td_skip": (
        ["dump-spec", "--config", SMALL_SKIP, "--method", "td"],
        {"--out": "dump_spec_td_skip.txt"},
    ),
    "dump_spec_fd_skip": (
        ["dump-spec", "--config", SMALL_SKIP, "--method", "fd"],
        {"--out": "dump_spec_fd_skip.txt"},
    ),
    "validate_theorem": (
        ["validate-theorem", "--n", "32", "--nobs", "40", "--m", "1,4,16,32", "--seed", "7"],
        {"--out": "validate_theorem.csv"},
    ),
    "inspect_channel": (
        ["inspect-channel", "--pdp", "mixed_3tap", "--draws", "400", "--seed", "2"],
        {"--out": "inspect_channel_mixed_3tap.csv"},
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_matches_golden(tmp_path, case):
    argv, outputs = CLI_CASES[case]
    for flag, name in outputs.items():
        argv = argv + [flag, str(tmp_path / name)]
    run_python(["-m", "rclab", *argv])
    for name in outputs.values():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# the benchmark's byte checks at its tiny scale, so that a changed dump or BER
# byte shows here before a benchmark run reports it as a failed operation
DIGEST_SCRIPT = """
import json, workloads
print(json.dumps({w.key: w.record() for w in (workloads.make(name, seed, "tiny")
                  for name in workloads.WORKLOADS for seed in (1, 27))}))
"""


def test_perfbench_tiny_digests_match_reference():
    got = json.loads(run_python(["-c", DIGEST_SCRIPT], cwd=PERFBENCH))
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert len(got) == 6
    assert got == {key: reference[key] for key in got}


# full-size configure, where the covariance spans several column blocks
# (stats_n = 128 in td, the 256-point grid in fd)
FULL_CONFIGURE_SCRIPT = """
import json, workloads
w = workloads.make("subspace", 1)
print(json.dumps({w.key: {op: workloads.digest(w.configure(op[-2:]))
                          for op in ("configure_td", "configure_fd")}}))
"""


def test_perfbench_full_configure_digests_match_reference():
    got = json.loads(run_python(["-c", FULL_CONFIGURE_SCRIPT], cwd=PERFBENCH))
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert got == {"subspace/full/1": reference["subspace/full/1"]}


# validate-theorem at the subspace workload's N = nobs = 300, where the last
# covariance block ends part-way (9 blocks of 32 and one of 12)
@pytest.mark.parametrize("seed, sha256", [
    (1, "779947d609adf43b81e37fcad517f325cf5890f560f1b0951b36b6f4697b3581"),
    (27, "d267a73b5bf31b1464d06867ffc5128f0b27d9c3384d1eca6df9279ec8ad060f"),
])
def test_validate_theorem_n300_bytes(tmp_path, seed, sha256):
    out = tmp_path / "curves.csv"
    run_python(["-m", "rclab", "validate-theorem", "--n", "300", "--nobs", "300",
                "--m", "1,2,5,10,20,50,100,300", "--seed", str(seed), "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
