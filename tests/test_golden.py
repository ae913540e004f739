"""Byte-for-byte comparison of CLI output with committed golden files.

The ``run-ber`` goldens were written by the per-SNR detector path that
preceded the batched one; each sweep runs all five detectors at three SNRs
on a reduced numerology.  The ``configure``, ``dump-spec``,
``validate-theorem`` and ``inspect-channel`` goldens were written before the
configure dispatch and the channel-draw loop were folded into one path each.
Those commands run as ``python -m rclab`` with one BLAS thread, because the
eigensolver's last digits change with the thread count.  Regenerate a file
only with a CHANGES.md entry that explains why its bytes changed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rclab
from rclab import bench_cli as bc

GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL = str(GOLDEN / "cli_small.ini")


@pytest.mark.parametrize(
    "name, workers",
    [("run_ber_siso", 1), ("run_ber_siso", 3), ("run_ber_mimo", 1), ("run_ber_mimo", 3)],
)
def test_run_ber_matches_golden(tmp_path, name, workers):
    out = tmp_path / f"{name}.csv"
    argv = ["run-ber", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out)]
    assert bc.main(argv + ["--workers", str(workers)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


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
    src = str(Path(rclab.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rclab", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs.values():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
