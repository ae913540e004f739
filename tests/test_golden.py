"""Byte-for-byte comparison of ``run-ber`` output with committed golden CSVs.

The golden files were written by the per-SNR detector path that preceded
the batched one; each sweep runs all five detectors at three SNRs on a
reduced numerology.  Regenerate a file only with a CHANGES.md entry that
explains why its bytes changed.
"""

from pathlib import Path

import pytest

from rclab import bench_cli as bc

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name, workers", [("run_ber_siso", 1), ("run_ber_siso", 3), ("run_ber_mimo", 1)]
)
def test_run_ber_matches_golden(tmp_path, name, workers):
    out = tmp_path / f"{name}.csv"
    argv = ["run-ber", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out)]
    assert bc.main(argv + ["--workers", str(workers)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
