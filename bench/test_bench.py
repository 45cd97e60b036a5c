"""Self-test of the benchmark: python -m pytest bench/test_bench.py

Runs every workload at minimal size in both modes and checks that each
metric named in BENCHMARK.json is printed with its unit, and that the
output checker counts a corrupted output as a failed command.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import Tally, check_command  # noqa: E402
from workloads import WORKLOADS, minimal  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--minimal"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
    assert not (ROOT / ".bench_work").exists()


def test_non_psd_rho_is_counted_as_failed(tmp_path, monkeypatch):
    from gramtomo.cli import main

    workload = minimal(WORKLOADS["reconstruct-ref"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    monkeypatch.chdir(tmp_path)
    tally = Tally()
    for name in ("good", "bad"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["reconstruct", "--config", str(config), "--out", name])
        tally.record(name, check_command("reconstruct", Path(name), code,
                                         workload.min_fidelity)[0])
    assert (tally.attempted, tally.failed) == (2, 0)

    path = Path("bad") / "reconstruction.json"
    payload = json.loads(path.read_text())
    dim = len(payload["density_matrix"])
    # Hermitian with unit trace, but with a negative eigenvalue
    diag = [1.5, -0.5] + [0.0] * (dim - 2)
    payload["density_matrix"] = [[[diag[i] if i == j else 0.0, 0.0] for j in range(dim)]
                                 for i in range(dim)]
    path.write_text(json.dumps(payload))
    problems, _ = check_command("reconstruct", Path("bad"), 0, workload.min_fidelity)
    assert any("not PSD" in p for p in problems)
    tally.record("corrupted", problems)
    assert tally.failed_frac == pytest.approx(1 / 3)


def test_nonzero_exit_is_counted_as_failed():
    problems, fidelities = check_command("frames-check", Path("missing"), 2, None)
    assert problems == ["exit code 2"] and fidelities == []
