from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GATE_PATH = Path(__file__).resolve().parent.parent / "tools" / "gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reconstruction(rho_01: float, iterations: int, trace: list[float], out: str) -> dict:
    return {"density_matrix": [[[0.5, 0.0], [rho_01, 0.0]], [[rho_01, 0.0], [0.5, 0.0]]],
            "log_likelihood": trace, "iterations": iterations, "newton_steps": 3,
            "stop_reason": "gap", "converged": True, "config": {"out": out}}


class TestDescribeDifference:
    def write(self, tmp_path: Path, side: str, payload: dict) -> Path:
        path = tmp_path / side / "reconstruction.json"
        path.parent.mkdir()
        path.write_text(json.dumps(payload))
        return path

    def test_density_matrix_deviation_reported_beside_iterations(self, gate, tmp_path):
        before = self.write(tmp_path, "before",
                            reconstruction(0.25, 110, [-2000.0, -1.5], "a"))
        after = self.write(tmp_path, "after",
                           reconstruction(0.25 + 2**-40, 140, [-1.0, -1.25, -1.5], "b"))
        text = gate.describe_difference(before, after)
        # the trace's first value moves by 1999 and hides rho's 9.1e-13
        assert text.startswith("max |dev| 2e+03")
        assert "density_matrix max |dev| 9.1e-13" in text
        assert "1 values only after" in text
        assert text.endswith(", iterations 110 -> 140, newton_steps 3 -> 3, "
                             "stop_reason gap -> gap")

    def test_unchanged_density_matrix_reads_zero(self, gate, tmp_path):
        before = self.write(tmp_path, "before", reconstruction(0.25, 110, [-1.5], "a"))
        after = self.write(tmp_path, "after", reconstruction(0.25, 120, [-1.5], "b"))
        assert "density_matrix max |dev| 0," in gate.describe_difference(before, after)

    def test_config_echo_alone_is_no_difference(self, gate, tmp_path):
        before = self.write(tmp_path, "before", reconstruction(0.25, 110, [-1.5], "a"))
        after = self.write(tmp_path, "after", reconstruction(0.25, 110, [-1.5], "b"))
        assert gate.describe_difference(before, after) is None

    def test_relative_deviation_scaled_by_the_columns_that_differ(self, gate, tmp_path):
        # a dim-50 g_spectrum whose lambda_1 = 16 moves by 3.9e-14: the index
        # column, which runs to 50 and agrees, does not set the scale
        values = 16.0 * 0.9 ** np.arange(50)
        paths = []
        for side, lead in (("before", 16.0), ("after", 16.0 + 3.9e-14)):
            path = tmp_path / side / "g_spectrum.csv"
            path.parent.mkdir()
            rows = [f"{k + 1},{v!r}" for k, v in enumerate([lead, *values[1:]])]
            path.write_text("\n".join([f"# config: {side}", "index,value", *rows]) + "\n")
            paths.append(path)
        assert gate.describe_difference(*paths) == "max |dev| 3.9e-14, 2.4e-15 relative"


class TestCompare:
    """compare's exit status: 1 when any file differs or is missing, else 0."""

    def tree(self, tmp_path: Path, side: str, files: dict) -> Path:
        root = tmp_path / side
        for name, payload in files.items():
            path = root / "small" / "reconstruct" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload))
        return root

    def test_numeric_difference_exits_1(self, gate, tmp_path, capsys):
        before = self.tree(tmp_path, "before",
                           {"reconstruction.json": reconstruction(0.25, 110, [-1.5], "a")})
        after = self.tree(tmp_path, "after",
                          {"reconstruction.json": reconstruction(0.26, 110, [-1.5], "b")})
        assert gate.compare(before, after) == 1
        assert "1 of 1 files differ" in capsys.readouterr().out

    def test_config_echo_alone_exits_0(self, gate, tmp_path, capsys):
        before = self.tree(tmp_path, "before",
                           {"reconstruction.json": reconstruction(0.25, 110, [-1.5], "a")})
        after = self.tree(tmp_path, "after",
                          {"reconstruction.json": reconstruction(0.25, 110, [-1.5], "b")})
        assert gate.compare(before, after) == 0
        out = capsys.readouterr().out
        assert "small/reconstruct/reconstruction.json  config echo only" in out
        assert "0 of 1 files differ, 0 on one side only, 1 in the config echo alone" in out

    def test_listing_does_not_depend_on_out(self, gate, tmp_path, capsys, monkeypatch):
        # the outputs echo their directory relative to OUT, so two runs into
        # two directories list the same hashes and compare with no echo listed
        monkeypatch.setattr(gate, "CASES", {"small": (gate.SMALL, ("gram-spectrum",))})
        trees, listings = [tmp_path / "one", tmp_path / "two" / "deeper"], []
        for tree in trees:
            monkeypatch.setattr("sys.argv", ["gate.py", str(tree)])
            assert gate.main() == 0
            listings.append(capsys.readouterr().out)
        assert listings[0] == listings[1]
        assert len(listings[0].splitlines()) == 3
        assert gate.compare(*trees) == 0
        assert "0 of 3 files differ, 0 on one side only, 0 in the config echo alone" in (
            capsys.readouterr().out)

    def test_missing_file_exits_1(self, gate, tmp_path, capsys):
        document = reconstruction(0.25, 110, [-1.5], "a")
        before = self.tree(tmp_path, "before", {"reconstruction.json": document,
                                                "extra.json": {"value": 1.0}})
        after = self.tree(tmp_path, "after", {"reconstruction.json": document})
        assert gate.compare(before, after) == 1
        assert "0 of 2 files differ, 1 on one side only" in capsys.readouterr().out


class TestNotation:
    """compare reads the text outside the config echo too: equal numbers
    written differently are a difference."""

    def tree(self, root: Path, directory: str) -> Path:
        # written by the program's own writers: a CSV grid and a JSON document
        # with values whose repr has a two-digit exponent
        from gramtomo.serialize import write_json, write_wigner_csv
        out = root / "small" / "reconstruct"
        out.mkdir(parents=True)
        echo = {"output": {"directory": directory}}
        grid = np.array([[2.5e-07, 0.125], [-3e-07, 1.0]])
        write_wigner_csv(out / "wigner.csv", np.array([-1.0, 1.0]), np.array([0.0, 2.0]),
                         grid, echo)
        write_json(out / "reconstruction.json", {"born_residual": 1e-07, "config": echo,
                                                 "iterations": 7})
        return root

    def test_exponent_rewrite_exits_1(self, gate, tmp_path, capsys):
        before = self.tree(tmp_path / "before", "a")
        after = self.tree(tmp_path / "after", "a")
        for path in (after / "small" / "reconstruct").iterdir():
            text = path.read_text()
            assert "e-07" in text
            path.write_text(text.replace("e-07", "e-7"))
        assert gate.compare(before, after) == 1
        out = capsys.readouterr().out
        assert "small/reconstruct/wigner.csv  max |dev| 0, 2 lines differ in bytes" in out
        assert "small/reconstruct/reconstruction.json  max |dev| 0, 1 lines differ in bytes" in out
        assert "2 of 2 files differ" in out

    def test_config_echo_alone_exits_0(self, gate, tmp_path, capsys):
        before = self.tree(tmp_path / "before", "a")
        after = self.tree(tmp_path / "after", "a/much/longer/directory")
        assert gate.compare(before, after) == 0
        out = capsys.readouterr().out
        for name in ("wigner.csv", "reconstruction.json"):
            assert f"small/reconstruct/{name}  config echo only" in out
        assert "0 of 2 files differ, 0 on one side only, 2 in the config echo alone" in out


def run_reconstruct(gate, case, tmp_path, capsys) -> dict:
    """reconstruction.json of the gate case's reconstruct at --seed 0."""
    from gramtomo.cli import main
    config, commands = gate.CASES[case]
    assert "reconstruct" in commands
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
    capsys.readouterr()
    return json.loads((out / "reconstruction.json").read_text())


def test_every_case_config_loads(gate, tmp_path):
    # load_config applies the schema and the form rule: one that refused a
    # case would fail here rather than in a gate run
    from gramtomo.cli import load_config
    for case, (config, _) in gate.CASES.items():
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(config))
        load_config(str(path))


def test_povm_file_is_small_povm(gate):
    # the committed POVM file holds SMALL's inline POVM, effect for effect (as
    # written on the host that made it; another BLAS may move the last bits)
    from gramtomo.cli import build_povm_from_config, load_config
    from gramtomo.serialize import decode_povm
    inline = build_povm_from_config(load_config(None, {"dim": gate.SMALL["dim"],
                                                       "povm": gate.SMALL["povm"]}))
    stored = decode_povm(json.loads(gate.POVM.read_text()))
    assert stored.dim == inline.dim
    assert np.abs(stored.vectors - inline.vectors).max() <= 1e-15


def test_ill_gram12_takes_an_eigensolve_newton_direction(gate, tmp_path, capsys):
    # the case pins a failed Cholesky test of the Newton solve at --seed 0
    result = run_reconstruct(gate, "ill-gram12", tmp_path, capsys)
    assert result["stop_reason"] == "gap"
    assert 0 < result["newton_fallbacks"] < result["newton_steps"]


def test_one_phase_gram9_takes_most_directions_from_the_eigensolve(gate, tmp_path, capsys):
    result = run_reconstruct(gate, "one-phase-gram9", tmp_path, capsys)
    assert result["stop_reason"] == "gap"
    assert 2 * result["newton_fallbacks"] > result["newton_steps"] > 0


def test_floored_counts_each_iterate_once(gate, tmp_path, capsys):
    # the one case whose solve engages the probability floor: one observed
    # outcome is floored at every iterate, so no gap is certified
    with pytest.warns(RuntimeWarning, match="probability floor"):
        result = run_reconstruct(gate, "floored", tmp_path, capsys)
    assert result["stop_reason"] == "cap" and result["likelihood_gap"] is None
    assert result["floor_hits"] == result["iterations"] + 1


@pytest.mark.parametrize("case", ["small", "reference", "dim30", "explicit-phases"])
def test_q_spectrum_matches_dense_route(gate, case, tmp_path, capsys):
    # q_spectrum holds the operator frame's modes, zero-padded to the outcome
    # count; eigvalsh of the N x N matrix Q is the dense route to the same spectrum
    from gramtomo import gram_matrix_operator_space, operator_frame
    from gramtomo.cli import build_povm_from_config, load_config, main
    config, commands = gate.CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert "gram-spectrum" in commands
    assert main(["gram-spectrum", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "q_spectrum.csv").read_text().splitlines()[2:]
    q = np.array([float(row.split(",")[1]) for row in rows])
    povm = build_povm_from_config(load_config(str(path)))
    dense = np.linalg.eigvalsh(gram_matrix_operator_space(povm))[::-1]
    assert operator_frame(povm).eigenvalues.size <= povm.n_outcomes == q.size
    assert np.abs(q - dense).max() <= 1e-12 * dense[0]
