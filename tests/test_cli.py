from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from jsonschema.validators import extend

from gramtomo import (HomodyneConfig, InvalidInputError, NoiseModel, PovmSet,
                      build_homodyne_povm, cat_state, coherent_state, effective_rank, fidelity,
                      fock_state, generate_counts, gram_spectrum, operator_frame, pure_density)
from gramtomo.cli import (CONFIG_SCHEMA, CONFIG_SCHEMA_PATH, _schema_error, _supported_schema,
                          build_povm_from_config, build_target_from_config, load_config, main)
from gramtomo.frames import frame_values
from gramtomo.serialize import POVM_SCHEMA, decode_povm, encode_povm

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()

SMALL = {
    "dim": 4,
    "target": {"kind": "cat", "alpha": 1.2, "parity": "even"},
    "povm": {"kind": "homodyne", "phase_count": 3, "bins": 13, "range": [-4.0, 4.0]},
    "noise": {"kind": "poisson", "exposure": 5000.0, "seed": 0},
    "solver": {"max_iterations": 300},
    "sweep": {"dims": [1, 2], "trials": 2, "bases": ["gram", "fock"]},
    "stability": {"basis": "gram", "dimension": 2, "trials": 2},
    "wigner_grid": {"x_range": [-3.0, 3.0], "p_range": [-3.0, 3.0],
                    "x_points": 7, "p_points": 7},
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"povm": {"kind": "homodyne", "widgets": 3}}))
        out = tmp_path / "out"
        code, _, err = run(["gram-spectrum", "--config", str(bad), "--out", str(out)],
                           capsys)
        assert code == 1
        assert "config validation error" in err
        assert not out.exists()

    def test_nonpositive_bins_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"povm": {"bins": 0}}))
        code, _, err = run(["gram-spectrum", "--config", str(bad)], capsys)
        assert code == 1
        assert "config validation error" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["gram-spectrum", "--config", str(bad)], capsys)
        assert code == 1
        assert "invalid input" in err

    def test_unwritable_out_is_io_error(self, small_config, tmp_path, capsys):
        # the directory is made only after the command has computed its outputs
        (tmp_path / "plain-file").write_text("")
        code, stdout, err = run(["gram-spectrum", "--config", str(small_config), "--out",
                                 str(tmp_path / "plain-file" / "out")], capsys)
        assert code == 3
        assert "io error" in err and stdout == ""

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code, _, err = run(["gram-spectrum", "--config",
                            str(tmp_path / "absent.json")], capsys)
        assert code == 3
        assert "io error" in err

    def test_schema_doc_matches_live_schema(self, capsys):
        # the file that the README and --config --help name is the one cli loads
        readme_path = re.search(r"validated against `([^`]+)`", README).group(1)
        with pytest.raises(SystemExit):
            main(["gram-spectrum", "--help"])
        help_path = re.search(r"\(see\s+(\S+)\)", capsys.readouterr().out).group(1)
        assert help_path == readme_path
        assert (ROOT / readme_path).resolve() == CONFIG_SCHEMA_PATH.resolve()
        assert json.loads((ROOT / readme_path).read_text()) == CONFIG_SCHEMA

    # integer fields take JSON integers only: JSON-Schema's integer takes 4.0,
    # which numpy and range() then refuse with a TypeError
    @pytest.mark.parametrize("section,value", [
        ("noise", {"seed": -1}), ("dim", 4.0), ("stability", {"trials": 2.0}),
        ("povm", {"phase_count": 3.0}), ("wigner_grid", {"x_points": 7.0})])
    def test_out_of_range_value_rejected(self, section, value, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: value}))
        out = tmp_path / "out"
        code, _, err = run(["reconstruct", "--config", str(bad), "--out", str(out)],
                           capsys)
        assert code == 1
        assert "config validation error" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, small_config, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gramtomo.cli", "reconstruct", "--config",
             str(small_config), "--out", str(tmp_path / "out"), "--seed", "-1"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config validation error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key", ["tol_born", "tol_likelihood", "dilution",
                                     "dilution_floor", "probability_floor"])
    def test_retired_solver_tolerance_rejected(self, key, tmp_path):
        # the certified likelihood gap is the only stop rule, so the Born-rule
        # tolerances are not config keys; nor are the dilution and probability
        # floors, which are the solver's constants
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({**SMALL, "solver": {key: 1e-7}}))
        proc = subprocess.run(
            [sys.executable, "-m", "gramtomo.cli", "reconstruct", "--config", str(conf),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config validation error" in proc.stderr and key in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target", [{"kind": "coherent", "alpha": 30.0},
                                        {"kind": "coherent", "alpha": 1.3e154},
                                        {"kind": "cat", "alpha": 30.0}])
    def test_large_alpha_rejected(self, target, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 4, "target": target}))
        proc = subprocess.run(
            [sys.executable, "-m", "gramtomo.cli", "reconstruct", "--config", str(conf),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "invalid input" in proc.stderr and "dim-4 Fock truncation" in proc.stderr
        assert "Traceback" not in proc.stderr and "alpha = 0" not in proc.stderr

    @pytest.mark.parametrize("command,config,povm_file", [
        ("reconstruct", '{"wigner_grid": {"x_range": [NaN, 3.0]}}', None),
        ("reconstruct", '{"noise": {"exposure": NaN}}', None),
        ("reconstruct", '{"noise": {"exposure": Infinity}}', None),
        ("reconstruct", '{"wigner_grid": {"p_range": [-1e400, 3.0]}}', None),
        ("reconstruct", '{"noise": {"kind": "exact", "exposure": 1%s}}' % ("0" * 400), None),
        ("gram-spectrum", '{"dim": 2, "povm": {"file": POVM_FILE}}',
         '{"dim": 2, "effects": [{"vector": [[1.0, 0.0], [NaN, 0.0]]}]}'),
    ], ids=["nan-range", "nan-exposure", "infinity", "1e400", "10^400", "nan-povm-file"])
    def test_non_finite_json_constants_rejected(self, command, config, povm_file,
                                                tmp_path):
        # Python's json reads NaN, Infinity and 1e400 as floats, and 10^400 as an
        # integer, that the output writer refuses or numpy cannot use
        if povm_file is not None:
            (tmp_path / "povm.json").write_text(povm_file)
            config = config.replace("POVM_FILE", json.dumps(str(tmp_path / "povm.json")))
        conf = tmp_path / "conf.json"
        conf.write_text(config)
        proc = subprocess.run(
            [sys.executable, "-m", "gramtomo.cli", command, "--config", str(conf),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "invalid input" in proc.stderr and "not a finite number" in proc.stderr
        assert "Traceback" not in proc.stderr
        # the refused run leaves no output directory behind
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--seed", "abc"], ["--bogus"]])
    def test_usage_error_exits_1(self, flags, tmp_path):
        # exit code 2 is kept for numerical-consistency failures
        proc = subprocess.run(
            [sys.executable, "-m", "gramtomo.cli", "reconstruct", *flags,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "usage:" in proc.stderr and "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flags", [
        ("gram-spectrum", ["--basis", "gram"]),
        ("gram-spectrum", ["--trials", "3"]),
        ("gram-spectrum", ["--dims", "1,2"]),
        ("frames-check", ["--basis", "fock"]),
        ("frames-check", ["--trials", "3"]),
        ("reconstruct", ["--trials", "3"]),
        ("reconstruct", ["--dims", "1,2"]),
        ("stability", ["--dims", "1,2"]),
    ])
    def test_flag_the_command_ignores_is_usage_error(self, command, flags, small_config,
                                                     tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run([command, "--config", str(small_config), "--out", str(out),
                            *flags], capsys)
        assert code == 1
        assert "usage:" in err and f"unrecognized arguments: {flags[0]}" in err
        assert not out.exists()

    @pytest.mark.parametrize("target, echo", [
        (None, {"kind": "cat", "alpha": 2.0, "parity": "even"}),
        ({"parity": "odd"}, {"kind": "cat", "alpha": 2.0, "parity": "odd"}),
        ({"kind": "coherent"}, {"kind": "coherent", "alpha": 2.0}),
        ({"kind": "coherent", "alpha": [1.0, 0.5]}, {"kind": "coherent", "alpha": [1.0, 0.5]}),
        ({"kind": "fock"}, {"kind": "fock", "n": 0}),
        ({"kind": "fock", "n": 3}, {"kind": "fock", "n": 3}),
    ], ids=["default", "cat", "coherent", "coherent-complex", "fock", "fock-n"])
    def test_target_echo_names_the_fields_its_kind_reads(self, target, echo, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({} if target is None else {"target": target}))
        assert load_config(str(conf))["target"] == echo

    @pytest.mark.parametrize("target, key", [
        ({"kind": "fock", "n": 2, "alpha": 3.0}, "alpha"),
        ({"kind": "fock", "parity": "odd"}, "parity"),
        ({"kind": "coherent", "alpha": 1.0, "parity": "even"}, "parity"),
        ({"n": 1}, "n"),
    ], ids=["fock-alpha", "fock-parity", "coherent-parity", "cat-n"])
    def test_target_field_its_kind_ignores_rejected(self, target, key, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 4, "target": target}))
        out = tmp_path / "out"
        code, stdout, err = run(["reconstruct", "--config", str(conf), "--out", str(out)],
                                capsys)
        kind = target.get("kind", "cat")
        assert code == 1 and stdout == ""
        assert err == f"config validation error: target.{key}: not read by a {kind} target\n"
        assert not out.exists()

    @pytest.mark.parametrize("povm, message", [
        ({"kind": "projective", "bins": 13}, "povm.bins: not read by a projective POVM"),
        ({"kind": "homodyne", "file": "povm.json"}, "povm.kind: not read by a file POVM"),
        ({"file": "povm.json", "range": [-4.0, 4.0]}, "povm.range: not read by a file POVM"),
        ({"phase_count": 3, "phases": [0.0, 1.0]},
         "povm.phase_count: not read beside povm.phases"),
        ({"phases": [0.0, 1.0], "phase_count": 3},
         "povm.phase_count: not read beside povm.phases"),
        ({"kind": "projective", "phases": [0.0, 1.0]},
         "povm.phases: not read by a projective POVM"),
    ], ids=["projective-bins", "file-kind", "file-range", "phase_count-phases",
            "phases-phase_count", "projective-phases"])
    def test_povm_field_its_form_ignores_rejected(self, povm, message, tmp_path, capsys):
        # the file is never read: the config is refused before any command runs
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 4, "povm": povm}))
        out = tmp_path / "out"
        code, stdout, err = run(["reconstruct", "--config", str(conf), "--out", str(out)],
                                capsys)
        assert code == 1 and stdout == ""
        assert err == f"config validation error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"povm": {"file": ""}},
        {"povm": {"phase_count": 3, "bins": 13, "range": [-4, 4]}, "counts_file": ""},
    ], ids=["povm-file", "counts-file"])
    def test_empty_path_is_read(self, config, tmp_path, capsys):
        # "" names the working directory like any relative path, so the read
        # fails; it is not taken for an unset path
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 4, **config}))
        out = tmp_path / "out"
        code, stdout, err = run(["reconstruct", "--config", str(conf), "--out", str(out)],
                                capsys)
        assert code == 3 and stdout == ""
        assert err.splitlines()[-1] == "io error: [Errno 21] Is a directory: '.'"
        assert not out.exists()

    def test_defaults_pass_schema(self):
        assert _schema_error(load_config(None), CONFIG_SCHEMA) is None

    def test_defaults_hold_values_only(self):
        # an unset optional field is absent, not a None placeholder at any depth
        assert "null" not in json.dumps(load_config(None))

    def test_explicit_null_is_echoed_as_written(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({**SMALL, "reconstruction": {"basis": "full",
                                                                "dimension": None}}))
        out = tmp_path / "out"
        code, _, err = run(["gram-spectrum", "--config", str(conf), "--out", str(out)], capsys)
        assert code == 0, err
        echo = json.loads((out / "rank_report.json").read_text())["config"]
        assert echo["reconstruction"] == {"basis": "full", "dimension": None}

    @pytest.mark.parametrize("schema", [
        {"type": "object", "properties": {"file": {"type": "string", "pattern": "json$"}}},
        {"type": "object", "required": ["dim"]},
        {"type": "object", "additionalProperties": {"type": "integer"}},
        {"type": "object", "properties": {"on": {"type": "boolean"}}},
        {"oneOf": [{"type": "number"}, {"type": "array"}]},
        {"type": "array", "items": {"type": "number", "multipleOf": 0.5}},
    ], ids=["pattern", "required", "additionalProperties-schema", "boolean", "oneOf",
            "in-items"])
    def test_unsupported_schema_keyword_refused(self, schema):
        # the checker implements only the keywords the config schema uses; any
        # other would be ignored, so a schema holding one is refused outright
        with pytest.raises(ValueError, match="unsupported"):
            _supported_schema(schema)

    def test_cli_import_leaves_jsonschema_out(self):
        # jsonschema and its dependencies cost about 75 ms of every command's start
        proc = subprocess.run(
            [sys.executable, "-c", "import gramtomo.cli, sys; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] in {'jsonschema', 'referencing', 'attrs', "
             "'rpds'}))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_scipy_out(self):
        # scipy serves the tests only; importing it costs every command's start
        proc = subprocess.run(
            [sys.executable, "-c", "import gramtomo.cli, sys; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_readme_defaults_match(self):
        block = re.search(r"defaults shown:\n\n```json\n(.*?)\n```", README, re.S).group(1)
        assert json.loads(block) == load_config(None)


class ReadRecord(dict):
    """A config section that records each key whose value is read from it; a
    test of a key's presence reads no value."""

    def __init__(self, section: dict):
        super().__init__(section)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.read.add(key)
        return super().get(key, default)


class TestEchoOracle:
    """The echo of a target or POVM section names exactly the keys that its
    builder reads, kind included where the builder reads it."""

    @pytest.mark.parametrize("target", [
        {}, {"parity": "odd", "alpha": 1.2}, {"kind": "coherent"},
        {"kind": "coherent", "alpha": [1.0, 0.5]}, {"kind": "fock"}, {"kind": "fock", "n": 2},
    ], ids=["cat", "cat-set", "coherent", "coherent-complex", "fock", "fock-n"])
    def test_target_echo_is_what_the_builder_reads(self, target, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 4, "target": target}))
        config = load_config(str(conf))
        config["target"] = ReadRecord(config["target"])
        build_target_from_config(config)
        assert set(config["target"]) == config["target"].read

    @pytest.mark.parametrize("povm", [
        {}, {"phase_count": 3, "bins": 13, "range": [-4.0, 4.0]},
        {"phases": [0.0, 0.4, 0.9]}, {"kind": "homodyne", "phases": [0.0, 1.5], "bins": 7},
        {"kind": "projective"}, {"file": "povm.json"},
    ], ids=["uniform", "uniform-set", "phases", "phases-set", "projective", "file"])
    def test_povm_echo_is_what_the_builder_reads(self, povm, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        small = build_homodyne_povm(HomodyneConfig.uniform(3, 13, (-4.0, 4.0)), 4)
        Path("povm.json").write_text(json.dumps(encode_povm(small)))
        Path("conf.json").write_text(json.dumps({"dim": 4, "povm": povm}))
        config = load_config("conf.json")
        config["povm"] = ReadRecord(config["povm"])
        build_povm_from_config(config)
        assert set(config["povm"]) == config["povm"].read


def _schema_paths(schema: dict, path: tuple = ()) -> list[tuple]:
    """Every key path the schema names; an array's items are reached at index 0."""
    paths = [path]
    for key, sub in schema.get("properties", {}).items():
        paths += _schema_paths(sub, path + (key,))
    if "items" in schema:
        paths += _schema_paths(schema["items"], path + (0,))
    return paths


def _mutate(config: dict, rng: random.Random, paths: list[tuple]):
    """config with one to three random edits: a value replaced by a random one
    of any type, range, enum member, length or integral float, a key removed or
    an unknown key added."""
    numbers = [0, 1, 2, 3, 7, 30, -1, -2, 0.0, 1.0, 2.0, 3.0, 4.0, 7.0, -1.0, 0.5, 2.5]
    others = [True, False, None, "", "cat", "coherent", "fock", "homodyne", "projective",
              "exact", "multinomial", "poisson", "full", "gram", "csv", "json", "odd",
              "even", "bogus"]

    def value(nested=False):
        roll = rng.random()
        if roll < 0.4:
            return rng.choice(numbers)
        if roll < 0.7 or nested:
            return rng.choice(others)
        if roll < 0.8:
            # numbers, pairs, triples and empty arrays: alpha and the ranges
            return [rng.choice(numbers) for _ in range(rng.randrange(4))]
        if roll < 0.95:
            return [value(True) for _ in range(rng.randrange(4))]
        return {rng.choice(["kind", "seed", "widgets"]): value(True)}

    config = copy.deepcopy(config)
    for _ in range(rng.choice([1, 1, 2, 3])):
        path = rng.choice(paths)
        if not path:
            if rng.random() < 0.05:
                return value()
            config[rng.choice(["widgets", "tol_born"])] = value()
            continue
        *steps, key = path
        parent = config
        for step in steps:
            # an earlier edit may have replaced a section, so the path can end early
            if isinstance(parent, dict) and isinstance(step, str):
                parent = parent.setdefault(step, {})
            else:
                parent = parent[0] if isinstance(parent, list) and parent and step == 0 else None
        if isinstance(parent, dict) and isinstance(key, str):
            roll = rng.random()
            if roll < 0.1:
                parent.pop(key, None)
            elif roll < 0.2:
                parent["widgets"] = value()
            else:
                parent[key] = value()
        elif isinstance(parent, list) and parent and key == 0:
            parent[rng.randrange(len(parent))] = value()
    return config


def _holds_integral_float(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(_holds_integral_float, value))


def _agreement_with_jsonschema(schema: dict, bases, draws: int,
                               rng: random.Random) -> tuple[list, int]:
    """Check _schema_error against jsonschema on draws documents mutated from
    each base; returns the accepted documents and the count refused only by
    the integer rule. That rule is the checker's one deliberate difference:
    an integer is a JSON integer, so 4.0 is not one; where a document holds an
    integral float, the checker agrees with a Draft202012Validator that has
    this integer rule instead."""
    plain = Draft202012Validator(schema)
    integer = Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool))
    strict = extend(Draft202012Validator, type_checker=integer)(schema)
    paths = _schema_paths(schema)
    accepted, refused_integral_floats = [], 0
    for base in bases:
        for _ in range(draws):
            document = _mutate(base, rng, paths)
            error = _schema_error(document, schema)
            if error is None:
                accepted.append(document)
            if not _holds_integral_float(document):
                assert (error is None) == plain.is_valid(document), (document, error)
                continue
            assert (error is None) == strict.is_valid(document), (document, error)
            if error is not None and plain.is_valid(document):
                assert re.search(r": -?\d+\.0 is not of type integer", error), error
                refused_integral_floats += 1
    return accepted, refused_integral_floats


class TestSchemaOracle:
    """The config checker against jsonschema's Draft 2020-12 validator."""

    def test_schema_is_valid_2020_12(self):
        Draft202012Validator.check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize("schema,value", [
        ({"type": "object", "properties": {"a": {"type": "integer"}}}, {"b": 1.5}),
        ({"type": ["integer", "null"], "minimum": 1}, None),
        ({"type": "array", "items": {"enum": ["a"]}, "maxItems": 1}, ["a", "a"]),
    ], ids=["extra-keys-allowed", "null-skips-minimum", "maxItems"])
    def test_keywords_agree_on_small_schemas(self, schema, value):
        # cases the config schema cannot show, such as an object without
        # additionalProperties
        accepted = _schema_error(value, _supported_schema(schema)) is None
        assert accepted == Draft202012Validator(schema).is_valid(value)

    @pytest.mark.parametrize("alpha", [2, 2.5, -1, [1, 2], [1.0, 2.5], [], [1], [1, 2, 3],
                                       [1, "a"], "x", True, None, {}])
    def test_alpha_type_list_accepts_what_one_of_did(self, alpha):
        # alpha was a oneOf of a number and a pair of numbers; the type list
        # with the pair's items and counts accepts the same values
        one_of = {"oneOf": [{"type": "number"},
                            {"type": "array", "items": {"type": "number"},
                             "minItems": 2, "maxItems": 2}]}
        schema = CONFIG_SCHEMA["properties"]["target"]["properties"]["alpha"]
        accepted = Draft202012Validator(one_of).is_valid(alpha)
        assert Draft202012Validator(schema).is_valid(alpha) == accepted
        assert (_schema_error(alpha, schema) is None) == accepted

    def test_agrees_with_jsonschema(self):
        accepted, refused_integral_floats = _agreement_with_jsonschema(
            CONFIG_SCHEMA, (load_config(None), SMALL), 2500, random.Random(20261019))
        assert 250 < len(accepted) < 4750
        assert refused_integral_floats > 50


class TestPovmSchemaOracle:
    """The POVM file's checker against jsonschema's Draft 2020-12 validator."""

    def test_schema_is_valid_2020_12(self):
        Draft202012Validator.check_schema(POVM_SCHEMA)

    def test_agrees_with_jsonschema(self):
        rng = np.random.default_rng(20261022)
        bases = [encode_povm(PovmSet(np.eye(2, dtype=complex))),
                 encode_povm(PovmSet(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))))]
        accepted, refused_integral_floats = _agreement_with_jsonschema(
            POVM_SCHEMA, bases, 750, random.Random(20261022))
        assert 150 < len(accepted) < 1350
        assert refused_integral_floats > 10
        # an accepted document decodes or is refused as invalid input: one
        # without a key, or with vectors of other lengths than dim
        for document in accepted:
            try:
                decode_povm(document)
            except InvalidInputError as exc:
                assert re.fullmatch(r"malformed POVM encoding: missing key '\w+'|all effects "
                                    r"must share the ambient dimension", str(exc)), exc


class TestGramSpectrumCommand:
    def test_csv_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run(["gram-spectrum", "--config", str(small_config),
                               "--out", str(out)], capsys)
        assert code == 0
        listed = [Path(p) for p in stdout.strip().splitlines()]
        assert listed == [out / "g_spectrum.csv", out / "q_spectrum.csv",
                          out / "rank_report.json"]
        g_rows = [ln for ln in (out / "g_spectrum.csv").read_text().splitlines()
                  if ln and not ln.startswith("#")]
        assert g_rows[0] == "index,value"
        g_vals = [float(r.split(",")[1]) for r in g_rows[1:]]
        assert len(g_vals) == 4
        assert all(a >= b for a, b in zip(g_vals, g_vals[1:]))
        q_rows = [ln for ln in (out / "q_spectrum.csv").read_text().splitlines()
                  if ln and not ln.startswith("#")]
        # Q is indexed by outcomes: 3 phases x 13 bins
        assert len(q_rows) - 1 == 39
        report = json.loads((out / "rank_report.json").read_text())
        assert report["support_rank"] == 4
        assert 0 < report["smallest_to_largest_ratio"] <= 1
        gaps = report["relative_spectral_gaps"]
        assert gaps == pytest.approx([(a - b) / g_vals[0] for a, b in zip(g_vals, g_vals[1:])],
                                     rel=1e-12, abs=1e-15)

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # q_spectrum comes from the small class SVDs of the operator frame, whose
        # bits do not depend on the thread count; a dense N x N eigensolve's do
        out = tmp_path / "out"
        written = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "gramtomo.cli", "gram-spectrum", "--out", str(out)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                text=True)
            assert proc.returncode == 0, proc.stderr
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert sorted(written[0]) == ["g_spectrum.csv", "q_spectrum.csv", "rank_report.json"]
        assert written[0] == written[1]

    def test_projective_gram_is_identity(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 5, "povm": {"kind": "projective"}}))
        out = tmp_path / "out"
        code, _, _ = run(["gram-spectrum", "--config", str(conf), "--out", str(out),
                          "--format", "json"], capsys)
        assert code == 0
        g = json.loads((out / "g_spectrum.json").read_text())["values"]
        assert g == [1.0] * 5
        report = json.loads((out / "rank_report.json").read_text())
        assert report["smallest_to_largest_ratio"] == 1.0
        assert report["effective_rank"] == 5

    def test_json_format_flag(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(["gram-spectrum", "--config", str(small_config),
                          "--out", str(out), "--format", "json"], capsys)
        assert code == 0
        assert (out / "g_spectrum.json").exists()
        assert not (out / "g_spectrum.csv").exists()


def table_values(path: Path) -> np.ndarray:
    """The value column of a CSV table written by the CLI."""
    rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.array([float(row.split(",")[1]) for row in rows[1:]])


class TestValuesOnlySpectra:
    """gram-spectrum reads G and S off singular values alone; the full
    decompositions that frames-check and the solver use give the same spectra
    to rounding."""

    CONFIGS = {
        "reference": {},
        "dim30": {"dim": 30, "povm": {"range": [-6.0, 6.0]}},
        "dim50": {"dim": 50, "povm": {"phase_count": 16, "bins": 101, "range": [-8.0, 8.0]}},
        # non-uniform phases on an asymmetric window: the operator frame is one block
        "explicit-phases": {"povm": {"phases": [0.0, 0.4, 0.9, 1.5, 2.2, 2.8],
                                     "range": [-5.0, 5.5]}},
        "file-fewer-outcomes-than-dim": None,
    }

    def config_path(self, case: str, tmp_path: Path) -> Path:
        config = self.CONFIGS[case]
        if config is None:
            # four outcomes at dim 6: G has two zero eigenvalues and S four modes
            rng = np.random.default_rng(5)
            vectors = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
            povm_path = tmp_path / "povm.json"
            povm_path.write_text(json.dumps(encode_povm(PovmSet(vectors))))
            config = {"dim": 6, "povm": {"file": str(povm_path)}}
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        return path

    @pytest.mark.parametrize("case", list(CONFIGS))
    def test_spectra_match_full_decompositions(self, case, tmp_path, capsys):
        conf = self.config_path(case, tmp_path)
        out = tmp_path / "out"
        code, _, err = run(["gram-spectrum", "--config", str(conf), "--out", str(out)], capsys)
        assert code == 0, err
        povm = build_povm_from_config(load_config(str(conf)))
        analysis = gram_spectrum(povm)
        modes = operator_frame(povm).eigenvalues
        for name, full in (("g_spectrum", analysis.eigenvalues),
                           ("q_spectrum", np.pad(modes, (0, povm.n_outcomes - modes.size)))):
            written = table_values(out / f"{name}.csv")
            assert written.shape == full.shape, name
            assert np.abs(written - full).max() <= 1e-13 * full[0], name
        report = json.loads((out / "rank_report.json").read_text())
        assert report["support_rank"] == analysis.rank
        assert report["effective_rank"] == effective_rank(analysis)

    @pytest.mark.parametrize("case", list(CONFIGS))
    def test_frame_values_match_operator_frame(self, case, tmp_path):
        povm = build_povm_from_config(load_config(str(self.config_path(case, tmp_path))))
        frame, values = operator_frame(povm), frame_values(povm)
        assert values.eigenvalues.shape == (povm.n_outcomes,)
        assert values.rank == frame.rank
        assert values.threshold == pytest.approx(frame.threshold, rel=1e-13)
        modes = frame.eigenvalues.size
        assert np.abs(values.eigenvalues[:modes] - frame.eigenvalues).max() <= (
            1e-13 * frame.eigenvalues[0])
        assert not values.eigenvalues[modes:].any()

    @pytest.mark.parametrize("case", ["reference", "explicit-phases"])
    def test_takes_no_singular_vectors(self, case, tmp_path, capsys, monkeypatch):
        def refuse(povm):
            raise AssertionError("gram-spectrum took a full decomposition")

        for name in ("gramtomo.povm.gram_spectrum", "gramtomo.cli.operator_frame",
                     "gramtomo.frames.operator_frame"):
            monkeypatch.setattr(name, refuse)
        svd = np.linalg.svd

        def values_only(a, **kwargs):
            assert kwargs.get("compute_uv") is False, "gram-spectrum took singular vectors"
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", values_only)
        conf = self.config_path(case, tmp_path)
        code, _, err = run(["gram-spectrum", "--config", str(conf), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 0, err


@pytest.mark.parametrize("config", [{}, {"dim": 30, "povm": {"range": [-6.0, 6.0]}}],
                         ids=["reference", "dim30"])
def test_no_command_forms_an_n_by_n_matrix(config, tmp_path, capsys, monkeypatch):
    def refuse(povm):
        raise AssertionError(f"formed the {povm.n_outcomes} x {povm.n_outcomes} Gram matrix")

    monkeypatch.setattr("gramtomo.povm.gram_matrix_state_space", refuse)
    monkeypatch.setattr("gramtomo.frames.gram_matrix_state_space", refuse)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config))
    for command in ("gram-spectrum", "frames-check"):
        code, _, err = run([command, "--config", str(conf), "--out", str(tmp_path / command)],
                           capsys)
        assert code == 0, err


class TestReconstructCommand:
    def test_outputs_and_fidelity(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run(["reconstruct", "--config", str(small_config),
                                 "--out", str(out)], capsys)
        assert code == 0
        assert "wall time" in err
        payload = json.loads((out / "reconstruction.json").read_text())
        assert 0 <= payload["fidelity_to_target"] <= 1
        est = payload["density_matrix"]
        assert len(est) == 4 and len(est[0]) == 4
        wigner_lines = (out / "wigner.csv").read_text().splitlines()
        data = [ln for ln in wigner_lines if ln and not ln.startswith("#")]
        assert data[0].startswith("x,")
        assert data[1].startswith("p,")
        assert len(data) == 2 + 7

    def test_grid_refused_before_the_solve(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({**SMALL, "wigner_grid": {"x_range": [3.0, -3.0]}}))
        out = tmp_path / "out"
        code, stdout, err = run(["reconstruct", "--config", str(conf), "--out", str(out)],
                                capsys)
        assert code == 1 and stdout == ""
        # the only line before the refusal is the target's truncation warning
        assert err.splitlines()[-1] == "invalid input: grid ranges must be increasing intervals"
        assert "wall time" not in err
        assert not out.exists()

    def test_stop_fields_written(self, small_config, tmp_path, capsys):
        # at a 50-iteration cap, before the first Newton polish (whose interval
        # is ceil(8 r^4 / N) = 53 at r = 4, N = 39), the gap is not yet
        # certified; with the default cap the CLI's gap rule (TOL_GAP, 1e-10)
        # stops the run
        conf = json.loads(small_config.read_text())
        conf["solver"]["max_iterations"] = 50
        capped_path = small_config.parent / "capped.json"
        capped_path.write_text(json.dumps(conf))
        del conf["solver"]
        uncapped = small_config.parent / "uncapped.json"
        uncapped.write_text(json.dumps(conf))
        payloads = []
        for path in (capped_path, uncapped):
            out = tmp_path / path.stem
            code, _, _ = run(["reconstruct", "--config", str(path), "--out", str(out)],
                             capsys)
            assert code == 0
            payloads.append(json.loads((out / "reconstruction.json").read_text()))
        capped, certified = payloads
        assert (capped["stop_reason"], capped["converged"]) == ("cap", False)
        assert capped["iterations"] == 50 and capped["likelihood_gap"] >= 1e-10
        assert (certified["stop_reason"], certified["converged"]) == ("gap", True)
        assert certified["likelihood_gap"] < 1e-10
        assert 50 < certified["iterations"] < 20000
        assert (capped["newton_steps"], capped["floor_hits"]) == (0, 0)
        assert 0 < certified["newton_steps"] < certified["iterations"]
        assert certified["floor_hits"] == 0
        # the tolerance is fixed, so the echoed config is unchanged
        assert "tol_gap" not in certified["config"]["solver"]

    @pytest.mark.parametrize("command", ["reconstruct", "sweep", "stability"])
    def test_truncation_leak_warned(self, command, small_config, tmp_path, capsys):
        # dim 4 keeps 2.1e-167 of a coherent state at alpha = 20; the output
        # files do not change, the run says so on stderr
        conf = json.loads(small_config.read_text())
        conf["target"] = {"kind": "coherent", "alpha": 20.0}
        conf["sweep"]["trials"] = 1
        path = small_config.parent / "leaky.json"
        path.write_text(json.dumps(conf))
        code, _, err = run([command, "--config", str(path), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 0
        assert "warning: the dim-4 Fock truncation keeps 2.06e-167" in err

    def test_small_truncation_leak_not_warned(self, tmp_path, capsys):
        # the default even cat at alpha = 2 keeps 0.999992 of its weight at dim 15
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"solver": {"max_iterations": 2}}))
        code, _, err = run(["reconstruct", "--config", str(conf), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 0
        assert "warning" not in err

    @pytest.mark.parametrize("target, oracle", [
        ({"kind": "fock", "n": 1}, lambda dim: fock_state(1, dim)),
        ({"kind": "coherent", "alpha": [0.3, -0.4]},
         lambda dim: coherent_state(complex(0.3, -0.4), dim, normalized=True))])
    def test_target_forms_reach_the_fidelity(self, target, oracle, small_config, tmp_path,
                                             capsys):
        # the written fidelity is to the configured target: a Fock state, or a
        # coherent state whose alpha is given as [re, im]
        conf = {**json.loads(small_config.read_text()), "target": target}
        path = small_config.parent / "target.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "out"
        code, _, err = run(["reconstruct", "--config", str(path), "--out", str(out)], capsys)
        assert code == 0 and "warning" not in err
        payload = json.loads((out / "reconstruction.json").read_text())
        # the echo names the target's own fields and no default of another kind
        assert payload["config"]["target"] == target
        pairs = np.array(payload["density_matrix"])
        rho = pairs[..., 0] + 1j * pairs[..., 1]
        expected = fidelity(oracle(SMALL["dim"]), rho)
        assert payload["fidelity_to_target"] == pytest.approx(expected, abs=1e-12)
        assert expected > 0.9

    def test_seed_flag_changes_data(self, small_config, tmp_path, capsys):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"out{seed}"
            code, _, _ = run(["reconstruct", "--config", str(small_config),
                              "--out", str(out), "--seed", str(seed)], capsys)
            assert code == 0
            outs.append(json.loads((out / "reconstruction.json").read_text()))
        assert outs[0]["density_matrix"] != outs[1]["density_matrix"]
        assert outs[0]["config"]["noise"]["seed"] == 1
        assert outs[1]["config"]["noise"]["seed"] == 2

    @pytest.mark.parametrize("basis", ["fock", "gram"])
    def test_subspace_dimension_beyond_ambient_rejected(self, basis, small_config,
                                                        tmp_path, capsys):
        conf = json.loads(small_config.read_text())
        conf["reconstruction"] = {"basis": basis, "dimension": 9}
        path = small_config.parent / "too-big.json"
        path.write_text(json.dumps(conf))
        code, _, err = run(["reconstruct", "--config", str(path), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 1
        assert "invalid input" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,flags", [
        ({"basis": "gram", "dimension": None}, []),
        ({"basis": "fock", "dimension": None}, []),
        ({"basis": "full", "dimension": 2}, []),
        ({"basis": "full", "dimension": None}, ["--basis", "gram"]),
    ], ids=["gram-null", "fock-null", "full-2", "flag-gram-null"])
    def test_basis_and_dimension_must_agree(self, section, flags, small_config, tmp_path):
        # a subspace basis needs a dimension, and the full basis takes none; the
        # run is refused rather than solved in a basis that the echo misnames
        conf = json.loads(small_config.read_text())
        conf["reconstruction"] = section
        path = small_config.parent / "basis.json"
        path.write_text(json.dumps(conf))
        proc = subprocess.run(
            [sys.executable, "-m", "gramtomo.cli", "reconstruct", "--config", str(path),
             "--out", str(tmp_path / "out"), *flags],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "invalid input" in proc.stderr and "reconstruction.basis" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_subspace_embeds_in_ambient(self, small_config, tmp_path, capsys):
        conf = json.loads(small_config.read_text())
        conf["reconstruction"] = {"basis": "fock", "dimension": 2}
        path = small_config.parent / "sub.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "out"
        code, _, _ = run(["reconstruct", "--config", str(path), "--out", str(out)],
                         capsys)
        assert code == 0
        est = json.loads((out / "reconstruction.json").read_text())["density_matrix"]
        rho = np.array([[complex(re, im) for re, im in row] for row in est])
        assert rho.shape == (4, 4)
        assert np.abs(rho[2:, :]).max() < 1e-12
        assert np.abs(rho[:, 2:]).max() < 1e-12


class TestCountsFile:
    def write_counts(self, path, counts, bins, header=True):
        lines = ["# synthetic data"]
        if header:
            lines.append("phase_index,bin_index,count")
        for idx, c in enumerate(counts):
            lines.append(f"{idx // bins},{idx % bins},{c}")
        path.write_text("\n".join(lines) + "\n")

    def test_roundtrip_matches_generated(self, small_config, tmp_path, capsys):
        config = load_config(str(small_config))
        povm = build_povm_from_config(config)
        rho = pure_density(cat_state(1.2, "even", 4))
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0,
                                                   seed=0))
        counts_path = tmp_path / "counts.csv"
        self.write_counts(counts_path, ds.counts, bins=13)

        conf = json.loads(small_config.read_text())
        conf["counts_file"] = str(counts_path)
        with_file = small_config.parent / "withfile.json"
        with_file.write_text(json.dumps(conf))

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["reconstruct", "--config", str(small_config), "--out",
                    str(out_a)], capsys)[0] == 0
        assert run(["reconstruct", "--config", str(with_file), "--out",
                    str(out_b)], capsys)[0] == 0
        rec_a = json.loads((out_a / "reconstruction.json").read_text())
        rec_b = json.loads((out_b / "reconstruction.json").read_text())
        assert rec_a["density_matrix"] == rec_b["density_matrix"]
        assert rec_a["fidelity_to_target"] == rec_b["fidelity_to_target"]

    def test_indented_comment_is_not_a_row(self, tmp_path, capsys):
        conf = {"dim": 4, "target": SMALL["target"], "povm": {"phase_count": 2, "bins": 5},
                "wigner_grid": SMALL["wigner_grid"]}
        written = {}
        for name, comment in (("plain", []), ("indented", ["  # note"])):
            counts_path = tmp_path / f"{name}.csv"
            counts_path.write_text("\n".join(
                ["phase_index,bin_index,count"] + comment
                + [f"{i // 5},{i % 5},{100 + 7 * i}" for i in range(10)]) + "\n")
            conf_path = tmp_path / f"{name}.json"
            conf_path.write_text(json.dumps({**conf, "counts_file": str(counts_path)}))
            out = tmp_path / f"out-{name}"
            code, _, err = run(["reconstruct", "--config", str(conf_path), "--out", str(out)],
                               capsys)
            assert code == 0, err
            written[name] = json.loads((out / "reconstruction.json").read_text())
            # the echo names the counts file and the output directory
            del written[name]["config"]
        assert written["indented"] == written["plain"]

    def counts_config(self, tmp_path, target: bool) -> Path:
        """SMALL reading the committed gate counts, with its target or with none."""
        conf = {key: value for key, value in SMALL.items() if target or key != "target"}
        conf["counts_file"] = str(ROOT / "tools" / "gate-counts.csv")
        path = tmp_path / f"counts-{target}.json"
        path.write_text(json.dumps(conf))
        return path

    def test_counts_without_target_report_no_fidelity(self, tmp_path, capsys):
        written = {}
        for target in (True, False):
            out = tmp_path / f"out-{target}"
            config = self.counts_config(tmp_path, target)
            code, _, err = run(["reconstruct", "--config", str(config), "--out", str(out)],
                               capsys)
            assert code == 0, err
            written[target] = (json.loads((out / "reconstruction.json").read_text()),
                               (out / "wigner.csv").read_text().splitlines())
        (configured, configured_grid), (bare, bare_grid) = written[True], written[False]
        # no target is invented: the field is absent, and so is the echo's target
        assert "fidelity_to_target" not in bare and "target" not in bare["config"]
        assert configured["config"]["target"] == SMALL["target"]
        pairs = np.array(configured["density_matrix"])
        rho = pairs[..., 0] + 1j * pairs[..., 1]
        assert configured["fidelity_to_target"] == pytest.approx(
            fidelity(cat_state(1.2, "even", 4), rho), abs=1e-12)
        # the target changes nothing else
        for payload in (configured, bare):
            del payload["config"]
        del configured["fidelity_to_target"]
        assert configured == bare and configured_grid[1:] == bare_grid[1:]

    @pytest.mark.parametrize("command, code", [("sweep", 1), ("stability", 1),
                                               ("gram-spectrum", 0), ("frames-check", 0)])
    def test_counts_without_target_run_what_reads_no_target(self, command, code, tmp_path,
                                                            capsys):
        # sweep and stability simulate from the target, so they refuse a config
        # without one; the measurement's own commands run as before
        out = tmp_path / "out"
        result = run([command, "--config", str(self.counts_config(tmp_path, False)),
                      "--out", str(out)], capsys)
        assert result[0] == code, result[2]
        if code:
            assert result[1] == "" and result[2].startswith("invalid input: ")
            assert "no target" in result[2] and not out.exists()

    def test_row_count_mismatch_names_both_lengths(self, small_config, tmp_path,
                                                   capsys):
        counts_path = tmp_path / "counts.csv"
        self.write_counts(counts_path, np.ones(10), bins=13)
        conf = json.loads(small_config.read_text())
        conf["counts_file"] = str(counts_path)
        path = small_config.parent / "short.json"
        path.write_text(json.dumps(conf))
        code, _, err = run(["reconstruct", "--config", str(path), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 1
        assert "10" in err and "39" in err

    @pytest.mark.parametrize("row, replaces", [
        ("0,0,abc", 0),   # a cell that is not a number
        ("0,13,5", 13),   # bin 13 of 13 bins; used to land on phase 1, bin 0
        ("-1,20,5", 7),   # phase -1; used to land on phase 0, bin 7
        ("0,0,5", 1),     # (0, 0) twice; used to leave (0, 1) at count 0
    ])
    def test_bad_row_rejected(self, row, replaces, small_config, tmp_path, capsys):
        counts_path = tmp_path / "counts.csv"
        self.write_counts(counts_path, np.ones(39), bins=13, header=False)
        lines = counts_path.read_text().splitlines()
        lines[1 + replaces] = row
        counts_path.write_text("\n".join(lines) + "\n")
        conf = json.loads(small_config.read_text())
        conf["counts_file"] = str(counts_path)
        path = small_config.parent / "bad-row.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "out"
        code, _, err = run(["reconstruct", "--config", str(path), "--out", str(out)],
                           capsys)
        assert code == 1
        assert "invalid input" in err and repr(row) in err
        assert not out.exists()

    def test_counts_need_inline_homodyne(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 3, "povm": {"kind": "projective"},
                                    "counts_file": str(tmp_path / "c.csv")}))
        (tmp_path / "c.csv").write_text("0,0,1\n")
        code, _, err = run(["reconstruct", "--config", str(conf), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 1
        assert "inline homodyne" in err


UNIT = [[1.0, 0.0], [0.0, 0.0]]


class TestPovmFile:
    @pytest.mark.parametrize("document, dim, message", [
        ({"dim": 2, "effects": [{"vector": [[1.0, 0.0], [0.0]]}]}, 2,
         "effects[0].vector[1]: [0.0] has 1 items, outside the allowed count"),
        ({"dim": 2, "effects": [{"vector": [[1.0, 0.0, 0.0], [0.0, 0.0]]}]}, 2,
         "effects[0].vector[0]: [1.0, 0.0, 0.0] has 3 items, outside the allowed count"),
        ({"dim": 2, "effects": [{"vector": UNIT + [[0.0, 0.0]]}]}, 2,
         "all effects must share the ambient dimension"),
        ({"dim": 2, "effects": []}, 2, "effects: [] has 0 items, outside the allowed count"),
        ({"dim": 2, "effects": [{"vector": UNIT, "bin_width": 0.0}]}, 2,
         "effects[0].bin_width: 0.0 is not above 0"),
        ({"dim": 2, "effects": [{"vector": UNIT, "bin_width": True}]}, 2,
         "effects[0].bin_width: True is not of type number or null"),
        ({"dim": "two", "effects": [{"vector": UNIT}]}, 2, "dim: 'two' is not of type integer"),
        # dim must be a JSON integer and each cell a JSON number, as the
        # config schema reads them
        ({"dim": 2.7, "effects": [{"vector": UNIT}]}, 2, "dim: 2.7 is not of type integer"),
        ({"dim": 2.0, "effects": [{"vector": UNIT}]}, 2, "dim: 2.0 is not of type integer"),
        ({"dim": "2", "effects": [{"vector": UNIT}]}, 2, "dim: '2' is not of type integer"),
        ({"dim": 2, "effects": [{"vector": [[True, 0.0], [0.0, 0.0]]}]}, 2,
         "effects[0].vector[0][0]: True is not of type number"),
        ({"dim": 2, "effects": [{"vector": [[1.0, False], [0.0, 0.0]]}]}, 2,
         "effects[0].vector[0][1]: False is not of type number"),
        ({"dim": 2, "effects": [{"vector": [["1", 0.0], [0.0, 0.0]]}]}, 2,
         "effects[0].vector[0][0]: '1' is not of type number"),
        ({"dim": True, "effects": [{"vector": [[1.0, 0.0]]}]}, 1,
         "dim: True is not of type integer"),
        ({"dim": 2, "effects": [{"vector": UNIT}, {"bin_width": 0.5}]}, 2,
         "missing key 'vector'"),
        ([1, 2], 2, "POVM file: [1, 2] is not of type object"),
        ({"dim": 1, "effects": [{"vector": [[10**400, 0]]}]}, 1,
         "a vector holds an integer beyond the float range"),
    ], ids=["short-pair", "long-pair", "long-vector", "no-effects", "bin-width-zero",
            "bin-width-true", "dim-word", "dim-fraction", "dim-integral-float",
            "dim-string", "re-true", "im-false", "re-string", "dim-true", "missing-vector",
            "list-document", "integer-beyond-float"])
    def test_corrupted_povm_file_rejected(self, document, dim, message, tmp_path, capsys):
        # a refusal is led by the path of the offending value in the document
        # where the schema finds it, from the library and from the CLI alike
        prefix = "" if message.startswith("all effects") else "malformed POVM encoding: "
        with pytest.raises(InvalidInputError) as refused:
            decode_povm(document)
        assert str(refused.value) == prefix + message
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps(document))
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": dim, "povm": {"file": str(povm_path)}}))
        code, _, err = run(["gram-spectrum", "--config", str(conf), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 1
        if "float range" in message:
            # the CLI refuses the literal as it reads the file
            assert err.splitlines()[-1] == (f"invalid input: POVM file holds {10**400}, "
                                            "which is not a finite number")
        else:
            assert err.splitlines()[-1] == f"invalid input: {prefix}{message}"
        assert not (tmp_path / "out").exists()

    def test_truncated_povm_file_rejected(self, tmp_path, capsys):
        povm_path = tmp_path / "povm.json"
        povm_path.write_text('{"dim": 2, "effects": [')
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 2, "povm": {"file": str(povm_path)}}))
        code, _, err = run(["gram-spectrum", "--config", str(conf), "--out",
                            str(tmp_path / "out")], capsys)
        assert code == 1
        assert err.splitlines()[-1].startswith("invalid input: POVM file is not valid JSON: ")

    def test_file_dim_must_match_config(self, tmp_path, capsys):
        povm_path = tmp_path / "povm6.json"
        povm_path.write_text(json.dumps(encode_povm(PovmSet(np.eye(6, dtype=complex)))))
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 3, "povm": {"file": str(povm_path)}}))
        out = tmp_path / "out"
        code, _, err = run(["gram-spectrum", "--config", str(conf), "--out", str(out)],
                           capsys)
        assert code == 1
        assert "invalid input" in err and "dim 6" in err and "dim 3" in err
        assert not out.exists()

    def test_all_zero_effects_rejected(self, tmp_path):
        povm_path = tmp_path / "zero.json"
        povm_path.write_text(json.dumps(encode_povm(PovmSet(np.zeros((4, 3), dtype=complex)))))
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 3, "povm": {"file": str(povm_path)}}))
        for command in ("gram-spectrum", "frames-check", "reconstruct"):
            proc = subprocess.run(
                [sys.executable, "-m", "gramtomo.cli", command, "--config", str(conf),
                 "--out", str(tmp_path / command)], capture_output=True, text=True)
            assert proc.returncode == 1, command
            assert "invalid input" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert not (tmp_path / command).exists(), command

    def test_round_trip_matches_inline(self, tmp_path, capsys):
        # the reference POVM written by encode_povm, and the same file with the
        # per-effect metadata an older writer added, give the inline spectra
        data = encode_povm(build_povm_from_config(load_config(None)))
        with_metadata = copy.deepcopy(data)
        for i, effect in enumerate(with_metadata["effects"]):
            effect.update(phase_index=i // 51, bin_index=i % 51,
                          bin_center=-5.0 + (i % 51 + 0.5) * 10.0 / 51, bin_width=10.0 / 51)

        def spectra(name, povm_config):
            conf = tmp_path / f"{name}-conf.json"
            conf.write_text(json.dumps({"povm": povm_config}))
            out = tmp_path / name
            assert run(["gram-spectrum", "--config", str(conf), "--out", str(out)],
                       capsys)[0] == 0
            # drop the config echo, which names the POVM file
            return [(out / f).read_text().splitlines()[1:]
                    for f in ("g_spectrum.csv", "q_spectrum.csv")]

        def values(rows):
            return np.array([float(row.split(",")[1]) for row in rows[1:]])

        inline = spectra("inline", {})
        assert len(inline[0]) == 16
        for name, encoded in (("file", data), ("metadata", with_metadata)):
            povm_path = tmp_path / f"{name}.json"
            povm_path.write_text(json.dumps(encoded))
            g_rows, q_rows = spectra(name, {"file": str(povm_path)})
            assert g_rows == inline[0]
            # a POVM file records no homodyne layout, so its operator frame is
            # one SVD of T where the inline POVM has one per coherence-order class
            q_file, q_inline = values(q_rows), values(inline[1])
            assert np.abs(q_file - q_inline).max() <= 1e-12 * q_inline[0]


class TestDeterminism:
    def test_rerun_is_byte_identical(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["gram-spectrum", "--config", str(small_config), "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(argv, capsys)[0] == 0
        for p in out.iterdir():
            assert p.read_bytes() == snapshot[p.name]

    def test_usage_error_after_a_command_exits_1(self, small_config, tmp_path, capsys):
        # the parser is built once per process; a run through it leaves
        # nothing behind for the next
        assert run(["gram-spectrum", "--config", str(small_config), "--out",
                    str(tmp_path / "first")], capsys)[0] == 0
        out = tmp_path / "out"
        code, _, err = run(["reconstruct", "--bogus", "--out", str(out)], capsys)
        assert code == 1
        assert "usage:" in err and "unrecognized arguments: --bogus" in err
        assert not out.exists()

    def test_commands_in_one_process_match_fresh_runs(self, small_config, tmp_path,
                                                        capsys):
        commands = [["reconstruct"], ["stability", "--trials", "3"]]
        fresh = {}
        for command in commands:
            out = tmp_path / command[0]
            proc = subprocess.run(
                [sys.executable, "-m", "gramtomo.cli", *command,
                 "--config", str(small_config), "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            fresh.update({p: p.read_bytes() for p in out.iterdir()})
            shutil.rmtree(out)
        for command in commands:
            assert run([*command, "--config", str(small_config), "--out",
                        str(tmp_path / command[0])], capsys)[0] == 0
        assert {p: p.read_bytes() for command in commands
                for p in (tmp_path / command[0]).iterdir()} == fresh

    def test_env_var_sets_output_dir(self, small_config, tmp_path, capsys,
                                     monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("GRAMTOMO_OUT", str(env_dir))
        code, _, _ = run(["gram-spectrum", "--config", str(small_config)], capsys)
        assert code == 0
        assert (env_dir / "rank_report.json").exists()

    def test_out_flag_beats_env_var(self, small_config, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.setenv("GRAMTOMO_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        code, _, _ = run(["gram-spectrum", "--config", str(small_config),
                          "--out", str(out)], capsys)
        assert code == 0
        assert (out / "rank_report.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestSweepCommand:
    def test_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(["sweep", "--config", str(small_config), "--out", str(out)],
                         capsys)
        assert code == 0
        for basis in ("gram", "fock"):
            rows = [ln for ln in (out / f"sweep_{basis}.csv").read_text().splitlines()
                    if ln and not ln.startswith("#")]
            assert rows[0] == "dimension,trial,fidelity,converged"
            assert len(rows) - 1 == 2 * 2
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert set(summary["bases"]) == {"gram", "fock"}
        assert summary["bases"]["gram"]["dims"] == [1, 2]
        assert summary["bases"]["gram"]["trial_seeds"] == [[0, 0], [0, 1]]
        for basis in ("gram", "fock"):
            rows = [ln.split(",") for ln in
                    (out / f"sweep_{basis}.csv").read_text().splitlines()[2:]]
            flags = [[r[3] == "true" for r in rows if r[0] == str(d)] for d in (1, 2)]
            assert summary["bases"][basis]["converged_fraction"] == [
                sum(f) / len(f) for f in flags]

    def test_basis_and_dims_flags(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(["sweep", "--config", str(small_config), "--out", str(out),
                          "--basis", "fock", "--dims", "1,3", "--trials", "3"],
                         capsys)
        assert code == 0
        assert not (out / "sweep_gram.csv").exists()
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert list(summary["bases"]) == ["fock"]
        assert summary["bases"]["fock"]["dims"] == [1, 3]
        assert len(summary["bases"]["fock"]["trial_seeds"]) == 3

    def test_trials_flag_sets_only_sweep(self, small_config, tmp_path, capsys):
        # stability.trials has a minimum of 2, so --trials 1 must not reach it
        out = tmp_path / "out"
        code, _, err = run(["sweep", "--config", str(small_config), "--out", str(out),
                            "--trials", "1"], capsys)
        assert code == 0, err
        for basis in ("gram", "fock"):
            rows = [ln for ln in (out / f"sweep_{basis}.csv").read_text().splitlines()
                    if ln and not ln.startswith("#")]
            assert [r.split(",")[:2] for r in rows[1:]] == [["1", "0"], ["2", "0"]]
        echo = json.loads((out / "sweep_summary.json").read_text())["config"]
        assert echo["sweep"]["trials"] == 1
        assert echo["stability"]["trials"] == SMALL["stability"]["trials"]

    @pytest.mark.parametrize("dims", ["1,x", "2.5", "1;2"])
    def test_malformed_dims_rejected(self, dims, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(["sweep", "--config", str(small_config), "--out", str(out),
                            "--dims", dims], capsys)
        assert code == 1
        assert "invalid input" in err and repr(dims) in err
        assert not out.exists()


class TestStabilityCommand:
    def test_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(["stability", "--config", str(small_config), "--out",
                          str(out)], capsys)
        assert code == 0
        rows = [ln for ln in (out / "stability.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows[0] == "trial,fidelity,converged"
        assert len(rows) - 1 == 2
        summary = json.loads((out / "stability_summary.json").read_text())
        assert summary["basis"] == "gram"
        assert summary["dimension"] == 2
        assert summary["fidelity_spread"] >= 0
        flags = [r.split(",")[2] == "true" for r in rows[1:]]
        assert summary["converged_fraction"] == sum(flags) / len(flags)
        assert (out / "wigner_trial_0.csv").exists()
        assert (out / "wigner_trial_1.csv").exists()

    def test_wigner_grids_shaped(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({**SMALL, "stability": {"basis": "fock", "dimension": 4,
                                                           "trials": 3},
                                    "wigner_grid": {"x_range": [-3.0, 3.0],
                                                    "p_range": [-3.0, 3.0],
                                                    "x_points": 11, "p_points": 9}}))
        out = tmp_path / "out"
        assert run(["stability", "--config", str(conf), "--out", str(out)], capsys)[0] == 0
        for t in range(3):
            # config comment, the x and p axes, then one row of W per x
            rows = (out / f"wigner_trial_{t}.csv").read_text().splitlines()[3:]
            assert [len(row.split(",")) for row in rows] == [9] * 11

    def test_fidelities_match_sweep_text(self, small_config, tmp_path, capsys):
        # stability at (gram, d = 2, 2 trials) is the d = 2 row of the sweep
        out = tmp_path / "out"
        for command in ("stability", "sweep"):
            assert run([command, "--config", str(small_config), "--out", str(out),
                        "--basis", "gram"], capsys)[0] == 0
        stability = [row.split(",") for row in
                     (out / "stability.csv").read_text().splitlines()[2:]]
        sweep = [row.split(",") for row in
                 (out / "sweep_gram.csv").read_text().splitlines()[2:]]
        dimension = str(SMALL["stability"]["dimension"])
        assert len(stability) == SMALL["stability"]["trials"]
        assert stability == [row[1:] for row in sweep if row[0] == dimension]

    def test_basis_flag_reaches_stability(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(["stability", "--config", str(small_config), "--out",
                          str(out), "--basis", "fock"], capsys)
        assert code == 0
        summary = json.loads((out / "stability_summary.json").read_text())
        assert summary["basis"] == "fock"


class TestFramesCheckCommand:
    def test_all_pass_small(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(["frames-check", "--config", str(small_config), "--out",
                          str(out)], capsys)
        assert code == 0
        report = json.loads((out / "frames_report.json").read_text())
        assert report["all_pass"] is True
        assert [c["name"] for c in report["checks"]] == [
            "frame_trace", "linear_inversion_round_trip"]
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("half_width", [5.0, 9.0])
    def test_dim_30_round_trip(self, half_width, tmp_path, capsys):
        # on these windows, forming S = T^T T squares T's condition number
        # enough to miss the 1e-8 round-trip tolerance, and so does an
        # operator frame split by coherence order without the bin fold
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 30,
                                    "povm": {"range": [-half_width, half_width]}}))
        out = tmp_path / "out"
        code, _, _ = run(["frames-check", "--config", str(conf), "--out", str(out),
                          "--seed", "0"], capsys)
        assert code == 0
        report = json.loads((out / "frames_report.json").read_text())
        assert report["all_pass"] is True
        deviation = {c["name"]: c["deviation"] for c in report["checks"]}
        assert deviation["linear_inversion_round_trip"] < 1e-8

    @pytest.mark.parametrize("config", [
        {"povm": {"phase_count": 1, "bins": 7}},
        {"povm": {"phase_count": 3, "bins": 1}},
        {"povm": {"phase_count": 3, "bins": 2}},
        {"dim": 1},
    ], ids=["one-phase", "one-bin", "two-bins", "dim-1"])
    def test_edge_measurements_pass(self, config, tmp_path, capsys):
        # one bin leaves the odd bin fold empty, so half the coherence-order
        # blocks have no rows; dim 1 has only the diagonal block
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "out"
        code, _, _ = run(["frames-check", "--config", str(conf), "--out", str(out)], capsys)
        assert code == 0
        report = json.loads((out / "frames_report.json").read_text())
        assert report["all_pass"] is True and len(report["checks"]) == 2

    def test_failure_exits_2_and_writes_report(self, small_config, tmp_path, capsys,
                                               monkeypatch):
        def frame_without_last_block(povm):
            frame = operator_frame(povm)
            blocks = frame.blocks[:-1]
            s = np.concatenate([block[3] for block in blocks])
            return dataclasses.replace(frame, blocks=blocks, eigenvalues=np.sort(s**2)[::-1])

        monkeypatch.setattr("gramtomo.cli.operator_frame", frame_without_last_block)
        out = tmp_path / "out"
        code, _, err = run(["frames-check", "--config", str(small_config), "--out",
                            str(out)], capsys)
        assert code == 2
        assert "frame_trace" in err
        report = json.loads((out / "frames_report.json").read_text())
        assert report["all_pass"] is False

    def test_scaled_povm_passes(self, tmp_path, capsys):
        # the dim-6 reference POVM with every effect vector scaled: the trace is
        # relative to its own scale, and the round trip's operator and
        # reconstruction do not scale
        povm = build_homodyne_povm(HomodyneConfig.uniform(6, 51, (-5.0, 5.0)), 6)
        for scale in (100.0, 1e4):
            povm_path = tmp_path / f"povm-{scale}.json"
            povm_path.write_text(json.dumps(encode_povm(PovmSet(scale * povm.vectors))))
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"dim": 6, "povm": {"file": str(povm_path)}}))
            out = tmp_path / f"out-{scale}"
            code, _, err = run(["frames-check", "--config", str(conf), "--out", str(out)],
                               capsys)
            assert code == 0, (scale, err)
            report = json.loads((out / "frames_report.json").read_text())
            assert report["all_pass"] is True
            assert all(c["pass"] for c in report["checks"])

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # the report reads only the frame's small class SVDs, whose bits do not
        # depend on the thread count (the gate's dim30 case)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dim": 30, "povm": {"range": [-6.0, 6.0]}}))
        out = tmp_path / "out"
        written = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "gramtomo.cli", "frames-check", "--config", str(conf),
                 "--out", str(out)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                text=True)
            assert proc.returncode == 0, proc.stderr
            written.append((out / "frames_report.json").read_bytes())
        assert written[0] == written[1]


class TestJsonFormat:
    """--format json writes each table as {"rows": [...]} and each Wigner grid as
    {"x", "p", "w"}, with the numbers of the csv run; documents do not change."""

    @staticmethod
    def csv_form(path: Path, kind: str) -> dict:
        # a table: config comment, header, rows; a grid: config comment, the
        # rows "x,..." and "p,...", then one row of W per x
        lines = path.read_text().splitlines()[1:]
        if kind == "rows":
            return {"rows": [[json.loads(cell) for cell in line.split(",")]
                             for line in lines[1:]]}
        x, p = ([json.loads(cell) for cell in line.split(",")[1:]] for line in lines[:2])
        return {"x": x, "p": p, "w": [[json.loads(cell) for cell in line.split(",")]
                                      for line in lines[2:]]}

    @pytest.mark.parametrize("command,files", [
        ("reconstruct", {"reconstruction": "document", "wigner": "grid"}),
        ("sweep", {"sweep_gram": "rows", "sweep_fock": "rows", "sweep_summary": "document"}),
        ("stability", {"stability": "rows", "stability_summary": "document",
                       "wigner_trial_0": "grid", "wigner_trial_1": "grid"}),
        ("frames-check", {"frames_report": "document"}),
    ])
    def test_outputs_follow_format(self, command, files, small_config, tmp_path, capsys):
        written = {}
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            code, stdout, _ = run([command, "--config", str(small_config), "--out",
                                   str(out), "--format", fmt], capsys)
            assert code == 0
            written[fmt] = [Path(p) for p in stdout.split()]
            assert sorted(out.iterdir()) == sorted(written[fmt])
        names = [f"{stem}.json" if fmt == "json" or kind == "document" else f"{stem}.csv"
                 for fmt in ("csv", "json") for stem, kind in files.items()]
        assert [p.name for p in written["csv"] + written["json"]] == names
        for (stem, kind), csv_path in zip(files.items(), written["csv"]):
            doc = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
            assert doc.pop("config")["output"]["format"] == "json"
            if kind == "document":
                expected = json.loads(csv_path.read_text())
                del expected["config"]
            else:
                expected = self.csv_form(csv_path, kind)
            assert doc == expected


class TestSubprocessEntry:
    def test_module_invocation(self, small_config, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gramtomo.cli", "gram-spectrum",
             "--config", str(small_config), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (out / "rank_report.json").exists()


def test_every_export_is_documented():
    # each package-level name is listed in README's Library section
    import gramtomo
    library = README.split("\n## Library\n", 1)[1]
    missing = [name for name in gramtomo.__all__ if f"`{name}`" not in library]
    assert missing == []
