"""Config-driven command line front end.

Subcommands: gram-spectrum, reconstruct, sweep, stability, frames-check.
Each cmd_* only computes and returns its outputs by file stem; main then
writes them through serialize.write_outputs, the one place that makes the
output directory and picks csv or json. A failed command writes nothing,
except the report of a failing frames-check.
Every command is a pure function of (config, seed) at a fixed BLAS thread
count: reruns with identical inputs and OPENBLAS_NUM_THREADS write
byte-identical files. Another thread count can move the last bits, as in a
one-block POVM's q_spectrum (the singular values of T; README lists the files
measured).
Wall-clock timings go to stderr only, never into output files.

Config precedence: flag > config file > built-in default. The default
output directory comes from --out, then the config, then the environment
variable GRAMTOMO_OUT, then ./gramtomo-out.

Exit codes: 0 success, 1 validation error, 2 numerical-consistency
failure, 3 IO error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, NumericalConsistencyError
from .fock import (PhaseSpaceGrid, cat_state, coherent_state, fidelity, fock_state,
                   kept_weight, pure_density, wigner)
from .frames import frame_values, from_coords, linear_inversion, operator_frame, to_coords
from .maxlik import MAX_ITERATIONS, Dataset, maxlik_solve
from .povm import (EFFECTIVE_RANK_DROP_RATIO, HomodyneConfig, PovmSet, born_probabilities,
                   build_homodyne_povm, effective_rank, gram_values, subspace_basis)
from .serialize import (Table, WignerGrid, _schema_error, _supported_schema, decode_povm,
                        encode_reconstruction, write_outputs)
from .simulate import (NoiseModel, dimension_sweep, generate_counts, stability_study,
                       trial_generator)

ENV_OUTPUT_DIR = "GRAMTOMO_OUT"

# a target whose Fock truncation drops more than this share of its weight is
# reported on stderr
TRUNCATION_LEAK_WARNING = 1e-3


class ConfigValidationError(InvalidInputError):
    """A config that breaks the config schema or sets a target or POVM field
    that its form does not read; the message starts with the dotted key path
    of the offending value."""


# the only copy of the config schema; README and --config --help name this file
CONFIG_SCHEMA_PATH = Path(__file__).with_name("config-schema.json")
CONFIG_SCHEMA = _supported_schema(json.loads(CONFIG_SCHEMA_PATH.read_text()))

# the forms of the sections that have them, the first a section's default:
# the fields each form reads and their defaults, where "a|b" reads a or b and
# a config that sets a has b neither read nor given its default. A config may
# set only the fields of its form and is given only their defaults, so the
# echo names only what the run reads. A POVM that names a file has the file
# form; otherwise a section's kind names its form.
FORMS = {
    "target": {"cat": ("kind alpha parity", {"kind": "cat", "alpha": 2.0, "parity": "even"}),
               "coherent": ("kind alpha", {"kind": "coherent", "alpha": 2.0}),
               "fock": ("kind n", {"kind": "fock", "n": 0})},
    "povm": {
        "homodyne": ("kind phases|phase_count bins range",
                     {"kind": "homodyne", "phase_count": 6, "bins": 51, "range": [-5.0, 5.0]}),
        "projective": ("kind", {"kind": "projective"}),
        "file": ("file", {})},
}

DEFAULTS = {
    "dim": 15,
    "noise": {"kind": "poisson", "exposure": 100000.0, "seed": 0},
    "solver": {"max_iterations": MAX_ITERATIONS},
    "reconstruction": {"basis": "full"},
    "sweep": {"dims": list(range(1, 13)), "trials": 8, "bases": ["gram", "fock"]},
    "stability": {"basis": "gram", "dimension": 3, "trials": 4},
    "wigner_grid": {"x_range": [-5.0, 5.0], "p_range": [-5.0, 5.0],
                    "x_points": 81, "p_points": 81},
    "output": {"format": "csv"},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _read_json(path: str, what: str):
    """The JSON document in a file. Python's json reads NaN, Infinity and
    literals beyond the float range such as 1e400 as non-finite floats or as
    integers no float holds; they are refused."""

    def finite(text: str, parse=float):
        if not math.isfinite(float(text)):
            raise InvalidInputError(f"{what} holds {text}, which is not a finite number")
        return parse(text)

    try:
        return json.loads(Path(path).read_text(), parse_constant=finite, parse_float=finite,
                          parse_int=lambda text: finite(text, int))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Read the config file, apply the overrides, validate once and merge over
    the defaults (precedence: override > file > default). A target or POVM
    field that its form (FORMS) does not read is refused. Measured counts have
    no target: a config that names counts_file and no target is given none."""
    raw = _read_json(path, "config file") if path is not None else {}
    if isinstance(raw, dict):
        # a section the file sets to a non-object keeps its value, so that
        # validation reports it instead of an override replacing it
        raw = _merge(raw, {key: section for key, section in (overrides or {}).items()
                           if isinstance(raw.get(key, {}), dict)})
    error = _schema_error(raw, CONFIG_SCHEMA)
    if error is not None:
        raise ConfigValidationError(error)
    defaults = dict(DEFAULTS)
    for section, forms in FORMS.items():
        if section == "target" and "counts_file" in raw and section not in raw:
            continue
        given = raw.get(section, {})
        form = "file" if "file" in given else given.get("kind", next(iter(forms)))
        reads, form_defaults = forms[form]
        displaced = {b: a for a, b in (g.split("|") for g in reads.split() if "|" in g)
                     if a in given}
        for key in given:
            if key in displaced or key not in reads.replace("|", " ").split():
                reason = (f"beside {section}.{displaced[key]}" if key in displaced
                          else f"by a {form} {'POVM' if section == 'povm' else section}")
                raise ConfigValidationError(f"{section}.{key}: not read {reason}")
        defaults[section] = {k: v for k, v in form_defaults.items() if k not in displaced}
    return _merge(defaults, raw)


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The config sections that the flags set. A command is given only the flags
    it reads (build_parser), and they set its own section."""
    sections = {"noise": {"seed": args.seed},
                "output": {"directory": args.out, "format": args.format}}
    if args.command == "reconstruct":
        sections["reconstruction"] = {"basis": args.basis}
    elif args.command == "stability":
        sections["stability"] = {"trials": args.trials, "basis": args.basis}
    elif args.command == "sweep":
        dims = None
        if args.dims is not None:
            try:
                dims = [int(v) for v in args.dims.split(",") if v.strip()]
            except ValueError as exc:
                raise InvalidInputError(
                    f"--dims {args.dims!r} is not a comma-separated list of integers") from exc
        sections["sweep"] = {"dims": dims, "trials": args.trials,
                             "bases": None if args.basis is None else [args.basis]}
    # an unset flag (None) sets nothing
    return {key: kept for key, section in sections.items()
            if (kept := {name: value for name, value in section.items() if value is not None})}


def resolve_output_dir(config: dict) -> Path:
    directory = config["output"].get("directory")
    if directory is None:
        directory = os.environ.get(ENV_OUTPUT_DIR) or "gramtomo-out"
    return Path(directory)


def build_povm_from_config(config: dict) -> PovmSet:
    pc = config["povm"]
    dim = config["dim"]
    if "file" in pc:
        povm = decode_povm(_read_json(pc["file"], "POVM file"))
        if povm.dim != dim:
            raise InvalidInputError(f"POVM file has dim {povm.dim} but the config has "
                                    f"dim {dim}")
        return povm
    if pc["kind"] == "projective":
        return PovmSet(np.eye(dim, dtype=complex))
    bins, x_range = pc["bins"], tuple(pc["range"])
    hconf = (HomodyneConfig(tuple(float(v) for v in pc["phases"]), bins, x_range)
             if "phases" in pc else HomodyneConfig.uniform(pc["phase_count"], bins, x_range))
    return build_homodyne_povm(hconf, dim)


def build_target_from_config(config: dict) -> np.ndarray:
    """The normalized truncated target; warns on stderr where the truncation
    drops more than TRUNCATION_LEAK_WARNING of the state's weight. A config
    without one (counts_file and no target) is refused."""
    if "target" not in config:
        raise InvalidInputError("the config names counts_file and no target, so it has no "
                                "state to simulate or compare with")
    tc = config["target"]
    dim = config["dim"]
    if tc["kind"] == "fock":
        return fock_state(tc["n"], dim)
    alpha = tc["alpha"]
    if isinstance(alpha, (list, tuple)):
        alpha = complex(alpha[0], alpha[1])
    parity = tc["parity"] if tc["kind"] == "cat" else None
    target = (coherent_state(alpha, dim, normalized=True) if parity is None
              else cat_state(alpha, parity, dim))
    kept = kept_weight(alpha, dim, parity)
    if 1.0 - kept > TRUNCATION_LEAK_WARNING:
        print(f"warning: the dim-{dim} Fock truncation keeps {kept:.3g} of the target "
              "state's weight (sum |c_n|^2); fidelities are to the renormalized "
              "truncated target", file=sys.stderr)
    return target


def build_grid_from_config(config: dict) -> PhaseSpaceGrid:
    gc = config["wigner_grid"]
    return PhaseSpaceGrid(x_range=tuple(gc["x_range"]), p_range=tuple(gc["p_range"]),
                          x_points=gc["x_points"], p_points=gc["p_points"])


def load_counts_file(path: str, povm: PovmSet) -> Dataset:
    """CSV bridge to measured data: phase_index,bin_index,count in povm.homodyne's layout."""
    if povm.homodyne is None:
        raise InvalidInputError("counts files require an inline homodyne POVM config")
    stripped = (ln.strip() for ln in Path(path).read_text().splitlines())
    lines = [ln for ln in stripped if ln and not ln.startswith("#")]
    if lines and lines[0].replace(" ", "") == "phase_index,bin_index,count":
        lines = lines[1:]
    bins, phases = povm.homodyne.bins, len(povm.homodyne.phases)
    counts = np.zeros(povm.n_outcomes)
    if len(lines) != povm.n_outcomes:
        raise InvalidInputError(
            f"count file has {len(lines)} rows but the POVM has "
            f"{povm.n_outcomes} outcomes")
    seen = set()
    for ln in lines:
        parts = ln.split(",")
        if len(parts) != 3:
            raise InvalidInputError(f"count file row {ln!r} is not phase,bin,count")
        try:
            phase, b, count = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InvalidInputError(f"count file row {ln!r} has a cell that is not a "
                                    "number") from exc
        if not (0 <= phase < phases and 0 <= b < bins):
            raise InvalidInputError(f"count file row {ln!r} addresses no POVM outcome "
                                    f"({phases} phases x {bins} bins)")
        if (phase, b) in seen:
            raise InvalidInputError(f"count file row {ln!r} repeats outcome {(phase, b)}")
        seen.add((phase, b))
        counts[phase * bins + b] = count
    return Dataset(counts=counts)


def cmd_gram_spectrum(config: dict) -> dict:
    # both spectra from singular values alone: no singular vectors are computed
    povm = build_povm_from_config(config)
    analysis = gram_values(povm)
    outputs = {name: Table(["index", "value"],
                           [(k + 1, float(v)) for k, v in enumerate(values)], values=True)
               for name, values in (("g_spectrum", analysis.eigenvalues),
                                    ("q_spectrum", frame_values(povm).eigenvalues))}
    lam = analysis.eigenvalues
    outputs["rank_report"] = {
        "support_rank": analysis.rank,
        "support_threshold": float(analysis.threshold),
        "effective_rank": effective_rank(analysis),
        "effective_rank_drop_ratio": EFFECTIVE_RANK_DROP_RATIO,
        "smallest_to_largest_ratio": float(lam[-1] / lam[0]),
        # (lambda_d - lambda_{d+1}) / lambda_1, d = 1..dim-1: top-d Gram-subspace
        # outputs rest on the eigensolver's choice where this gap is small
        "relative_spectral_gaps": [float(v) for v in (lam[:-1] - lam[1:]) / lam[0]],
    }
    return outputs


def cmd_reconstruct(config: dict) -> dict:
    rc = config["reconstruction"]
    if (rc["basis"] == "full") != (rc.get("dimension") is None):
        raise InvalidInputError(
            f"reconstruction.basis {rc['basis']!r} with dimension {rc.get('dimension')}: "
            "'full' takes no dimension, 'gram' and 'fock' a subspace dimension")
    povm = build_povm_from_config(config)
    # a counts-only config holds no target, and its run reports no fidelity
    target = build_target_from_config(config) if "target" in config else None
    if config.get("counts_file") is not None:
        dataset = load_counts_file(config["counts_file"], povm)
    else:
        dataset = generate_counts(pure_density(target), povm, NoiseModel(**config["noise"]))
    # an invalid grid is refused before the solve, not after it
    grid = build_grid_from_config(config)
    subspace = (None if rc["basis"] == "full"
                else subspace_basis(rc["basis"], rc["dimension"], povm))
    start = time.perf_counter()
    result = maxlik_solve(dataset, povm, subspace, **config["solver"])
    print(f"reconstruction wall time: {time.perf_counter() - start:.3f} s",
          file=sys.stderr)
    payload = encode_reconstruction(result)
    if target is not None:
        payload["fidelity_to_target"] = fidelity(target, result.rho)
    return {"reconstruction": payload,
            "wigner": WignerGrid(grid.xs, grid.ps, wigner(result.rho, grid))}


def cmd_sweep(config: dict) -> dict:
    povm = build_povm_from_config(config)
    target = build_target_from_config(config)
    noise = NoiseModel(**config["noise"])
    outputs, summary = {}, {}
    for basis in config["sweep"]["bases"]:
        result = dimension_sweep(target, povm, basis, config["sweep"]["dims"], noise,
                                 config["sweep"]["trials"], **config["solver"])
        outputs[f"sweep_{basis}"] = Table(
            ["dimension", "trial", "fidelity", "converged"],
            [(d, t, float(result.fidelities[k, t]), bool(result.converged[k, t]))
             for k, d in enumerate(result.dims) for t in range(result.trials)])
        summary[basis] = {
            "dims": list(result.dims),
            "mean": [float(v) for v in result.mean],
            "min": [float(v) for v in result.minimum],
            "max": [float(v) for v in result.maximum],
            "std": [float(v) for v in result.std],
            "converged_fraction": [float(v) for v in result.converged.mean(axis=1)],
            "trial_seeds": [list(s) for s in result.trial_seeds],
        }
    outputs["sweep_summary"] = {"bases": summary}
    return outputs


def cmd_stability(config: dict) -> dict:
    povm = build_povm_from_config(config)
    target = build_target_from_config(config)
    noise = NoiseModel(**config["noise"])
    grid = build_grid_from_config(config)
    sc = config["stability"]
    result = stability_study(target, povm, sc["basis"], sc["dimension"], noise,
                             sc["trials"], **config["solver"])
    fidelities, converged = result.fidelities[0], result.converged[0]
    outputs = {
        "stability": Table(["trial", "fidelity", "converged"],
                           [(t, float(fidelities[t]), bool(converged[t]))
                            for t in range(result.trials)]),
        "stability_summary": {
            "basis": result.basis,
            "dimension": result.dims[0],
            "trials": result.trials,
            "fidelity_spread": float(result.std[0]),
            "fidelities": [float(v) for v in fidelities],
            "converged_fraction": float(converged.mean()),
            "trial_seeds": [list(s) for s in result.trial_seeds],
        },
    }
    grids = wigner(np.array([trial.rho for trial in result.results[0]]), grid)
    for t, w in enumerate(grids):
        outputs[f"wigner_trial_{t}"] = WignerGrid(grid.xs, grid.ps, w)
    return outputs


def cmd_frames_check(config: dict) -> dict:
    # two checks of the frame built here: its trace against the effects, and
    # linear inversion of exact data for a random operator on its support
    povm = build_povm_from_config(config)
    frame = operator_frame(povm)
    # Tr S from the frame's modes against sum_i Tr(Pi_i^2) = sum_i |y_i|^4,
    # relative to the latter
    trace = np.sum(np.sum(np.abs(povm.vectors) ** 2, axis=1) ** 2)
    checks = [("frame_trace", float(abs(np.sum(frame.eigenvalues) - trace) / trace), 1e-12)]

    rng = trial_generator(config["noise"]["seed"], 0)
    M = rng.normal(size=(povm.dim, povm.dim)) + 1j * rng.normal(size=(povm.dim, povm.dim))
    C_proj = from_coords(frame.project(to_coords((M + M.conj().T) / 2.0)), povm.dim)
    p = born_probabilities(C_proj, povm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        C_rec = linear_inversion(p, frame)
    checks.append(("linear_inversion_round_trip", float(np.abs(C_rec - C_proj).max()),
                   1e-8))

    rows = [{"name": name, "deviation": float(dev), "tolerance": tol, "pass": bool(dev < tol)}
            for name, dev, tol in checks]
    outputs = {"frames_report": {"checks": rows, "all_pass": all(r["pass"] for r in rows)}}
    failing = [r["name"] for r in rows if not r["pass"]]
    if failing:
        raise NumericalConsistencyError(f"frame identities beyond tolerance: {failing}",
                                        outputs)
    return outputs


COMMANDS = {
    "gram-spectrum": cmd_gram_spectrum,
    "reconstruct": cmd_reconstruct,
    "sweep": cmd_sweep,
    "stability": cmd_stability,
    "frames-check": cmd_frames_check,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramtomo",
        description="Maximum-likelihood homodyne tomography with Gram-operator "
                    "bandwidth analysis. Quadrature convention: hbar = 1, "
                    "x = (a + a^dag)/sqrt(2).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gram-spectrum", "eigenvalue spectra of the Gram operator and the "
                          "operator-space Gram matrix"),
        ("reconstruct", "maximum-likelihood reconstruction with Wigner output"),
        ("sweep", "reconstruction fidelity versus subspace dimension"),
        ("stability", "repeated noisy reconstructions at fixed dimension"),
        ("frames-check", "check the operator frame: its trace and a linear-inversion "
                         "round trip (exit 2 on failure)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (see src/gramtomo/config-schema.json)")
        p.add_argument("--seed", type=int, help="noise seed override")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUTPUT_DIR} "
                                     "or ./gramtomo-out)")
        p.add_argument("--format", choices=["csv", "json"],
                       help="format of the tables and Wigner grids")
        # each command takes only the flags it reads; any other is a usage error
        if name in ("sweep", "stability"):
            p.add_argument("--trials", type=int, help=f"overrides {name}.trials")
        if name == "sweep":
            p.add_argument("--dims", help="comma-separated sweep dimensions")
        if name in ("reconstruct", "sweep", "stability"):
            p.add_argument("--basis", choices=["gram", "fock"], help="basis override")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 means a numerical-consistency
        # failure here, so a usage error exits 1 like any invalid input
        if exc.code == 2:
            return 1
        raise
    try:
        config = load_config(args.config, _flag_overrides(args))
        write = functools.partial(write_outputs, resolve_output_dir(config),
                                  file_format=config["output"]["format"],
                                  config_echo=config)
        try:
            outputs = COMMANDS[args.command](config)
        except NumericalConsistencyError as exc:
            # a failed command writes nothing but the outputs its error carries
            if exc.outputs:
                write(exc.outputs)
            raise
        written = write(outputs)
    except ConfigValidationError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
