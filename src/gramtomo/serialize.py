"""Deterministic JSON/CSV emission and the matrix interchange encoding.

Complex numbers are encoded as [re, im] pairs; floats are written with
repr (shortest round-trip form); JSON keys are sorted. Reruns with the
same inputs therefore produce byte-identical files.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .maxlik import ReconstructionResult
from .povm import PovmSet


def encode_complex_vector(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def encode_complex_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [encode_complex_vector(row) for row in np.asarray(m, dtype=complex)]


def _json_number(value, kind=(int, float)):
    """value if it is a JSON number (kind=int: integer), as the config schema
    reads them: true is no number, and 2.0 or "2" no integer."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{value!r} is not a JSON {'integer' if kind is int else 'number'}")
    return value


def decode_complex_vector(pairs) -> np.ndarray:
    try:
        return np.array([complex(_json_number(re), _json_number(im)) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed complex vector encoding: {exc}") from exc


def encode_povm(povm: PovmSet) -> dict:
    return {"dim": povm.dim,
            "effects": [{"vector": encode_complex_vector(v)} for v in povm.vectors]}


def decode_povm(data: dict) -> PovmSet:
    """Inverse of encode_povm; other per-effect keys are accepted and ignored."""
    try:
        dim = _json_number(data["dim"], int)
        effects = data["effects"]
        vectors = [decode_complex_vector(e["vector"]) for e in effects]
        if any(e.get("bin_width") is not None and _json_number(e["bin_width"]) <= 0
               for e in effects):
            raise InvalidInputError("bin width must be positive")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed POVM encoding: {exc}") from exc
    if dim < 1 or any(v.shape != (dim,) for v in vectors):
        raise InvalidInputError("all effects must share the ambient dimension")
    return PovmSet(np.reshape(vectors, (len(vectors), dim)))


def encode_reconstruction(result: ReconstructionResult) -> dict:
    return {
        "density_matrix": encode_complex_matrix(result.rho),
        "log_likelihood": [float(v) for v in result.log_likelihood],
        "iterations": result.iterations,
        "born_residual": float(result.born_residual),
        "extremal_residual": float(result.extremal_residual),
        "converged": bool(result.converged),
        "stop_reason": result.stop_reason,
        "likelihood_gap": (None if result.likelihood_gap is None
                           else float(result.likelihood_gap)),
        "newton_steps": result.newton_steps,
        "newton_fallbacks": result.newton_fallbacks,
        "floor_hits": result.floor_hits,
        "backtracks": result.backtracks,
        "dilution": float(result.dilution),
    }


def write_json(path: Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def fmt(value) -> str:
    """Canonical cell format: shortest round-trip repr for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows, config_echo: dict) -> None:
    """CSV with a leading '# config: ...' comment line."""
    lines = [_config_line(config_echo), ",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_wigner_csv(path: Path, xs: np.ndarray, ps: np.ndarray, W: np.ndarray,
                     config_echo: dict) -> None:
    """Dense grid format: config comment, axis header rows, then one W row per x sample."""
    lines = [_config_line(config_echo),
             "x," + ",".join(map(repr, np.asarray(xs, dtype=float).tolist())),
             "p," + ",".join(map(repr, np.asarray(ps, dtype=float).tolist()))]
    lines.extend(",".join(map(repr, row)) for row in np.asarray(W, dtype=float).tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def _config_line(config_echo: dict) -> str:
    return "# config: " + json.dumps(config_echo, sort_keys=True)


class Table(NamedTuple):
    """Header and rows: a CSV file, or {"rows": [...]} in JSON. A spectrum
    (values=True) is {"values": [...]}, its last column, in JSON."""

    header: list[str]
    rows: list[tuple]
    values: bool = False


class WignerGrid(NamedTuple):
    """W on the xs x ps grid: write_wigner_csv's file, or {"x", "p", "w"} in JSON."""

    xs: np.ndarray
    ps: np.ndarray
    w: np.ndarray


def _json_form(output: dict | Table | WignerGrid) -> dict:
    if isinstance(output, WignerGrid):
        return {"x": output.xs.tolist(), "p": output.ps.tolist(), "w": output.w.tolist()}
    if isinstance(output, Table):
        if output.values:
            return {"values": [row[-1] for row in output.rows]}
        return {"rows": [list(row) for row in output.rows]}
    return output


def write_outputs(directory: Path, outputs: Mapping[str, dict | Table | WignerGrid],
                  file_format: str, config_echo: dict) -> list[Path]:
    """Make the directory and write each output, with config_echo, to <stem>.json
    or <stem>.csv: a dict is always a JSON document, a Table or a WignerGrid
    follows file_format ("csv" or "json"). Returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, output in outputs.items():
        as_json = isinstance(output, dict) or file_format == "json"
        path = directory / f"{stem}.{'json' if as_json else 'csv'}"
        if as_json:
            write_json(path, {**_json_form(output), "config": config_echo})
        elif isinstance(output, Table):
            write_csv(path, output.header, output.rows, config_echo)
        else:
            write_wigner_csv(path, output.xs, output.ps, output.w, config_echo)
        paths.append(path)
    return paths
