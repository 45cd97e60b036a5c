"""Deterministic JSON/CSV emission and the matrix interchange encoding.

Complex numbers are encoded as [re, im] pairs; floats are written with
repr (shortest round-trip form); JSON keys are sorted. Reruns with the
same inputs therefore produce byte-identical files.

CSV float text has one producer, float_text: orjson writes the shortest
round-trip digits of a whole array in one call (a Ryu-style writer, the
same digits as repr's dtoa), and only the tokens whose orjson text differs
from repr's are rewritten, each picked by a numpy mask on the values:

- 1e-9 <= |v| < 1e-5: orjson writes a one-digit exponent and repr two, so
  a "0" goes in before the last character: 1.5e-7 -> 1.5e-07;
- 1e-5 <= |v| < 1e-4, which orjson writes in positional notation and repr
  in scientific: 0.000012345 -> 1.2345e-05;
- |v| >= 1e16: repr signs the exponent: 1.5e16 -> 1.5e+16;
- non-finite values, which orjson writes as null, are repr'd (nan, inf,
  -inf).

Tokens below 1e-9 (subnormals included) already have a two- or three-digit
exponent, and orjson writes them exactly as repr does, so they are left
alone; so are zeros and 1e-4 <= |v| < 1e16, which both write positionally.

JSON output stays on the stdlib encoder, which calls repr's float
formatting itself.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

from .errors import InvalidInputError
from .maxlik import ReconstructionResult
from .povm import PovmSet


def encode_complex_vector(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def encode_complex_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [encode_complex_vector(row) for row in np.asarray(m, dtype=complex)]


# the JSON types as the config schema and the POVM file read them; an
# "integer" is a JSON integer: 4.0 is not one, though JSON-Schema accepts it
_JSON_TYPES = {"object": dict, "array": list, "string": str, "null": type(None),
               "number": (int, float), "integer": int}


def _is_json_type(value, name: str) -> bool:
    """Whether value is of the named JSON type: true is no number or integer."""
    return not isinstance(value, bool) and isinstance(value, _JSON_TYPES[name])


def _json_number(value, name="number"):
    """value if it is a JSON number (name="integer": integer): true is no
    number, and 2.0 or "2" no integer."""
    if not _is_json_type(value, name):
        raise TypeError(f"{value!r} is not a JSON {name}")
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
        dim = _json_number(data["dim"], "integer")
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
    """Every field of the result by name, rho as density_matrix, and converged;
    the fields but rho and log_likelihood hold plain Python values."""
    payload = {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}
    payload["density_matrix"] = encode_complex_matrix(payload.pop("rho"))
    payload["log_likelihood"] = result.log_likelihood.tolist()
    payload["converged"] = result.converged
    return payload


def write_json(path: Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def float_text(values) -> list[str]:
    """repr(float(v)) for every element of a float array, in C order (see the
    module docstring)."""
    a = np.ascontiguousarray(values, dtype=float).ravel()
    if not a.size:
        return []
    tokens = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    for i in np.flatnonzero((mag >= 1e-9) & (mag < 1e-5)).tolist():
        token = tokens[i]
        tokens[i] = f"{token[:-1]}0{token[-1]}"
    for i in np.flatnonzero((mag >= 1e-5) & (mag < 1e-4)).tolist():
        sign, _, digits = tokens[i].partition("0.0000")
        tokens[i] = (f"{sign}{digits[0]}.{digits[1:]}e-05" if len(digits) > 1
                     else f"{sign}{digits}e-05")
    for i in np.flatnonzero((mag >= 1e16) & (mag < np.inf)).tolist():
        tokens[i] = tokens[i].replace("e", "e+")
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        tokens[i] = repr(float(a[i]))
    return tokens


def fmt(value) -> str:
    """Cell format of a non-float cell; float cells are written by float_text."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def write_csv(path: Path, header: list[str], rows, config_echo: dict) -> None:
    """CSV with a leading '# config: ...' comment line; the table's float cells
    are formatted by one float_text call."""
    rows = [list(row) for row in rows]
    cells = [(row, j) for row in rows for j, v in enumerate(row)
             if isinstance(v, (float, np.floating))]
    for (row, j), text in zip(cells, float_text([row[j] for row, j in cells])):
        row[j] = text
    lines = [_config_line(config_echo), ",".join(header)]
    lines.extend(",".join(map(fmt, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_wigner_csv(path: Path, xs: np.ndarray, ps: np.ndarray, W: np.ndarray,
                     config_echo: dict) -> None:
    """Dense grid format: config comment, axis header rows, then one W row per x sample."""
    W = np.asarray(W, dtype=float)
    tokens = float_text(np.concatenate([np.ravel(xs), np.ravel(ps), W.ravel()]))
    start, width = len(xs) + len(ps), W.shape[1]
    lines = [_config_line(config_echo),
             "x," + ",".join(tokens[:len(xs)]),
             "p," + ",".join(tokens[len(xs):start])]
    lines.extend(",".join(tokens[start + i * width:start + (i + 1) * width])
                 for i in range(len(W)))
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
