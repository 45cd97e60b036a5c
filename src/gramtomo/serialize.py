"""Deterministic JSON/CSV emission and the matrix interchange encoding.

Complex numbers are encoded as [re, im] pairs; floats are written with
repr (shortest round-trip form); JSON keys are sorted. Reruns with the
same inputs therefore produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .maxlik import ReconstructionResult
from .povm import PovmSet


def encode_complex_vector(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def encode_complex_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [encode_complex_vector(row) for row in np.asarray(m, dtype=complex)]


def decode_complex_vector(pairs) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed complex vector encoding: {exc}") from exc


def encode_povm(povm: PovmSet) -> dict:
    return {"dim": povm.dim,
            "effects": [{"vector": encode_complex_vector(v)} for v in povm.vectors]}


def decode_povm(data: dict) -> PovmSet:
    """Inverse of encode_povm; other per-effect keys are accepted and ignored."""
    try:
        dim = int(data["dim"])
        effects = data["effects"]
        vectors = [decode_complex_vector(e["vector"]) for e in effects]
        if any(e.get("bin_width") is not None and e["bin_width"] <= 0 for e in effects):
            raise InvalidInputError("bin width must be positive")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed POVM encoding: {exc}") from exc
    if dim < 1 or any(v.shape != (dim,) for v in vectors):
        raise InvalidInputError("all effects must share the ambient dimension")
    return PovmSet(np.reshape(vectors, (len(vectors), dim)))


def encode_reconstruction(result: ReconstructionResult, config_echo: dict) -> dict:
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
        "floor_hits": result.floor_hits,
        "config": config_echo,
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: Path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj))


def fmt(value) -> str:
    """Canonical cell format: shortest round-trip repr for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows, config_echo: dict | None = None) -> None:
    """CSV with an optional leading '# config: ...' comment line."""
    lines = []
    if config_echo is not None:
        lines.append("# config: " + json.dumps(config_echo, sort_keys=True))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_wigner_csv(path: Path, xs: np.ndarray, ps: np.ndarray, W: np.ndarray,
                     config_echo: dict | None = None) -> None:
    """Dense grid format: axis header rows, then one W row per x sample."""
    lines = []
    if config_echo is not None:
        lines.append("# config: " + json.dumps(config_echo, sort_keys=True))
    lines.append("x," + ",".join(map(repr, np.asarray(xs, dtype=float).tolist())))
    lines.append("p," + ",".join(map(repr, np.asarray(ps, dtype=float).tolist())))
    lines.extend(",".join(map(repr, row)) for row in np.asarray(W, dtype=float).tolist())
    Path(path).write_text("\n".join(lines) + "\n")
