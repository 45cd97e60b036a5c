"""Outside-in tracer: wraps gramtomo's public functions from the benchmark.

The package imports functions by value (``from .povm import gram_operator``),
so a wrapper must replace the name in every module namespace that holds the
function, and in module-level dicts such as ``cli.COMMANDS``, not only where
the function is defined. Private helpers (``maxlik._iterate``) are left
alone; the solver's own time is derived as ``maxlik_solve`` minus its public
children.

Each call records a span (name, start, end, parent index) in memory. Counts
are read from outside: return values, caught warnings and file sizes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

LAYER_MODULES = ("cli", "simulate", "maxlik", "povm", "frames", "fock", "serialize")

FLOOR_WARNING = "probability floor"


def _solve_counts(counts: Counter, args, kwargs, result) -> None:
    counts["maxlik.solves"] += 1
    counts["maxlik.iterations"] += int(result.iterations)
    counts["maxlik.converged"] += int(bool(result.converged))


def _dataset_counts(counts: Counter, args, kwargs, result) -> None:
    counts["simulate.datasets"] += 1


def _wigner_counts(counts: Counter, args, kwargs, result) -> None:
    counts["fock.wigner_points"] += int(result.size)


def _write_counts(counts: Counter, args, kwargs, result) -> None:
    counts["serialize.files"] += 1
    counts["serialize.bytes_written"] += Path(args[0]).stat().st_size


OBSERVERS = {
    "maxlik.maxlik_solve": _solve_counts,
    "simulate.generate_counts": _dataset_counts,
    "fock.wigner": _wigner_counts,
    "serialize.write_json": _write_counts,
    "serialize.write_csv": _write_counts,
    "serialize.write_wigner_csv": _write_counts,
}


class Tracer:
    """Spans and counts of every wrapped call between install and uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        catch_floor = name == "maxlik.maxlik_solve"
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                if catch_floor:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if catch_floor:
                for w in caught:
                    counts["maxlik.floor_warnings"] += FLOOR_WARNING in str(w.message)
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, and jsonschema.validate."""
        import jsonschema

        modules = [importlib.import_module(f"gramtomo.{m}") for m in LAYER_MODULES]
        owners = {m.__name__ for m in modules}
        wrapped = {}
        for module in modules:
            for attr, obj in vars(module).items():
                # unwrap so that lru_cache'd functions (hermitian_basis) count too
                if (inspect.isfunction(inspect.unwrap(obj)) and not attr.startswith("_")
                        and obj.__module__ in owners and id(obj) not in wrapped):
                    short = obj.__module__.rsplit(".", 1)[-1]
                    wrapped[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
        for module in modules:
            namespace = vars(module)
            targets = [(namespace, attr) for attr in namespace]
            targets += [(obj, key) for obj in namespace.values() if isinstance(obj, dict)
                        for key in obj]
            for mapping, key in targets:
                original = mapping[key]
                if id(original) in wrapped:
                    self._undo.append((mapping, key, original))
                    mapping[key] = wrapped[id(original)]
        validate = jsonschema.validate
        self._undo.append((vars(jsonschema), "validate", validate))
        jsonschema.validate = self._wrap("jsonschema.validate", validate)

    def uninstall(self) -> None:
        while self._undo:
            mapping, key, original = self._undo.pop()
            mapping[key] = original

    def per_function(self) -> dict[str, dict]:
        """calls, inclusive and self seconds per wrapped function name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = table[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(table)

    def solve_children_s(self, names: set[str]) -> float:
        """Inclusive seconds of the named calls made directly by maxlik_solve."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name in names and parent >= 0 and self.spans[parent][0] == "maxlik.maxlik_solve":
                total += end - start
        return total


PREPARE = {"maxlik.restrict_to_subspace", "povm.gram_operator", "povm.gram_spectrum",
           "maxlik.rescale_to_support"}
CONFIG = {"cli.load_config", "cli.apply_flags", "jsonschema.validate"}
OPERATOR_FRAME = {"frames.operator_frame"}
BASIS = {"frames.hermitian_basis"}
INVERSION = {"frames.linear_inversion", "frames.dual_frame", "frames.dual_effect",
             "frames.frame_reconstruct"}
BUILD = {"povm.build_homodyne_povm", "fock.hermite_functions"}
GRAM = {"povm.gram_operator", "povm.gram_spectrum", "povm.effective_rank"}
Q_MATRIX = {"povm.gram_matrix_state_space", "povm.gram_matrix_operator_space"}
WIGNER = {"fock.wigner", "fock.wigner_points"}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see bench/README.md)."""
    table = tracer.per_function()
    counts = tracer.counts

    def self_s(names) -> float:
        return sum(table[name]["self_s"] for name in names if name in table)

    def layer_self_s(layer: str) -> float:
        return sum(row["self_s"] for name, row in table.items()
                   if name.startswith(layer + "."))

    iterations = counts["maxlik.iterations"]
    solves = counts["maxlik.solves"]
    solve_self = self_s({"maxlik.maxlik_solve"})
    return {
        "maxlik.iterations": iterations,
        "maxlik.us_per_iteration": 1e6 * solve_self / iterations if iterations else 0.0,
        "maxlik.solve_self_s": solve_self,
        "maxlik.converged_frac": counts["maxlik.converged"] / solves if solves else 0.0,
        "maxlik.solves": solves,
        "maxlik.floor_warnings": counts["maxlik.floor_warnings"],
        "maxlik.prepare_s": tracer.solve_children_s(PREPARE),
        "maxlik.residual_s": tracer.solve_children_s({"maxlik.extremal_residual"}),
        "frames.operator_frame_s": self_s(OPERATOR_FRAME),
        "frames.basis_s": self_s(BASIS),
        "frames.inversion_s": self_s(INVERSION),
        "frames.checks_s": (layer_self_s("frames") - self_s(OPERATOR_FRAME)
                            - self_s(BASIS) - self_s(INVERSION)),
        "povm.build_s": self_s(BUILD),
        "povm.gram_s": self_s(GRAM),
        "povm.q_matrix_s": self_s(Q_MATRIX),
        "cli.config_s": self_s(CONFIG),
        "cli.self_s": layer_self_s("cli") - self_s(CONFIG - {"jsonschema.validate"}),
        "simulate.counts_s": table.get("simulate.generate_counts", {}).get("incl_s", 0.0),
        "simulate.datasets": counts["simulate.datasets"],
        "fock.wigner_s": self_s(WIGNER),
        "fock.wigner_points": counts["fock.wigner_points"],
        "serialize.write_s": layer_self_s("serialize"),
        "serialize.bytes_written": counts["serialize.bytes_written"],
        "serialize.files": counts["serialize.files"],
    }
