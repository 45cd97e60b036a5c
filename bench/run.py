"""gramtomo benchmark: CLI pass time, set-up time, fidelity and memory.

Run from the repository root:

    python3 bench/run.py --workload reconstruct-ref --seed 0 --seconds 30 --trace 0

The benchmark drives ``gramtomo.cli.main`` in-process, closed loop, one
command at a time, with BLAS held to one thread. CLI outputs go to
a scratch directory under ``.bench_work/`` that is removed at exit. Every
command's outputs are checked (bench/checks.py); a command that exits
non-zero or fails a check counts as failed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (bench/spans.py). The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the machine block and the details (quartiles, samples, problems).
See bench/README.md for the workloads and the definition of each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, minimal

# checks and spans import numpy, so they are imported inside functions that
# run after gramtomo.cli has been timed: the import time includes numpy's

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_JSON = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_work"

# fresh interpreters behind setup_s, this one included; the first BLAS call
# in a fresh process sometimes costs several tenths of a second more
SETUP_PROCESSES = 5
WARM_SETUP_PASSES = 3
# probe slices behind the host speed of one set-up sample (bench/probe.py)
SETUP_PROBE_SLICES = 20
WORKER_TIMEOUT_S = 120
# Timed runs hold BLAS to one thread. At its default thread count OpenBLAS
# keeps a second thread spinning beside the solver's small products (process
# CPU time is twice the wall time), so a pass on a shared 2-core host times
# the other tenants as much as the program.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread in this process and its workers; before numpy is imported."""
    os.environ.update({k: "1" for k in BLAS_ENV})


def import_cli():
    """Import gramtomo.cli from this checkout; returns (module, seconds)."""
    if not (SRC / "gramtomo" / "cli.py").is_file():
        raise SystemExit(f"bench: no gramtomo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import gramtomo.cli as cli
    return cli, time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Runner:
    """Runs passes of one workload in this process and checks their outputs.

    The working directory must be workdir. Each pass writes to the same
    relative --out directories, because the CLI echoes its output directory
    into its files: byte-identical outputs need identical arguments, in this
    process and in the fresh workers.
    """

    def __init__(self, cli, workload: Workload, seed: int, workdir: Path):
        from checks import Tally
        from probe import Probe

        self.cli = cli
        self.probe = Probe()
        self.workload = workload
        self.seed = seed
        self.tally = Tally()
        self.digests: dict[tuple[str, str], str] = {}
        self.fidelities: list[float] = []
        self.configs = {
            "full": workdir / "config.json",
            "setup": workdir / "setup-config.json",
        }
        self.configs["full"].write_text(json.dumps(workload.config))
        self.configs["setup"].write_text(json.dumps(workload.setup_config))

    def _call(self, argv: list[str]):
        """Runs one command; returns its exit code and seconds, probe slices excluded."""
        sink = io.StringIO()
        probe_s = self.probe.spent
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails the command, not the benchmark
                code = f"exception {exc!r}"
        seconds = time.perf_counter() - start
        return code, seconds - (self.probe.spent - probe_s)

    def run_pass(self, kind: str = "full") -> float:
        """One pass; returns the seconds spent inside the CLI calls."""
        from checks import check_command, digest

        commands = self.workload.setup_commands if kind == "setup" else self.workload.commands
        min_fidelity = self.workload.min_fidelity if kind == "full" else None
        outroot = Path("out") / kind
        shutil.rmtree(outroot, ignore_errors=True)
        elapsed = 0.0
        fidelities = []
        for k, command in enumerate(commands):
            outdir = outroot / f"{k}-{command}"
            code, seconds = self._call([command, "--config", str(self.configs[kind]),
                                        "--out", str(outdir), "--seed", str(self.seed)])
            elapsed += seconds
            problems, fids = check_command(command, outdir, code, min_fidelity)
            if code == 0:
                d = digest(outdir)
                if self.digests.setdefault((kind, str(k)), d) != d:
                    problems.append("outputs differ from the first pass with this seed")
            self.tally.record(f"{kind} {command}", problems)
            fidelities += fids
        if kind == "full" and fidelities:
            self.fidelities.append(statistics.fmean(fidelities))
        return elapsed

    def setup_sample(self, import_s: float) -> float:
        """import time plus the excess of the cold set-up pass over the warm ones,
        in reference seconds at the host speed probed just after."""
        cold = self.run_pass("setup")
        warm = statistics.median(self.run_pass("setup") for _ in range(WARM_SETUP_PASSES))
        first = len(self.probe.samples)
        for _ in range(SETUP_PROBE_SLICES):
            self.probe.slice()
        return (import_s + cold - warm) * self.probe.scale(first)

    def timed_passes(self, seconds: float) -> tuple[list[float], list[float]]:
        """Whole passes, at least one, while the next is expected to end in the
        window; returns the wall seconds of each and its scale to reference
        seconds, from a probe slice before the pass and those during it."""
        times, scales = [], []
        start = time.perf_counter()
        while not times or (time.perf_counter() - start
                            + statistics.fmean(times) <= seconds):
            first = len(self.probe.samples)
            self.probe.slice()
            with self.probe.armed():
                times.append(self.run_pass())
            scales.append(self.probe.scale(first))
        return times, scales


def spawn(args, role: str) -> dict:
    """Run this script as a fresh worker process and return its JSON line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0"] + (["--minimal"] if args.minimal else [])
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{role} worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{role} worker exited {proc.returncode}: {proc.stderr[-500:]}"}
    return json.loads(lines[-1])


def merge_worker(runner: Runner, result: dict) -> None:
    if "error" in result:
        runner.tally.merge(1, 1, [result["error"]])
        return
    differing = [f"{key} outputs differ between fresh processes"
                 for key, d in result.get("digests", {}).items()
                 if runner.digests.get(tuple(key.split(":")), d) != d]
    runner.tally.merge(result["attempted"], result["failed"] + len(differing),
                       result["problems"] + differing)


def traced_pass(runner: Runner) -> tuple[float, dict, dict]:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        seconds = runner.run_pass()
    finally:
        tracer.uninstall()
    return seconds, layer_metrics(tracer), tracer.per_function()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }


def run_setup_worker(runner: Runner, import_s: float) -> dict:
    sample = runner.setup_sample(import_s)
    return {"setup_s": sample, "import_s": import_s,
            "attempted": runner.tally.attempted, "failed": runner.tally.failed,
            "problems": runner.tally.problems,
            "digests": {f"{kind}:{k}": d for (kind, k), d in runner.digests.items()}}


def run_end_to_end(args, runner: Runner, import_s: float) -> tuple[dict, dict]:
    setup, imports = [runner.setup_sample(import_s)], [import_s]
    passes, scales = runner.timed_passes(args.seconds)
    for _ in range(SETUP_PROCESSES - 1):
        result = spawn(args, "setup")
        merge_worker(runner, result)
        if "setup_s" in result:
            setup.append(result["setup_s"])
            imports.append(result["import_s"])
    q1, median, q3 = quartiles(passes)
    reference = [t * k for t, k in zip(passes, scales)]
    # the frame workload runs no reconstruction: its fidelity guard is vacuous
    fidelity = statistics.median(runner.fidelities) if runner.fidelities else 1.0
    values = {
        "pass_s": statistics.median(reference),
        "setup_s": statistics.median(setup),
        "mean_fidelity": fidelity,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"pass_s_reference": reference, "probe_scales": scales,
              "pass_wall_s": {"median": median, "q1": q1, "q3": q3, "n": len(passes),
                              "samples": passes},
              "setup_s_samples": setup, "import_s_samples": imports}
    return values, detail


def run_traced(args, runner: Runner) -> tuple[dict, dict]:
    runner.run_pass("setup")
    untraced, traced, layers, table = [], [], [], {}
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(runner.run_pass())
        seconds, metrics, table = traced_pass(runner)
        traced.append(seconds)
        layers.append(metrics)
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(untraced)
    top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:25]
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced,
              "solver_self_share": values["maxlik.solve_self_s"] / values["trace.pass_s"],
              "last_traced_pass_by_function": dict(top)}
    return values, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window, in whole passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimal", action="store_true",
                        help="dim-4 variant of the workload, for the self-test")
    parser.add_argument("--role", choices=("main", "setup"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its worker and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_blas_threads()
    workload = WORKLOADS[args.workload]
    if args.minimal:
        workload = minimal(workload)
    cli, import_s = import_cli()
    workdir = SCRATCH / f"{args.workload}-{args.role}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        os.chdir(workdir)
        runner = Runner(cli, workload, args.seed, workdir)
        if args.role == "setup":
            print(json.dumps(run_setup_worker(runner, import_s)))
            return 0
        if args.trace:
            values, detail = run_traced(args, runner)
        else:
            values, detail = run_end_to_end(args, runner, import_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    tally = runner.tally
    wanted = json.loads(BENCH_JSON.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {tally.failed_frac:.6g} ({tally.failed} of "
          f"{tally.attempted} commands)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "machine": machine_block(),
                      "failed_frac": tally.failed_frac, "problems": tally.problems[:20],
                      **detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
