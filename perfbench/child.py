"""One benchmark workload, run by run.py in a fresh interpreter.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The package must be importable (run.py puts the checkout's src/ first on
PYTHONPATH). The last line of stdout is one JSON object: the monotonic
clock reading when set-up ended, the environment, the raw metrics and the
gate outcome. Untraced runs measure the workload with nothing wrapped;
traced runs wrap the layers' functions (see tracer.py), run the same CLI
commands and report per-layer numbers instead.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import gate
from tracer import Tracer, span_cost

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
LATTICE_FUNCTIONS = ("orthogonal_complement", "cokernel_invariants", "matrix_rank", "is_even")
GRAPH_FUNCTIONS = (
    "intersection_graph",
    "canonical_certificate",
    "classify_types",
    "find_zariski_pairs",
)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


def setup(tracer: Tracer | None):
    """Interpreter-level set-up shared by every workload: import, lines, group."""
    import weyl27
    from weyl27.lines import build_line_system, weyl_group

    source = Path(weyl27.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"weyl27 imported from {source}, not from this checkout")
    with _span(tracer, "lines.build_line_system"):
        ls = build_line_system()
    with _span(tracer, "lines.generate_group"):
        group = weyl_group()
    return ls, group


def cpu_seconds() -> tuple[float, float]:
    """User + system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment() -> dict:
    import numpy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fork": "fork" in multiprocessing.get_all_start_methods(),
        "workers": WORKERS,
    }


def run_cli(argv: list[str]) -> int:
    """The CLI as a user runs it; an exception is a failed command, not a crash."""
    from weyl27 import cli

    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def run_command(workload: str, workers: int, out_dir: Path) -> tuple[int, bytes, float, float]:
    """One CLI command of a workload: its exit code, the bytes it wrote
    through --output, its wall time and the CPU time of its pool children."""
    out_path = out_dir / f"{workload}-{os.getpid()}.out"
    if workload == "verify-serial":
        argv = ["verify", "--workers", str(workers), "--format", "json"]
    else:
        argv = ["enumerate", "--format", "json", "--workers", str(workers)]
    kids0 = cpu_seconds()[1]
    t0 = perf_counter()
    code = run_cli([*argv, "--output", str(out_path)])
    wall = perf_counter() - t0
    kids = cpu_seconds()[1] - kids0
    data = out_path.read_bytes() if out_path.exists() else b""
    out_path.unlink(missing_ok=True)
    return code, data, wall, kids


def check_command(outcome: gate.Outcome, workload: str, code: int, data: bytes) -> None:
    if workload == "verify-serial":
        gate.check_verify(outcome, code, data)
    else:
        gate.check_enumerate(outcome, code, data)


# -- untraced command workloads -------------------------------------------


def command_workload(args, outcome: gate.Outcome, env: dict) -> dict:
    """Repeat whole CLI commands until --seconds have passed (at least one)."""
    workers = 1 if args.workload == "verify-serial" else WORKERS
    walls, child_cpu = [], []
    cpu0 = sum(cpu_seconds())
    start = perf_counter()
    while True:
        code, data, wall, kids = run_command(args.workload, workers, args.out)
        walls.append(wall)
        child_cpu.append(kids)
        check_command(outcome, args.workload, code, data)
        if workers > 1:
            gate.check_pool(outcome, kids, env["fork"])
        if perf_counter() - start >= args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": (sum(cpu_seconds()) - cpu0) / len(walls),
        "peak_rss_mb": peak_rss_mb(),
        "commands": len(walls),
    }
    if workers > 1:
        env["pool_child_cpu_s"] = statistics.median(child_cpu)
    return metrics


# -- traced runs ----------------------------------------------------------


def level_counts(args, children) -> dict:
    """Figures of one _extend_batch call: one enumeration level, serially.

    A minimal parent is extended by every line past its last one, so a
    parent with top line index k - 1 (bit_length k) yields degree - k
    candidates.
    """
    parents, _, degree = args
    return {
        "parents": len(parents),
        "candidates": sum(degree - mask.bit_length() for mask in parents),
        "children": len(children),
    }


def instrument(tracer: Tracer) -> None:
    """Wrap the layers' functions at the module bindings the pipeline calls.

    graphs, invariants and the orbit-level functions are wrapped everywhere
    the package binds them; lattice where weyl27.invariants binds it; the
    context stages where weyl27.checks binds them; run_all where the CLI
    binds it.
    """
    from weyl27 import checks, cli, graphs, invariants, lattice, lines, orbits  # noqa: F401

    package = [name for name in sys.modules if name == "weyl27" or name.startswith("weyl27.")]
    for name in GRAPH_FUNCTIONS:
        tracer.instrument(getattr(graphs, name), f"graphs.{name}", package)
    tracer.instrument(invariants.invariant_report, "invariants.invariant_report", package)
    for name in LATTICE_FUNCTIONS:
        tracer.instrument(getattr(lattice, name), f"lattice.{name}", ["weyl27.invariants"])
    tracer.instrument(orbits.enumerate_all, "orbits.enumerate_all", package)
    tracer.instrument(orbits.orbit_size, "orbits.orbit_size", package)
    # One level of enumerate_minimal is one call of this private helper.
    # Without it the level figures read 0 rather than failing the run.
    if hasattr(orbits, "_extend_batch"):
        tracer.instrument(
            orbits._extend_batch, "orbits.extend_level", ["weyl27.orbits"], level_counts
        )
    tracer.instrument(lines.build_line_system, "lines.build_line_system", ["weyl27.checks"])
    tracer.instrument(lines.generate_group, "lines.generate_group", ["weyl27.checks"])
    tracer.instrument(checks.build_context, "checks.build_context", ["weyl27.checks"])
    tracer.instrument(checks.run_all, "checks.run_all", ["weyl27.cli"])


def traced_verify(tracer: Tracer, out_dir: Path, outcome: gate.Outcome) -> dict:
    """`weyl27 verify --workers 1` through the CLI, every layer wrapped."""
    with tracer.span("cli.verify"):
        code, data, wall, _ = run_command("verify-serial", 1, out_dir)
    check_command(outcome, "verify-serial", code, data)
    try:
        passed = sum(1 for r in json.loads(data) if r["passed"] is True)
    except (ValueError, TypeError, KeyError):
        passed = 0
    return {"trace.wall_s": wall, "checks.passed": passed}


def traced_enumerate(tracer: Tracer, out_dir: Path, outcome: gate.Outcome, env: dict) -> dict:
    """The pooled `weyl27 enumerate`, then the same command with --workers 1
    as its serial baseline; the orbits figures come from the serial one."""
    with tracer.span("cli.enumerate"):
        code, data, wall, child_cpu = run_command("enumerate-parallel", WORKERS, out_dir)
    check_command(outcome, "enumerate-parallel", code, data)
    gate.check_pool(outcome, child_cpu, env["fork"])
    env["pool_child_cpu_s"] = child_cpu
    serial_from = len(tracer.spans)
    with tracer.span("cli.enumerate"):
        code, data, serial_wall, _ = run_command("enumerate-parallel", 1, out_dir)
    check_command(outcome, "enumerate-parallel", code, data)
    # Wall-clock scaling means nothing when the workers share fewer cores.
    env["scaling"] = serial_wall / wall if env["nproc"] >= WORKERS else None
    return {
        "trace.wall_s": wall,
        "orbits.pool_child_cpu_s": child_cpu,
        "orbits.pool_busy_ratio": child_cpu / (wall * WORKERS),
        "serial_from": serial_from,
    }


def traced_metrics(t: Tracer, group, run: dict, cost: float) -> dict:
    # Spans before serial_from belong to the pooled command, whose levels
    # ran in forked workers out of the tracer's sight.
    since = run.pop("serial_from", 0)
    levels = "orbits.extend_level"
    candidates = t.tally(levels, "candidates", since)
    reports = t.calls("invariants.invariant_report")
    metrics = {
        "lines.build_line_system_s": t.total("lines.build_line_system"),
        "lines.generate_group_s": t.total("lines.generate_group"),
        "lines.group_order": group.order,
        "orbits.extend_minimal_s": t.total(levels, since),
        "orbits.extend_minimal_peak_level_s": t.longest(levels, since),
        "orbits.parents": t.tally(levels, "parents", since),
        "orbits.candidates": candidates,
        "orbits.children": t.tally(levels, "children", since),
        "orbits.keep_ratio": t.tally(levels, "children", since) / candidates if candidates else 0.0,
        "orbits.orbit_size_s": t.total("orbits.orbit_size", since),
        "orbits.orbit_size_calls": t.calls("orbits.orbit_size", since),
        "orbits.enumerate_all_s": t.total("orbits.enumerate_all", since),
        "orbits.pool_child_cpu_s": 0.0,
        "orbits.pool_busy_ratio": 0.0,
        "graphs.certificate_max_ms": t.longest("graphs.canonical_certificate") * 1000.0,
        "invariants.invariant_report_s": t.total("invariants.invariant_report"),
        "invariants.calls": reports,
        "lattice.calls_per_report": (
            t.children_of("invariants.invariant_report", "lattice.") / reports if reports else 0.0
        ),
        # run_all builds its context first; the checks proper are the rest.
        "checks.run_all_s": t.total("checks.run_all") - t.total("checks.build_context"),
        "checks.passed": 0,
        "trace.spans": len(t.spans),
        "trace.overhead_s": len(t.spans) * cost,
        **run,
    }
    for name in GRAPH_FUNCTIONS:
        metrics[f"graphs.{name}_s"] = t.total(f"graphs.{name}")
    for name in LATTICE_FUNCTIONS:
        metrics[f"lattice.{name}.calls"] = t.calls(f"lattice.{name}")
        metrics[f"lattice.{name}_s"] = t.total(f"lattice.{name}")
    for layer in ("lines", "orbits", "graphs", "invariants", "lattice", "checks"):
        metrics[f"{layer}.self_s"] = t.layer_self_time(layer, since)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    _, group = setup(tracer)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    env = environment()
    outcome = gate.Outcome()
    if tracer is None:
        metrics = command_workload(args, outcome, env)
    else:
        cost = span_cost()
        instrument(tracer)
        if args.workload == "verify-serial":
            run = traced_verify(tracer, args.out, outcome)
        else:
            run = traced_enumerate(tracer, args.out, outcome, env)
        tracer.restore()
        metrics = traced_metrics(tracer, group, run, cost)
        tracer.write(args.out / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({
        "setup_done": setup_done,
        "env": env,
        "metrics": metrics,
        "outcome": outcome.as_dict(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
