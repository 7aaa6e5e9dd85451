"""Benchmark entry point for weyl27.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in a fresh interpreter
(child.py) against the checkout's src/. With --trace 0 the result carries
every end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
metric. The last line of stdout is the result object; the lines before it
give the environment and each metric in readable form. See README.md for why
each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# An untraced run measures set-up in this many fresh interpreters before the
# workload's own and this many after it, so that the samples span the run;
# the median of all of them is reported.
SETUP_BEFORE = 2
SETUP_AFTER = 2
# Everything a run starts must be over by then, well inside 180 s.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Start child.py, wait for it, return its result and its start time.

    The child gets its own process group, so a timeout also stops the pool
    workers it forked.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {argv} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err.decode())
        raise ChildFailed(f"child {argv} exited {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one weyl27 benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "weyl27" / "__init__.py").is_file():
        print(f"error: no weyl27 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)

    setups: list[float] = []

    def sample_setups(count: int) -> None:
        for _ in range(count):
            res, started = run_child(["--setup-only"], deadline)
            setups.append(res["setup_done"] - started)

    try:
        if not args.trace:
            sample_setups(SETUP_BEFORE)
        res, started = run_child(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out_dir),
            ],
            deadline,
        )
        if not args.trace:
            setups.append(res["setup_done"] - started)
            sample_setups(SETUP_AFTER)
    except (ChildFailed, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    raw = res["metrics"]
    outcome = res["outcome"]
    if not args.trace:
        raw["setup_s"] = statistics.median(setups)
        raw["ok_ratio"] = outcome["ok_ratio"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **res["env"]}
    if "commands" in raw:
        info["commands"] = raw["commands"]
    if not args.trace:
        info["setup_samples_s"] = setups
    print("env " + json.dumps(info, sort_keys=True))
    for problem in outcome["problems"]:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
