"""Run every workload of BENCHMARK.json several times and summarise.

    python3 perfbench/baseline.py [--write]

Runs every workload untraced with seeds 0 to 9. For every end-to-end metric
it prints the median, the quartiles and the spread (interquartile range over
the median) beside the metric's bound, and fails if any run was incorrect or
any spread reaches a third of its bound. One traced run per workload gives
the per-layer numbers and the tracing overhead: traced wall time minus the
untraced median. --write stores all of it in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(10)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": list(SEEDS), "run_seconds": spec["run_seconds"], "workloads": {}}
    healthy = True
    for workload in [w["name"] for w in spec["workloads"]]:
        samples: dict[str, list[float]] = {}
        units = {}
        for seed in report["seeds"]:
            result, env = run_once(spec, workload, seed, 0)
            healthy &= result["correct"]
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall_s={result['metrics']['wall_s']['value']:.3f}", flush=True)
        end_to_end = {}
        for name, values in samples.items():
            s = summarise(values)
            s["unit"] = units[name]
            s["bound"] = bounds[name]
            steady = s["spread"] < bounds[name] / 3
            healthy &= steady
            end_to_end[name] = s
            print(f"  {name:<14} median {s['median']:<12.6g} {units[name]:<6} "
                  f"q1 {s['q1']:<10.6g} q3 {s['q3']:<10.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]} {'ok' if steady else 'TOO WIDE'}", flush=True)
        result, traced_env = run_once(spec, workload, SEEDS[0], 1)
        healthy &= result["correct"]
        per_layer = {name: m["value"] for name, m in result["metrics"].items()}
        overhead = per_layer["trace.wall_s"] - end_to_end["wall_s"]["median"]
        for name, value in per_layer.items():
            print(f"  {name:<40} {value:.6g}")
        print(f"  tracing overhead: traced wall {per_layer['trace.wall_s']:.3f} s"
              f" - untraced median {end_to_end['wall_s']['median']:.3f} s"
              f" = {overhead:.3f} s", flush=True)
        report["workloads"][workload] = {
            "env": env,
            "traced_env": traced_env,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "tracing_overhead_s": overhead,
        }
    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    print("all runs correct and steady" if healthy else "SOME RUNS FAILED OR SPREAD TOO WIDE")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
