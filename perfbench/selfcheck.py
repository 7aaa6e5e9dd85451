"""Self-check of the correctness gate: corrupted output must count as failed.

    python3 perfbench/selfcheck.py

Feeds the gate's verify, enumerate and pool checks crafted good and
corrupted inputs. Then runs both command workloads for real, through the
CLI and child.py, with the pipeline replaced by a corrupted stand-in that
answers at once, and requires ok_ratio to drop. Exits 1 if a corruption
passed silently or good input was refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, outcome: gate.Outcome, failed: int) -> None:
    if outcome.failed != failed:
        FAILURES.append(f"{label}: {outcome.failed} failed, expected {failed}")
    print(f"{'ok  ' if outcome.failed == failed else 'BAD '} {label}: "
          f"{outcome.failed}/{outcome.attempted} failed")


def verify_payload(passed: list[bool]) -> bytes:
    rows = [{"number": i + 1, "name": f"check-{i + 1}", "passed": p, "detail": "d"}
            for i, p in enumerate(passed)]
    return (json.dumps(rows, indent=1) + "\n").encode()


def check_verify_gate() -> None:
    good = verify_payload([True] * gate.CHECK_COUNT)
    pin = gate.sha256(good)
    cases = [
        ("verify: pinned bytes, 10/10, exit 0", 0, good, pin, 0),
        ("verify: one byte flipped", 0, good.replace(b'"d"', b'"e"', 1), pin, 1),
        ("verify: one check failed", 1, verify_payload([True] * 9 + [False]), pin, 1),
        ("verify: nonzero exit", 1, good, pin, 1),
        ("verify: no output", 0, b"", pin, 1),
        ("verify: crafted bytes against the real pin", 0, good, gate.VERIFY_SHA256, 1),
    ]
    for label, code, data, pin_, failed in cases:
        outcome = gate.Outcome()
        gate.check_verify(outcome, code, data, pin=pin_)
        expect(label, outcome, failed)


def check_enumerate_gate() -> None:
    good = b'{"n":0,"min_rep":[],"orbit_size":1}\n{"n":1,"min_rep":[1],"orbit_size":27}\n'
    pin = gate.sha256(good)
    cases = [
        ("enumerate: pinned stream", 0, good, pin, 0),
        ("enumerate: record dropped", 0, good.split(b"\n", 1)[1], pin, 1),
        ("enumerate: nonzero exit", 1, good, pin, 1),
    ]
    for label, code, data, pin_, failed in cases:
        outcome = gate.Outcome()
        gate.check_enumerate(outcome, code, data, pin=pin_)
        expect(label, outcome, failed)
    for label, cpu, fork, failed in [
        ("pool: children did the work", 30.0, True, 0),
        ("pool: silent serial fallback", 0.0, True, 1),
        ("pool: no fork start method", 30.0, False, 1),
    ]:
        outcome = gate.Outcome()
        gate.check_pool(outcome, cpu, fork)
        expect(label, outcome, failed)


def check_corrupted_commands() -> None:
    """The real command loop and CLI, with a pipeline that gives wrong answers."""
    from weyl27 import cli
    from weyl27.checks import CheckResult
    from weyl27.orbits import OrbitRecord

    real = cli.enumerate_all, cli.run_all
    # Too few records, computed without the pool; ten passing checks with
    # the wrong details.
    cli.enumerate_all = lambda group, max_n=None, workers=1: [OrbitRecord(0, 1)]
    cli.run_all = lambda workers=1: [CheckResult(n, "stand-in", True, "") for n in range(1, 11)]
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    env = child.environment()
    try:
        for workload, failed in (("verify-serial", 1), ("enumerate-parallel", 2)):
            outcome = gate.Outcome()
            args = types.SimpleNamespace(workload=workload, seconds=0, out=out)
            with contextlib.redirect_stderr(io.StringIO()):
                child.command_workload(args, outcome, env)
            expect(f"{workload} with a corrupted pipeline (ok_ratio {outcome.ok_ratio():.2f})",
                   outcome, failed)
    finally:
        cli.enumerate_all, cli.run_all = real


def main() -> int:
    check_verify_gate()
    check_enumerate_gate()
    check_corrupted_commands()
    if FAILURES:
        print("gate self-check FAILED:\n  " + "\n  ".join(FAILURES))
        return 1
    print("gate self-check passed: every corruption was counted as a failure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
