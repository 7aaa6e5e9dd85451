"""Correctness gate: every operation a workload attempts is checked here.

A failed operation is one that raised, exited nonzero or produced output
that differs from the pinned reference. The counts feed `ok_ratio` and the
`attempted`/`failed` fields of the result line.
"""

from __future__ import annotations

import hashlib
import json

# sha256 of `weyl27 verify --workers 1 --format json --output PATH`.
VERIFY_SHA256 = "bed8bb24e83bf7cdb2717a6a8dd9d950cb9dd1c1f2a3fe41a74334ab1fcd7fcd"
# sha256 of `weyl27 enumerate --format json --output PATH`. The stream is the
# same for --workers 1 and --workers 2; both were hashed when this was pinned.
ENUMERATE_SHA256 = "9aacdc1276b3e661618c9a05f7ed7f2524decaddd8aade2ee2badbe2f80c5602"
ENUMERATE_RECORDS = 5486
CHECK_COUNT = 10

# A pool whose children together used less CPU than this did no real work:
# the library fell back to serial enumeration without saying so.
MIN_POOL_CHILD_CPU_S = 1.0


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def ok_ratio(self) -> float:
        """Operations that passed over operations attempted: 1 - failed_ratio."""
        return (self.attempted - self.failed) / self.attempted

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "ok_ratio": self.ok_ratio(),
            "problems": self.problems,
        }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_verify(outcome: Outcome, exit_code: int, data: bytes, pin: str = VERIFY_SHA256) -> bool:
    """One verify command: exit 0, the pinned bytes, and 10/10 PASS."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    if sha256(data) != pin:
        problems.append("verify output differs from the pinned digest")
    try:
        results = json.loads(data)
        passed = sum(1 for r in results if r["passed"] is True)
        if len(results) != CHECK_COUNT or passed != CHECK_COUNT:
            problems.append(f"verify passed {passed}/{len(results)} checks")
    except (ValueError, TypeError, KeyError) as exc:
        problems.append(f"verify output is not the expected JSON: {exc}")
    return outcome.record(not problems, "; ".join(problems))


def check_enumerate(
    outcome: Outcome, exit_code: int, data: bytes, pin: str = ENUMERATE_SHA256
) -> bool:
    """One enumerate command: exit 0 and the pinned JSONL record stream."""
    problems = []
    if exit_code != 0:
        problems.append(f"enumerate exited {exit_code}")
    if sha256(data) != pin:
        lines = data.count(b"\n")
        problems.append(
            f"enumerate stream differs from the pinned digest ({lines} records,"
            f" expected {ENUMERATE_RECORDS})"
        )
    return outcome.record(not problems, "; ".join(problems))


def check_pool(outcome: Outcome, child_cpu_s: float, fork_available: bool) -> bool:
    """The worker pool ran: otherwise a serial fallback would pass as slow."""
    if not fork_available:
        return outcome.record(False, "no fork start method: the pool falls back to serial")
    return outcome.record(
        child_cpu_s >= MIN_POOL_CHILD_CPU_S,
        f"pool children used {child_cpu_s:.3f} s CPU: serial fallback",
    )
