"""Golden output of every subcommand in every format, pinned by sha256.

Each case runs the CLI in-process, once writing to stdout and once with
--output, and compares the exit code and the digests of stdout, stderr and
the --output bytes with golden_cli.json. Full outputs reach a megabyte
(classify as JSON), so the file holds digests, not outputs. The pipeline
commands reuse the session ctx, and its certificates, through the CLI's
module bindings. A deliberate output change is pinned by writing run_case's
result for every case, under the same bindings, into golden_cli.json.
"""

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import weyl27.cli as cli
from weyl27.checks import run_all
from weyl27.graphs import classify_types

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "golden_cli.json").read_text(encoding="utf-8"))

COMMANDS = {
    "group": ["group"],
    "enumerate": ["enumerate"],
    "enumerate-n5": ["enumerate", "--n", "5"],
    "classify": ["classify"],
    "pairs": ["pairs"],
    "invariants": ["invariants", "1", "2", "3", "4", "5", "27"],
    "invariants-empty": ["invariants"],
    "export-gap": ["export-gap"],
    "verify": ["verify"],
}
CASES = {
    f"{name}-{fmt}{'-output' if to_file else ''}": (
        [*argv, "--format", fmt, "--workers", "1"],
        to_file,
    )
    for name, argv in COMMANDS.items()
    for fmt in ("text", "json", "csv")
    for to_file in (False, True)
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], to_file: bool, directory: Path) -> dict:
    """Exit code and digests of one CLI run."""
    target = directory / "golden.out"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--output", str(target)] if to_file else argv)
    return {
        "exit": code,
        "stdout": sha256(out.getvalue().encode()),
        "stderr": sha256(err.getvalue().encode()),
        "output": sha256(target.read_bytes()) if to_file else None,
    }


@pytest.fixture(scope="module")
def results(ctx):
    return run_all(ctx=ctx)


@pytest.fixture
def pipeline(ctx, results, monkeypatch):
    """The CLI with its pipeline stages answered from the session ctx."""
    monkeypatch.delenv("WEYL27_EXPECTATIONS", raising=False)
    monkeypatch.setattr(cli, "build_context", lambda workers=1: ctx)
    monkeypatch.setattr(
        cli,
        "enumerate_all",
        lambda group, max_n=None, workers=1: [
            r for r in ctx.records if max_n is None or r.n <= max_n
        ],
    )
    monkeypatch.setattr(cli, "run_all", lambda workers=1: results)
    monkeypatch.setattr(
        cli, "classify_types", lambda records, ls: classify_types(records, ls, ctx.certificates)
    )


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, pipeline, tmp_path):
    argv, to_file = CASES[case]
    assert run_case(argv, to_file, tmp_path) == PINS[case]


def test_pins_agree_with_the_benchmark_gate():
    # the benchmark pins the same two streams from a full, unpatched run
    path = HERE.parent / "perfbench" / "gate.py"
    spec = importlib.util.spec_from_file_location("perfbench_gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert PINS["enumerate-json-output"]["output"] == gate.ENUMERATE_SHA256
    assert PINS["enumerate-json"]["stdout"] == gate.ENUMERATE_SHA256
    assert PINS["verify-json-output"]["output"] == gate.VERIFY_SHA256
    assert PINS["verify-json"]["stdout"] == gate.VERIFY_SHA256
