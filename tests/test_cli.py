"""Command-line interface: formats, routing, exit codes."""

import json
import multiprocessing
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import weyl27.checks as checks
import weyl27.cli as cli
import weyl27.orbits as orbits
from weyl27.checks import group_problems, pair_checks, run_all
from weyl27.cli import RunConfig, main
from weyl27.expectations import load_expectations
from weyl27.lines import weyl_group

EXPECTED_CYCLES = [
    "(4,21)(5,20)(6,19)(7,24)(8,23)(12,22)",
    "(1,2)(8,12)(9,13)(10,14)(11,15)(22,23)",
    "(2,3)(7,8)(13,16)(14,17)(15,18)(23,24)",
    "(3,4)(8,9)(12,13)(17,19)(18,20)(24,25)",
    "(4,5)(9,10)(13,14)(16,17)(20,21)(25,26)",
    "(5,6)(10,11)(14,15)(17,18)(19,20)(26,27)",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SHIPPED_EXPECTATIONS = Path(cli.__file__).parent / "data" / "expectations.json"


@pytest.fixture
def wrong_expectations(tmp_path, monkeypatch):
    """Shipped expectations with the group order, one orbit size and one
    torsion changed and a seventh generator added, selected through
    WEYL27_EXPECTATIONS."""
    raw = json.loads(SHIPPED_EXPECTATIONS.read_text(encoding="utf-8"))
    raw["group_order"] += 1
    raw["generator_cycles"].append("(1,27)")
    raw["zariski_pairs"][0]["orbit_sizes"][1] += 1
    raw["zariski_pairs"][1]["h1_torsion"][0] = [3]
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setenv("WEYL27_EXPECTATIONS", str(path))
    return load_expectations()


# ------------------------------------------------------------------- config


def test_run_config_validation():
    RunConfig(output_path=None, format="text", workers=1)
    with pytest.raises(ValueError):
        RunConfig(output_path=None, format="text", workers=0)
    with pytest.raises(ValueError):
        RunConfig(output_path=None, format="text", workers=1, n_filter=28)
    with pytest.raises(ValueError):
        RunConfig(output_path=None, format="text", workers=1, lines=(3, 3))


def test_bad_flag_values_exit_2(capsys):
    assert run(["enumerate", "--n", "28", "--workers", "1"], capsys)[0] == 2
    assert run(["verify", "--workers", "0"], capsys)[0] == 2


def _usable_cores(monkeypatch, usable, host):
    """This process may run on CPUs 0..usable-1 of a host with host CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: host)


@pytest.mark.parametrize("cores", [1, 2])
def test_workers_above_the_core_count_exit_2(cores, monkeypatch, capsys):
    # the counter is patched, so no pool is ever started to try a large N
    _usable_cores(monkeypatch, cores, cores)
    RunConfig(output_path=None, format="text", workers=cores)
    for workers in (cores + 1, 5000):
        code, out, err = run(["enumerate", "--n", "2", "--workers", str(workers)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: workers must be at most {cores}, the available cores\n"


def test_workers_ceiling_is_the_cpu_affinity(monkeypatch, capsys):
    # pinned to one CPU of a four-CPU host, as under taskset -c 0
    _usable_cores(monkeypatch, 1, 4)
    code, out, err = run(["enumerate", "--n", "3", "--workers", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: workers must be at most 1, the available cores\n"


def test_workers_ceiling_without_affinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._core_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._core_count() == 1


def _four_cores(monkeypatch, methods):
    _usable_cores(monkeypatch, 4, 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)


@pytest.mark.parametrize("methods", [["fork", "spawn"], ["spawn"]], ids=["fork", "no-fork"])
def test_workers_default_to_one_on_every_platform(methods, monkeypatch):
    _four_cores(monkeypatch, methods)
    for command in cli.POOLED:
        assert cli._build_parser().parse_args([command]).workers == 1


def test_bare_command_never_starts_a_pool(monkeypatch, capsys):
    _four_cores(monkeypatch, ["fork", "spawn"])
    start_pool = orbits._start_pool
    asked = []

    def serial_only(group, workers):
        asked.append(workers)
        assert workers == 1, f"a bare command asked for {workers} workers"
        return start_pool(group, workers)

    monkeypatch.setattr(orbits, "_start_pool", serial_only)
    code, out, err = run(["enumerate", "--n", "6"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("total 73\n")
    assert asked == [1]


@pytest.mark.parametrize("command", ["group", "invariants", "export-gap"])
def test_workers_flag_only_where_a_pool_runs(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--workers", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


# -------------------------------------------------------------------- group


def test_group_text_output(capsys):
    code, out, _ = run(["group"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: 51840"
    assert lines[1] == "dynkin: PASS"
    for i, cyc in enumerate(EXPECTED_CYCLES, start=1):
        assert lines[1 + i] == f"generator {i}: {cyc}"
    assert lines[-1] == "match: PASS"


def test_group_json_output(capsys):
    code, out, _ = run(["group", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 51840
    assert payload["dynkin"] is True
    assert payload["generators"] == EXPECTED_CYCLES
    assert payload["match"] is True


def test_group_csv_output(capsys):
    code, out, _ = run(["group", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert lines[1] == "order,51840"
    assert lines[-1] == "match,PASS"


def test_group_corrupt_root_fails(monkeypatch, capsys):
    roots = list(cli.SIMPLE_ROOTS)
    roots[1], roots[2] = roots[2], roots[1]
    monkeypatch.setattr(cli, "SIMPLE_ROOTS", tuple(roots))
    code, out, _ = run(["group"], capsys)
    assert code == 1
    assert "dynkin: FAIL" in out
    assert "match: FAIL" in out
    # swapping two roots reorders the generators but generates the same group
    assert "order: 51840" in out


def test_group_output_file(tmp_path, capsys):
    target = tmp_path / "group.txt"
    code, out, _ = run(["group", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "order: 51840"


def test_output_is_replaced_atomically(tmp_path, monkeypatch, capsys):
    target = tmp_path / "gens.txt"
    target.write_text("old contents\n")
    real_open = open

    class FailsPartway:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(
        cli, "open", lambda *a, **kw: FailsPartway(real_open(*a, **kw)), raising=False
    )
    code, out, err = run(["export-gap", "--output", str(target)], capsys)
    assert code == 1
    assert "No space left on device" in err
    assert target.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["gens.txt"]

    monkeypatch.undo()
    code, out, _ = run(["export-gap", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines() == EXPECTED_CYCLES
    assert [p.name for p in tmp_path.iterdir()] == ["gens.txt"]


def test_output_leaves_a_stale_temp_file_alone(tmp_path, capsys):
    # a run killed mid-write leaves its temp file behind, and a later run
    # may get the same pid; it must neither fail on that file nor touch it
    target = tmp_path / "gens.txt"
    stale = tmp_path / f".gens.txt.{os.getpid()}.tmp"
    stale.write_text("half a write")
    code, out, err = run(["export-gap", "--output", str(target)], capsys)
    assert (code, out, err) == (0, "", "")
    assert target.read_text().splitlines() == EXPECTED_CYCLES
    assert stale.read_text() == "half a write"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "gens.txt"]


def test_output_keeps_the_mode_of_the_file_it_replaces(tmp_path, capsys):
    target = tmp_path / "gens.txt"
    target.write_text("old contents\n")
    target.chmod(0o600)
    code, _, _ = run(["export-gap", "--output", str(target)], capsys)
    assert code == 0
    assert target.read_text().splitlines() == EXPECTED_CYCLES
    assert target.stat().st_mode & 0o777 == 0o600


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "gens.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out, _ = run(["export-gap", "--output", str(fifo)], capsys)
    reader.join(timeout=30)
    assert code == 0
    assert out == ""
    assert received[0].splitlines() == EXPECTED_CYCLES
    assert [p.name for p in tmp_path.iterdir()] == ["gens.fifo"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_output_in_a_directory_without_room_for_a_temp_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "gens.txt"
    target.write_text("old contents\n")
    real_open = open

    def no_new_files(path, mode="r", **kw):
        if "x" in mode:
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, mode, **kw)

    monkeypatch.setattr(cli, "open", no_new_files, raising=False)
    code, _, _ = run(["export-gap", "--output", str(target)], capsys)
    assert code == 0
    assert target.read_text().splitlines() == EXPECTED_CYCLES
    assert [p.name for p in tmp_path.iterdir()] == ["gens.txt"]


def test_group_fails_against_other_expectations(wrong_expectations, capsys):
    code, out, _ = run(["group"], capsys)
    assert code == 1
    assert "order: 51840" in out
    assert out.splitlines()[-1] == "match: FAIL"
    assert group_problems(weyl_group(), wrong_expectations) == [
        "order 51840 != 51841",
        "6 generators, expected 7",
    ]


def _truncated(text):
    return text[: len(text) // 2]


def _edited(edit):
    def apply(text):
        raw = json.loads(text)
        edit(raw)
        return json.dumps(raw)

    return apply


# (shipped text -> malformed text, a fragment of the one error line)
MALFORMED_EXPECTATIONS = {
    "truncated": (_truncated, "not valid JSON"),
    # lone surrogates write as the raw bytes 0xff 0xfe: a file that is not UTF-8
    "not-utf-8": (lambda text: "\udcff\udcfe" + text, "not valid JSON: 'utf-8' codec can't decode"),
    "no-zariski-pairs": (_edited(lambda raw: raw.pop("zariski_pairs")), "missing zariski_pairs"),
    "empty-h1-torsion": (
        _edited(lambda raw: raw["zariski_pairs"][1].update(h1_torsion=[])),
        "zariski pair 2: h1_torsion needs one entry per member (2)",
    ),
    "empty-perp-parity": (
        _edited(lambda raw: raw["zariski_pairs"][0].update(perp_parity=[])),
        "zariski pair 1: perp_parity needs one entry per member (2)",
    ),
    "short-orbit-sizes": (
        _edited(lambda raw: raw["zariski_pairs"][0]["orbit_sizes"].pop()),
        "zariski pair 1: orbit_sizes needs one entry per member (2)",
    ),
    "short-orbit-counts": (
        _edited(lambda raw: raw["orbit_counts"].pop()),
        "orbit_counts needs one entry per size 0..27 (28)",
    ),
    "line-28": (
        _edited(lambda raw: raw["zariski_pairs"][0]["members"][1].append(28)),
        "zariski pair 1: member [1, 2, 3, 4, 21, 28] needs distinct lines in 1..27",
    ),
    "line-0": (
        _edited(lambda raw: raw["zariski_pairs"][1]["members"][0].__setitem__(0, 0)),
        "zariski pair 2: member [0, 2, 3, 4, 5, 27] needs distinct lines in 1..27",
    ),
    # numbers of another JSON type: each compares equal to an int, or int()
    # would read it as one, so a check could pass against it
    "float-group-order": (
        _edited(lambda raw: raw.update(group_order=51840.7)),
        "group_order needs an integer, not 51840.7",
    ),
    "string-group-order": (
        _edited(lambda raw: raw.update(group_order="51840")),
        "group_order needs an integer, not '51840'",
    ),
    "float-total-orbits": (
        _edited(lambda raw: raw.update(total_orbits=5486.9)),
        "total_orbits needs an integer, not 5486.9",
    ),
    "bool-power-set-size": (
        _edited(lambda raw: raw.update(power_set_size=True)),
        "power_set_size needs an integer, not True",
    ),
    "float-orbit-counts": (
        _edited(lambda raw: raw.update(orbit_counts=[float(c) for c in raw["orbit_counts"]])),
        "orbit_counts needs a list of integers",
    ),
    "float-disjoint-five-sizes": (
        _edited(lambda raw: raw.update(disjoint_five_orbit_sizes=[432.0, 216.0])),
        "disjoint_five_orbit_sizes needs a list of integers",
    ),
    "float-pair-orbit-sizes": (
        _edited(lambda raw: raw["zariski_pairs"][0].update(orbit_sizes=[432.0, 216.0])),
        "zariski pair 1: orbit_sizes has an entry of the wrong type",
    ),
    "float-h1-torsion": (
        _edited(lambda raw: raw["zariski_pairs"][1].update(h1_torsion=[[2.0], []])),
        "zariski pair 2: h1_torsion has an entry of the wrong type",
    ),
    # a cycle list of another shape would load and fail the generator check,
    # blaming the group rather than the file
    "string-generator-cycles": (
        _edited(lambda raw: raw.update(generator_cycles="(1,2)")),
        "generator_cycles needs a list of strings",
    ),
    "int-generator-cycles": (
        _edited(lambda raw: raw.update(generator_cycles=[1, 2])),
        "generator_cycles needs a list of strings",
    ),
}


@pytest.mark.parametrize("command", ["group", "pairs", "verify"])
@pytest.mark.parametrize("case", sorted(MALFORMED_EXPECTATIONS))
def test_malformed_expectations_exit_1_with_one_error_line(
    case, command, tmp_path, monkeypatch, capsys
):
    corrupt, fragment = MALFORMED_EXPECTATIONS[case]
    path = tmp_path / "expectations.json"
    shipped = SHIPPED_EXPECTATIONS.read_text(encoding="utf-8")
    path.write_text(corrupt(shipped), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setenv("WEYL27_EXPECTATIONS", str(path))

    def no_pipeline(workers):
        raise AssertionError("the pipeline ran before the expectations loaded")

    monkeypatch.setattr(cli, "build_context", no_pipeline)
    monkeypatch.setattr(checks, "build_context", no_pipeline)
    code, out, err = run([command], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: ")
    assert fragment in err
    assert err.count("\n") == 1


def test_missing_expectations_file_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEYL27_EXPECTATIONS", str(tmp_path / "absent.json"))
    code, out, err = run(["group"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------- enumerate


def test_enumerate_json_records(capsys):
    code, out, err = run(
        ["enumerate", "--n", "2", "--format", "json", "--workers", "1"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        '{"n":2,"min_rep":[1,2],"orbit_size":216}',
        '{"n":2,"min_rep":[1,7],"orbit_size":135}',
    ]
    # the summary table goes to stderr so the stream stays parseable
    assert "total 4" in err


def test_enumerate_empty_arrangement(capsys):
    code, out, _ = run(
        ["enumerate", "--n", "0", "--format", "json", "--workers", "1"], capsys
    )
    assert code == 0
    assert out == '{"n":0,"min_rep":[],"orbit_size":1}\n'


def test_enumerate_csv_counts(capsys):
    code, out, _ = run(
        ["enumerate", "--n", "3", "--format", "csv", "--workers", "1"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,4"]


def test_enumerate_text_table(capsys):
    code, out, _ = run(["enumerate", "--n", "2", "--workers", "1"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "total 4"


def test_enumerate_text_with_output_writes_records(tmp_path, capsys):
    target = tmp_path / "orbits.jsonl"
    code, out, _ = run(
        ["enumerate", "--n", "1", "--output", str(target), "--workers", "1"], capsys
    )
    assert code == 0
    assert target.read_text() == '{"n":1,"min_rep":[1],"orbit_size":27}\n'
    assert "total 2" in out  # table still lands on stdout


def _worker_dies(chunk):
    os._exit(3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
)
def test_worker_crash_fails_loudly(monkeypatch, capsys):
    monkeypatch.setattr(orbits, "_pool_extend", _worker_dies)
    code, out, err = run(["enumerate", "--n", "6", "--workers", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "terminated abruptly" in err


def _task_raises(chunk):
    raise MemoryError


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
)
def test_worker_exception_fails_loudly(monkeypatch, capfd):
    # capfd, not capsys: it also sees what the forked workers write
    monkeypatch.setattr(orbits, "_pool_extend", _task_raises)
    code = main(["enumerate", "--n", "6", "--workers", "2"])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: a pool worker failed: MemoryError\n"  # one line, no traceback


def _no_fork(method=None):
    raise ValueError(f"cannot find context for {method!r}")


def test_workers_without_fork_fail_loudly(monkeypatch, capsys):
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    code, out, err = run(["enumerate", "--n", "3", "--workers", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: 2 workers need the fork start method, which this platform lacks\n"
    # the default is one worker, so a bare command still runs
    code, out, err = run(["enumerate", "--n", "3"], capsys)
    assert code == 0
    assert out.endswith("total 8\n") and err == ""


# --------------------------------------------------------------- invariants


def test_invariants_text(capsys):
    code, out, _ = run(["invariants", "1", "2", "3", "4", "5"], capsys)
    assert code == 0
    assert out == (
        "lines: [1,2,3,4,5]\n"
        "span rank: 5\n"
        "perp rank: 2\n"
        "perp parity: odd\n"
        "h1 torsion: []\n"
        "h1 free rank: 0\n"
    )


def test_invariants_empty(capsys):
    code, out, _ = run(["invariants", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["lines"] == []
    assert payload["span_rank"] == 0
    assert payload["perp_rank"] == 7
    assert payload["perp_parity"] == "odd"


def test_invariants_csv(capsys):
    code, out, _ = run(
        ["invariants", "1", "2", "3", "4", "21", "26", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert "perp_parity,even" in lines
    assert "h1_torsion," in lines  # trivial torsion renders as an empty value


def test_invariants_rejects_bad_lines(capsys):
    code, _, err = run(["invariants", "28"], capsys)
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(["invariants", "3", "3"], capsys)
    assert code == 2
    assert err.startswith("error:")


# --------------------------------------------------------------- export-gap


def test_export_gap(capsys):
    code, out, _ = run(["export-gap"], capsys)
    assert code == 0
    assert out.splitlines() == EXPECTED_CYCLES


# -------------------------------------------- pipeline commands (shared ctx)


def test_pairs_text(ctx, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_context", lambda workers: ctx)
    code, out, _ = run(["pairs", "--workers", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pair 1: [1,2,3,4,5] / [1,2,3,4,21]"
    assert "  orbit sizes: 432 / 216" in lines
    assert "  perp parity: odd / even" in lines
    assert "  distinguished by: perp_parity" in lines
    assert "pair 2: [1,2,3,4,5,27] / [1,2,3,4,21,26]" in lines
    assert "  h1 torsion: [2] / []" in lines
    assert "  distinguished by: perp_parity, h1_torsion" in lines
    assert lines[-1] == "match: PASS"


def test_pairs_json(ctx, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_context", lambda workers: ctx)
    code, out, _ = run(["pairs", "--format", "json", "--workers", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["corollary_holds"] is True
    pair1, pair2 = payload["pairs"]
    assert pair1["members"] == [[1, 2, 3, 4, 5], [1, 2, 3, 4, 21]]
    assert pair1["orbit_sizes"] == [432, 216]
    assert pair1["distinguished_by"] == ["perp_parity"]
    assert pair1["is_zariski_tuple"] is True
    assert pair2["members"] == [[1, 2, 3, 4, 5, 27], [1, 2, 3, 4, 21, 26]]
    assert pair2["orbit_sizes"] == [432, 432]
    assert pair2["distinguished_by"] == ["perp_parity", "h1_torsion"]


def test_pairs_csv(ctx, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_context", lambda workers: ctx)
    code, out, _ = run(["pairs", "--format", "csv", "--workers", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pair,member,orbit_size,perp_parity,h1_torsion,h1_free_rank"
    assert lines[1] == "1,1 2 3 4 5,432,odd,,0"
    assert lines[4] == "2,1 2 3 4 21 26,432,even,,0"
    assert len(lines) == 5


def test_pairs_fails_against_other_expectations(ctx, wrong_expectations, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_context", lambda workers: ctx)
    code, out, _ = run(["pairs", "--workers", "1"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "match: FAIL" in lines
    diffs = [ln[len("  diff: "):] for ln in lines if ln.startswith("  diff: ")]
    failing = [r for r in pair_checks(ctx, wrong_expectations) if not r.passed]
    assert [r.number for r in failing] == [6, 7]
    assert diffs == [r.detail for r in failing]
    assert diffs == [
        "orbit of [1, 2, 3, 4, 21] has size 216 != 217",
        "h1 torsion of [1, 2, 3, 4, 5, 27] is [2], expected [3]",
    ]


def test_classify_text(ctx, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "enumerate_all", lambda group, workers=1: ctx.records
    )
    code, out, _ = run(["classify", "--workers", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orbits: 5486"
    assert lines[1] == "types: 5484"
    assert lines[2] == "fibers with more than one orbit: 2"
    assert any("[1,2,3,4,5] [1,2,3,4,21]" in ln for ln in lines[3:])


def test_verify_text(ctx, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda workers: run_all(ctx=ctx))
    code, out, _ = run(["verify", "--workers", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(ln.startswith("PASS") for ln in lines[:10])
    assert lines[-1] == "10/10 checks passed"


def test_verify_json(ctx, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda workers: run_all(ctx=ctx))
    code, out, _ = run(["verify", "--format", "json", "--workers", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [r["number"] for r in payload] == list(range(1, 11))
    assert all(r["passed"] for r in payload)


# ------------------------------------------------------------- end to end


def test_verify_subprocess_end_to_end():
    # the child imports the same weyl27 as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weyl27.cli", "verify", "--workers", "1"],
        capture_output=True,
        text=True,
        timeout=900,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "10/10 checks passed"
    assert lines[0].startswith("PASS  1")
