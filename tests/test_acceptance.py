"""Acceptance gate: every shipped claim, one pass/fail line each.

Run with -s to see the printed status lines alongside the assertions.
"""

import json
from pathlib import Path

import pytest

from weyl27 import checks, invariants, lattice
from weyl27.checks import run_all
from weyl27.expectations import load_expectations
from weyl27.invariants import invariant_report
from weyl27.orbits import mask_from_lines

CRITERIA = [
    (1, "group-construction"),
    (2, "line-system"),
    (3, "orbit-table"),
    (4, "power-set-partition"),
    (5, "type-fibers"),
    (6, "pair-orbit-sizes"),
    (7, "pair-invariants"),
    (8, "disjoint-five-orbits"),
    (9, "property-suites"),
    (10, "deformation-equals-type"),
]


@pytest.fixture(scope="module")
def results(ctx):
    return run_all(ctx=ctx)


def test_exactly_ten_criteria(results):
    assert [(r.number, r.name) for r in results] == CRITERIA


@pytest.mark.parametrize(("number", "name"), CRITERIA, ids=[c[1] for c in CRITERIA])
def test_criterion(results, number, name):
    result = results[number - 1]
    print(result.line())
    assert result.passed, result.detail


def test_property_suite_fails_a_non_canonical_certificate(ctx, monkeypatch):
    # packing the graph in its own vertex order labels one class many ways;
    # check 9's brute force must catch it
    def identity_packing(adj):
        return f"{len(adj)}:{','.join(map(str, adj))}"

    monkeypatch.setattr(checks, "canonical_certificate", identity_packing)
    (result,) = checks._run(ctx, load_expectations(), [9])
    assert not result.passed
    assert "one isomorphism class got two certificates (n=3)" in result.detail


def test_snf_suite_product_refuses_mismatched_shapes():
    # check 9 multiplies the Smith transforms back; a transform of the wrong
    # shape must raise instead of giving a truncated product
    assert checks._matmul([[1, 2], [3, 4]], [[5, 6, 7], [8, 9, 10]]) == [[21, 24, 27], [47, 54, 61]]
    assert checks._matmul([[], []], []) == [[], []]
    with pytest.raises(ValueError):
        checks._matmul([[1, 2], [3]], [[5], [6]])
    with pytest.raises(ValueError):
        checks._matmul([[1, 2]], [[5, 6], [7]])


def test_property_suite_fails_a_wrong_parity_rule(ctx, monkeypatch):
    # the reports and check 9's box comparison run the one parity rule, so a
    # wrong rule changes a reported parity and check 9 catches it
    def always_even(vectors, lat):
        return True

    odd_member = mask_from_lines([1, 2, 3, 4, 5])
    assert invariant_report(odd_member).perp_parity == "odd"
    monkeypatch.setattr(lattice, "is_even", always_even)
    monkeypatch.setattr(invariants, "is_even", always_even)
    assert invariant_report(odd_member).perp_parity == "even"
    (result,) = checks._run(ctx, load_expectations(), [9])
    assert not result.passed
    assert "is_even disagrees with box evaluation" in result.detail


def test_disjoint_five_failure_names_the_expected_count(ctx, tmp_path, monkeypatch):
    shipped = Path(checks.__file__).parent / "data" / "expectations.json"
    raw = json.loads(shipped.read_text(encoding="utf-8"))
    raw["disjoint_five_orbit_sizes"] = [432, 216, 216]
    path = tmp_path / "expectations.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setenv("WEYL27_EXPECTATIONS", str(path))
    (result,) = checks._run(ctx, load_expectations(), [8])
    assert not result.passed
    assert result.detail == "2 orbits of five disjoint lines, expected 3"

