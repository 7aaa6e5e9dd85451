"""Frozen expected values the pipeline is verified against.

Everything the verifier diffs against lives in one JSON file
(data/expectations.json) instead of being scattered through code, so the
provenance of every expected number is auditable in one place. The env var
WEYL27_EXPECTATIONS overrides the file path. A malformed file raises
ExpectationsError, which the CLI reports as one error line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from importlib import resources

from .lines import LINE_COUNT

ENV_VAR = "WEYL27_EXPECTATIONS"


@dataclass(frozen=True)
class PairExpectation:
    """One expected fiber of size two, with the invariant values that split it.

    Fields holding None mean the file states no expectation for that
    invariant on this pair.
    """

    members: tuple[tuple[int, ...], ...]
    orbit_sizes: tuple[int, ...]
    perp_parity: tuple[str, ...] | None
    h1_torsion: tuple[tuple[int, ...], ...] | None
    h1_free_rank: tuple[int, ...] | None


@dataclass(frozen=True)
class Expectations:
    group_order: int
    generator_cycles: tuple[str, ...]
    orbit_counts: tuple[int, ...]
    total_orbits: int
    power_set_size: int
    zariski_pairs: tuple[PairExpectation, ...]
    disjoint_five_orbit_sizes: tuple[int, ...]


class ExpectationsError(ValueError):
    """The expectations file is not valid JSON or lacks what the checks read."""


def _is_int(value) -> bool:
    """Whether value is a JSON integer: 51840.0, "51840" and true are not,
    although the first and last compare equal to an int."""
    return type(value) is int


def _integer(raw: dict, key: str, source: str) -> int:
    if not _is_int(raw[key]):
        raise ExpectationsError(f"{source}: {key} needs an integer, not {raw[key]!r}")
    return raw[key]


def _integers(raw: dict, key: str, source: str) -> tuple[int, ...]:
    values = raw[key]
    if not isinstance(values, list) or not all(map(_is_int, values)):
        raise ExpectationsError(f"{source}: {key} needs a list of integers")
    return tuple(values)


def _strings(raw: dict, key: str, source: str) -> tuple[str, ...]:
    values = raw[key]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ExpectationsError(f"{source}: {key} needs a list of strings")
    return tuple(values)


def _is_torsion(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _per_member(entry: dict, key: str, members: tuple, where: str, valid) -> tuple | None:
    """entry[key] as a tuple of one value per member, lists made tuples;
    None when the key is absent or null. Every value must pass valid."""
    values = entry.get(key)
    if values is None:
        return None
    if not isinstance(values, list) or len(values) != len(members):
        raise ExpectationsError(f"{where}: {key} needs one entry per member ({len(members)})")
    if not all(map(valid, values)):
        raise ExpectationsError(f"{where}: {key} has an entry of the wrong type")
    return tuple(tuple(v) if isinstance(v, list) else v for v in values)


def _parse(raw, source: str) -> Expectations:
    missing = [f.name for f in fields(Expectations) if f.name not in raw]
    if missing:
        raise ExpectationsError(f"{source}: missing {', '.join(missing)}")
    orbit_counts = _integers(raw, "orbit_counts", source)
    if len(orbit_counts) != LINE_COUNT + 1:
        raise ExpectationsError(
            f"{source}: orbit_counts needs one entry per size 0..{LINE_COUNT} ({LINE_COUNT + 1})"
        )
    pairs = []
    for number, entry in enumerate(raw["zariski_pairs"], start=1):
        where = f"{source}: zariski pair {number}"
        members = tuple(tuple(m) for m in entry["members"])
        for member in members:
            if len(set(member)) != len(member) or not all(
                type(x) is int and 1 <= x <= LINE_COUNT for x in member
            ):
                raise ExpectationsError(
                    f"{where}: member {list(member)} needs distinct lines in 1..{LINE_COUNT}"
                )
        orbit_sizes = _per_member(entry, "orbit_sizes", members, where, _is_int)
        if orbit_sizes is None:
            raise ExpectationsError(f"{where}: missing orbit_sizes")
        pairs.append(
            PairExpectation(
                members=members,
                orbit_sizes=orbit_sizes,
                perp_parity=_per_member(
                    entry, "perp_parity", members, where, lambda v: isinstance(v, str)
                ),
                h1_torsion=_per_member(entry, "h1_torsion", members, where, _is_torsion),
                h1_free_rank=_per_member(entry, "h1_free_rank", members, where, _is_int),
            )
        )
    return Expectations(
        group_order=_integer(raw, "group_order", source),
        generator_cycles=_strings(raw, "generator_cycles", source),
        orbit_counts=orbit_counts,
        total_orbits=_integer(raw, "total_orbits", source),
        power_set_size=_integer(raw, "power_set_size", source),
        zariski_pairs=tuple(pairs),
        disjoint_five_orbit_sizes=_integers(raw, "disjoint_five_orbit_sizes", source),
    )


def load_expectations() -> Expectations:
    """Load expectations from $WEYL27_EXPECTATIONS, or else the file shipped
    with the package. A file that is not UTF-8 JSON, or misses or mistypes a
    value the checks read, raises ExpectationsError; one that cannot be
    opened raises its OSError."""
    path = os.environ.get(ENV_VAR)
    try:
        if path:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        else:
            path = "data/expectations.json"
            text = resources.files("weyl27").joinpath(path).read_text("utf-8")
        return _parse(json.loads(text), path)
    except ExpectationsError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ExpectationsError(f"{path}: not valid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ExpectationsError(f"{path}: malformed value: {exc!r}") from None
