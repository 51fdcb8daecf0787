"""Shared fixtures and world builders for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from collabref import (
    BeliefBase,
    Bucket,
    MentalState,
    NameSource,
    TermReader,
    build_library,
)

NESTED_KINDS = ("compound", "list", "chain", "lambda")


def nested_text(kind: str, depth: int) -> str:
    """Term text whose innermost term sits under `depth` enclosing
    structures of one kind: `f(`, `[`, `=` operands or `lambda(X, `."""
    if kind == "compound":
        return "f(" * depth + "a" + ")" * depth
    if kind == "list":
        return "[" * (depth + 1) + "]" * (depth + 1)
    if kind == "chain":
        return " = ".join(["a"] * (depth + 1))
    return "lambda(X, " * depth + "a" + ")" * depth


GOLDEN_OBJECTS = ["antenna1", "fern1", "tv1", "corner1"]
GOLDEN_FACTS = [
    "category(antenna1, creature)",
    "category(fern1, creature)",
    "category(tv1, television)",
    "category(corner1, corner)",
    "assessment(antenna1, weird)",
    "assessment(fern1, weird)",
    "on(antenna1, tv1)",
    "in(fern1, corner1)",
]

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "collabref" / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"


def make_state(
    objects: list[str],
    facts: list[str],
    modifier_preds: list[str] | None = None,
    rel_preds: list[str] | None = None,
    pick_order: list[str] | None = None,
) -> MentalState:
    """Build a ready-to-run engine over the given common-ground facts."""
    names = NameSource()
    library = build_library(names)
    base = BeliefBase(objects, names, modifier_preds or [], rel_preds or [])
    for line in facts:
        base.assert_prop(Bucket.COMMON_GROUND, TermReader(names).read(line))
    return MentalState(base, library, names, pick_order or [])


def rule_numbers(lines: list[str]) -> list[int]:
    """The numbers of the rules an event log records firing, in order."""
    return [int(line.split()[1]) for line in lines if line.startswith("rule ")]


def golden_state() -> MentalState:
    return make_state(
        GOLDEN_OBJECTS,
        GOLDEN_FACTS,
        modifier_preds=["assessment"],
        rel_preds=["in", "on"],
        pick_order=["fern1", "antenna1"],
    )


def opening_request(ms: MentalState) -> list:
    """The user's opening description acts, entity already noted."""
    reader = TermReader(ms.names)
    acts = [
        reader.read("s-refer(entity1)"),
        reader.read("s-attrib(entity1, lambda(X, assessment(X, weird)))"),
        reader.read("s-attrib(entity1, lambda(X, category(X, creature)))"),
    ]
    ms.names.note_entity("entity1")
    return acts


@pytest.fixture
def names() -> NameSource:
    return NameSource()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260817)


@pytest.fixture
def golden() -> MentalState:
    return golden_state()
