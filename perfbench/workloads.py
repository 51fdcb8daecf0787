"""Seeded request sets for the three workloads, and the check of each output.

A request set is a list of passes. One pass holds one request per cell
of the workload, so every pass has the same mix of costs.

- ``dialogue``: the three bundled scenarios, in a seeded order.
- ``describe``: worlds of 5, 10, 20 and 40 objects, with a target the
  oracle says can be described.
- ``refuse``: worlds of 10, 20 and 40 objects, with a target the oracle
  says no description singles out.

A pass has 3 or 15 requests. With an odd count the median request of whole
passes sits inside one cell's share rather than between two, and with 15
so does the 90th percentile, which keeps both steady from seed to seed.

Worlds draw from ``tests/worldgen.py``'s pools but have exactly N objects
and no relations, because ``minimal_modifier_count`` ignores relations. The
oracle answer is computed here, in set-up, from ``worldgen`` itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from worldgen import ATTRIBUTE_POOL, CATEGORY_POOL, World, minimal_modifier_count

# A cell is (objects, attributes, categories). Construction cost grows
# steeply with objects and attributes and shifts with categories, so each
# pass fixes all three and the seed draws only the values, the attribute and
# category names and the target. Cells are chosen so that the pass's median
# and 90th-percentile requests fall in cells whose cost varies little from
# world to world. Four-attribute worlds of 20 and 40 objects are left out:
# one such request costs 0.5 to 3 s and varies by a factor of two between
# worlds of the same cell, so a few of them set a run's throughput.
CELLS = {
    "describe": [
        (5, 1, 3), (5, 2, 2), (5, 3, 2), (5, 4, 2),
        (10, 1, 3), (10, 2, 2), (10, 2, 3), (10, 3, 2), (10, 3, 3), (10, 4, 2),
        (20, 1, 3), (20, 2, 2), (20, 3, 3),
        (40, 2, 3), (40, 3, 2),
    ],
    "refuse": [
        (10, 1, 1), (10, 1, 3), (10, 2, 3), (10, 3, 2),
        (20, 1, 1), (20, 1, 3), (20, 2, 2), (20, 2, 3), (20, 3, 2),
        (40, 1, 1), (40, 1, 3), (40, 2, 2), (40, 2, 2), (40, 2, 3), (40, 3, 2),
    ],
}
SCENARIOS = ("weird_creature", "one_creature", "no_creature")
PASSES = 24
WORLD_TRIES = 10_000


@dataclass
class Request:
    """One unit of work: a scenario run, or one construction in a world."""

    kind: str
    name: str
    world: World | None = None
    target: str = ""
    shortest: int | None = None

    def key(self) -> str:
        """Text that names the request exactly, for the request-set digest."""
        if self.world is None:
            return f"{self.kind} {self.name}"
        w = self.world
        cats = " ".join(w.categories[o] for o in w.objects)
        attrs = "; ".join(
            f"{p}: " + " ".join(w.attributes[p][o] for o in w.objects) for p in w.attributes
        )
        return f"{self.kind} {len(w.objects)} objects target={self.target} [{cats}] {attrs}"


def make_world(rng: random.Random, n: int, attribute_count: int, category_count: int) -> World:
    objects = [f"thing{i + 1}" for i in range(n)]
    cats = rng.sample(CATEGORY_POOL, category_count)
    categories = {o: rng.choice(cats) for o in objects}
    chosen = rng.sample(list(ATTRIBUTE_POOL), attribute_count)
    attributes = {p: {o: rng.choice(ATTRIBUTE_POOL[p]) for o in objects} for p in chosen}
    return World(objects, categories, attributes)


def world_request(rng: random.Random, kind: str, cell: tuple[int, int, int]) -> Request:
    """Draw worlds until one has a target of the kind wanted; pick one.

    Only objects whose category and attribute values are shared with
    another object (for ``refuse``) or with none (for ``describe``) are put
    to the oracle, since using every attribute is the most a description
    can do; the oracle still decides.
    """
    for _ in range(WORLD_TRIES):
        world = make_world(rng, *cell)
        signature = {
            o: (world.categories[o],) + tuple(world.attributes[p][o] for p in world.preds())
            for o in world.objects
        }
        shared = Counter(signature.values())
        candidates = [o for o in world.objects if (shared[signature[o]] > 1) == (kind == "refuse")]
        for target in rng.sample(candidates, len(candidates)):
            shortest = minimal_modifier_count(world, target)
            if (shortest is None) == (kind == "refuse"):
                return Request(kind, "{}-{}-{}-{}".format(kind, *cell), world, target, shortest)
    raise RuntimeError(f"no {kind} target in {WORLD_TRIES} worlds of cell {cell}")


def make_passes(kind: str, seed: int) -> list[list[Request]]:
    rng = random.Random(f"{kind}:{seed}")
    if kind == "dialogue":
        passes = []
        for _ in range(PASSES):
            order = list(SCENARIOS)
            rng.shuffle(order)
            passes.append([Request(kind, name) for name in order])
        return passes
    return [
        [world_request(rng, kind, cell) for cell in CELLS[kind]]
        for _ in range(PASSES)
    ]


def read_scenarios(root: Path) -> tuple[dict[str, str], str]:
    """The bundled scenario texts and the pinned golden transcript."""
    folder = root / "src" / "collabref" / "scenarios"
    texts = {name: (folder / f"{name}.scn").read_text() for name in SCENARIOS}
    golden = (root / "tests" / "data" / "weird_creature_events.txt").read_text()
    return texts, golden


# ---------------------------------------------------------------------------
# Running one request. Each returns (output matches the reference, output
# text). Engine calls go through attributes of the package module passed in
# as ``api``, so a tracer that rebinds them sees every call.
# ---------------------------------------------------------------------------

def run_dialogue(api, req: Request, new_names, texts: dict[str, str], golden: str):
    """Load then run one scenario, as ``collabref run`` and ``check`` do."""
    names = new_names()
    scenario = api.load_scenario(texts[req.name], names)
    transcript = api.run_scenario(scenario, names)
    text = transcript.text()
    if req.name == "weird_creature":
        ok = text == golden
    else:
        resolved = transcript.resolution is not None
        ok = transcript.ok and resolved == (req.name == "one_creature")
    return ok, text


def _state(api, world: World, names):
    library = api.build_library(names)
    base = api.BeliefBase(world.objects, names, world.preds(), [])
    reader = api.TermReader(names)
    for line in world.fact_lines():
        base.assert_prop(api.Bucket.COMMON_GROUND, reader.read(line))
    return api.MentalState(base, library, names, [])


def _construct(api, req: Request, names):
    speaker = _state(api, req.world, names)
    speaker.ctx.persp = api.Perspective("system", "user")
    mk, Const = api.mk, api.Const
    goal = mk("bel", api.USER, mk("goal", api.SYSTEM, mk(
        "knowref", api.USER, api.SYSTEM, names.fresh_var("E"), Const(req.target))))
    return api.construct(speaker.ctx, goal)


def run_describe(api, req: Request, new_names):
    """Construct a description, then have a fresh hearer re-read and infer it."""
    acts = _construct(api, req, new_names()).yield_of()
    said = [api.format_term(a) for a in acts]
    hearer_names = new_names()
    hearer = _state(api, req.world, hearer_names)
    reader = api.TermReader(hearer_names)
    heard = [reader.read(text) for text in said]
    hearer_names.note_entity(next(a.args[0].name for a in heard if a.functor == "s-refer"))
    echo = hearer.hearer_step(heard)
    ok = (
        len(acts) == 2 + req.shortest
        and echo.kind is api.Verdict.UNDERSTOOD
        and hearer.ctx.plan_judgments.get(echo.plan.id) == ("achieve", api.Const(req.target))
    )
    return ok, "\n".join(["said " + "; ".join(said)] + hearer.log.lines)


def run_refuse(api, req: Request, new_names):
    """Construct for an indistinguishable target; only a refusal is right."""
    try:
        acts = _construct(api, req, new_names()).yield_of()
    except api.NoPlanError as err:
        return True, f"refused: {err}"
    return False, "said " + "; ".join(api.format_term(a) for a in acts)
