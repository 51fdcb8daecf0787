"""Schema library wiring: heads, steps, specialization, instantiation."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from collabref import NameSource, PlanError, build_library
from collabref import schemas
from collabref.schemas import SchemaLibrary, StepKind, _library, _parse_library
from collabref.terms import (
    Compound, Lam, ListTerm, TermReader, Var, canon, variables_of, visit,
)


def test_library_holds_the_expected_schemas(names):
    lib = build_library(names)
    for name in [
        "refer",
        "describe",
        "headnoun",
        "modifiers",
        "modifiers-terminate",
        "modifiers-recurse",
        "modifier",
        "modifier-absolute",
        "modifier-relative",
        "accept-plan",
        "reject-plan",
        "postpone-plan",
        "replace-plan",
        "expand-plan",
    ]:
        assert lib.get(name).name == name
    with pytest.raises(PlanError):
        lib.get("no-such-schema")


def test_abstract_schemas_and_their_specializations(names):
    lib = build_library(names)
    assert lib.get("modifiers").abstract
    assert lib.get("modifier").abstract
    assert not lib.get("headnoun").abstract
    assert set(lib.specializations["modifiers"]) == {"modifiers-terminate", "modifiers-recurse"}
    assert set(lib.specializations["modifier"]) == {"modifier-absolute", "modifier-relative"}
    assert lib.get("modifier-relative").specializes == "modifier"
    assert lib.get("refer").specializes is None
    assert "modifier-relative" in lib.concrete("modifier")
    assert lib.concrete("refer") == ["refer"]


def test_effect_schemas_are_the_utterable_roots(names):
    lib = build_library(names)
    roots = {sc.name for sc in lib.effect_schemas()}
    assert roots == {
        "refer",
        "accept-plan",
        "reject-plan",
        "postpone-plan",
        "replace-plan",
        "expand-plan",
    }


def test_schemas_mentioning_agents_get_query_prefix(names):
    lib = build_library(names)
    refer = lib.get("refer")
    first, second = refer.steps[0], refer.steps[1]
    assert first.kind is StepKind.CONSTRAINT
    assert isinstance(first.term, Compound) and first.term.functor == "speaker"
    assert isinstance(second.term, Compound) and second.term.functor == "hearer"
    # a schema with no agent mention gets no prefix
    terminate = lib.get("modifiers-terminate")
    functors = [st.term.functor for st in terminate.steps if isinstance(st.term, Compound)]
    assert "speaker" not in functors


def test_instantiate_renames_consistently_and_apart(names):
    lib = build_library(names)
    one = lib.get("refer").instantiate(names)
    two = lib.get("refer").instantiate(names)
    uids_one = {v.uid for v in variables_of(one.head)}
    uids_two = {v.uid for v in variables_of(two.head)}
    assert uids_one.isdisjoint(uids_two)
    # the head entity variable reappears in the surface step of the same copy
    entity = one.head.args[0]
    refer_step = next(st for st in one.steps if st.kind is StepKind.PRIMITIVE)
    assert refer_step.term.args[0] == entity
    # and effect variables stay linked to the head's
    assert entity in variables_of(one.effect)


def test_instantiate_copies_each_compound_list_and_lambda_once_and_no_leaf(names, monkeypatch):
    headnoun = build_library(names).get("headnoun")
    parts = [headnoun.head] + [st.term for st in headnoun.steps] + [headnoun.effect]
    template = Compound("$schema", tuple(p for p in parts if p is not None))
    nodes = []
    visit(template, lambda x, _bound: nodes.append(type(x)))
    real_copy = schemas._copy
    copied = []

    def counting_copy(t, mapping):
        copied.append(type(t))
        return real_copy(t, mapping)

    monkeypatch.setattr(schemas, "_copy", counting_copy)
    copy = headnoun.instantiate(names)
    # every node but the $schema wrapper, which instantiate does not build
    assert Counter(copied) == Counter(k for k in nodes[1:] if k in (Compound, ListTerm, Lam))
    parts = [copy.head] + [st.term for st in copy.steps] + [copy.effect]
    assert canon(Compound("$schema", tuple(p for p in parts if p is not None))) == canon(template)


def test_instantiate_links_effect_only_variables_within_one_copy(names):
    lib = build_library(names)
    inst = lib.get("replace-plan").instantiate(names)
    effect_uids = {v.uid for v in variables_of(inst.effect)}
    step_uids = set()
    for st in inst.steps:
        step_uids.update(v.uid for v in variables_of(st.term))
    # the replacement plan variable occurs in both the mentals and the effect
    assert effect_uids & step_uids


def test_clarification_schemas_carry_plan_surgery_steps(names):
    lib = build_library(names)
    for name in ["replace-plan", "expand-plan"]:
        schema = lib.get(name)
        kinds = [st.kind for st in schema.steps]
        assert StepKind.MENTAL in kinds
        functors = {
            st.term.functor
            for st in schema.steps
            if isinstance(st.term, Compound)
        }
        assert {"substitute", "replan", "pick-one", "content"} <= functors
        assert schema.effect is not None


def test_primitive_act_checking(names):
    lib = build_library(names)
    assert lib.is_surface_act(TermReader(names).read("s-attrib(e1, lambda(X, category(X, c)))"))
    assert not lib.is_surface_act(TermReader(names).read("category(fern1, creature)"))
    assert not lib.is_surface_act(TermReader(names).read("s-refer(e1, extra)"))


def test_library_derives_the_vocabulary_it_once_listed_by_hand(names):
    lib = build_library(names)
    assert lib.primitives == {
        "s-refer": 1,
        "s-attrib": 2,
        "s-attrib-rel": 3,
        "s-accept": 1,
        "s-reject": 2,
        "s-postpone": 2,
        "s-actions": 2,
    }
    # in library order, so an s-actions reading tries replacing before expanding
    assert lib.meta_roots == {
        "s-accept": ["accept-plan"],
        "s-reject": ["reject-plan"],
        "s-postpone": ["postpone-plan"],
        "s-actions": ["replace-plan", "expand-plan"],
    }
    assert tuple(lib.concrete("modifier")) == ("modifier-absolute", "modifier-relative")


def test_library_parse_is_pinned(names):
    # every schema's name, step kinds and terms up to renaming (sharing
    # included), effect, abstract flag and parent, in library order
    digest = hashlib.sha256()
    for sc in build_library(names).by_name.values():
        whole = canon(Compound("$", tuple(_terms(sc))))
        key = (sc.name, [st.kind.value for st in sc.steps], sc.effect is not None, whole, sc.abstract, sc.specializes)
        digest.update(repr(key).encode() + b"\n")
    assert digest.hexdigest() == "059e9ebf5bdecd556c7ad3aae709b84c3bef5b2bfd91ce7eeb893c830f837b8d"


def test_duplicate_schema_names_rejected(names):
    from collabref.schemas import ActionSchema, SchemaLibrary

    head = TermReader(names).read("thing(X)")
    a = ActionSchema("thing", head, (), None)
    with pytest.raises(PlanError):
        SchemaLibrary([a, a])


# -- the shared library -----------------------------------------------------

def _terms(sc):
    return [sc.head] + [st.term for st in sc.steps] + ([sc.effect] if sc.effect else [])


def _uids(sc):
    """Every variable uid in a schema, lambda parameters included."""
    out = set()

    def note(x, _bound):
        if isinstance(x, Lam):
            out.update(p.uid for p in x.params)
        elif isinstance(x, Var):
            out.add(x.uid)

    for t in _terms(sc):
        visit(t, note)
    return out


def test_build_library_returns_one_shared_library(names):
    lib = build_library(names)
    assert build_library(names) is lib
    assert build_library(NameSource(50)) is lib
    assert lib.get("refer").instantiate(names) is not lib.get("refer")


def test_library_text_is_read_once_per_process(monkeypatch):
    _library.cache_clear()
    reads = []
    real = TermReader.read
    monkeypatch.setattr(TermReader, "read", lambda self, text: reads.append(text) or real(self, text))
    build_library(NameSource())
    assert len(reads) == 85
    build_library(NameSource())
    build_library(NameSource(50))
    assert len(reads) == 85


def test_template_uids_are_never_minted(names):
    lib = build_library(names)
    template = set().union(*(_uids(sc) for sc in lib.by_name.values()))
    assert template and all(uid < 0 for uid in template)
    minted = {names.fresh_var().uid for _ in range(1000)}
    minted.add(NameSource().fresh_var().uid)
    for sc in lib.by_name.values():
        minted.update(v.uid for v in sc.instantiate(names).variables)
    assert template.isdisjoint(minted)


@pytest.mark.parametrize("start", [1, 2, 88, 1000])
def test_library_copy_equals_a_fresh_parse(start):
    # the copy is the instance a state makes of each shared schema; it has
    # its own variables, so it equals a direct parse up to renaming
    lib = build_library(NameSource())
    direct = SchemaLibrary(_parse_library(NameSource(start)))
    assert list(lib.by_name) == list(direct.by_name)
    names = NameSource(start)
    for name in lib.by_name:
        inst, parsed = lib.get(name).instantiate(names), direct.get(name)
        assert [st.kind for st in inst.steps] == [st.kind for st in parsed.steps]
        assert (inst.abstract, inst.specializes) == (parsed.abstract, parsed.specializes)
        # the same terms up to renaming, sharing included
        assert canon(Compound("$", tuple(_terms(inst)))) == canon(Compound("$", tuple(_terms(parsed))))
        assert list(inst.variables) == variables_of(Compound("$", tuple(_terms(inst))))
        assert all(v.uid >= start for v in inst.variables)


def test_least_yields_count_the_cheapest_derivation(names):
    least = build_library(names).least_from
    first = {name: ys[0] for name, ys in least.items()}
    assert first["refer"] == 2  # s-refer plus a head noun
    assert first["describe"] == first["headnoun"] == 1
    assert first["modifiers"] == first["modifiers-terminate"] == 0
    assert first["modifier"] == first["modifier-absolute"] == 1
    assert first["modifier-relative"] == 3  # s-attrib-rel plus a nested refer
    assert first["modifiers-recurse"] == 1
    assert first["accept-plan"] == first["replace-plan"] == 1
    # speaker, hearer, knowref, s-refer, describe, and the end
    assert least["refer"] == (2, 2, 2, 2, 1, 0)


def test_most_yields_are_exact_only_where_nothing_recursive_is_reachable(names):
    lib = build_library(names)
    least, most = lib.least_from, lib.most_from
    unbounded = {name for name, ys in most.items() if ys[0] >= 1 << 30}
    # modifiers recurse, and a relative modifier nests a refer, which holds modifiers
    assert unbounded == {"refer", "describe", "modifiers", "modifiers-recurse", "modifier", "modifier-relative"}
    assert most["headnoun"][0] == most["modifier-absolute"][0] == 1
    assert most["modifiers-terminate"] == (0, 0)
    assert most["accept-plan"][0] == most["replace-plan"][0] == 1
    # from its describe step on, refer is unbounded; past its last step, nothing is left
    assert most["refer"][-2:] == (1 << 30, 0)
    for name, ys in most.items():
        assert len(ys) == len(least[name])
        assert all(lo <= hi for lo, hi in zip(least[name], ys))
