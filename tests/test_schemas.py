"""Schema library wiring: heads, steps, specialization, instantiation."""

from __future__ import annotations

import pytest

from collabref import NameSource, PlanError, build_library
from collabref.schemas import SchemaLibrary, StepKind, _parse_library, _template, check_primitive_act
from collabref.terms import Compound, Lam, TermReader, read_term, variables_of, visit


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
    assert lib.is_abstract("modifiers")
    assert lib.is_abstract("modifier")
    assert not lib.is_abstract("headnoun")
    assert set(lib.specializations["modifiers"]) == {"modifiers-terminate", "modifiers-recurse"}
    assert set(lib.specializations["modifier"]) == {"modifier-absolute", "modifier-relative"}
    assert lib.parent_of("modifier-relative") == "modifier"
    assert lib.parent_of("refer") is None


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
    check_primitive_act(read_term("s-attrib(e1, lambda(X, category(X, c)))", names))
    with pytest.raises(PlanError):
        check_primitive_act(read_term("category(fern1, creature)", names))
    with pytest.raises(PlanError):
        check_primitive_act(read_term("s-refer(e1, extra)", names))


def test_duplicate_schema_names_rejected(names):
    from collabref.schemas import ActionSchema, SchemaLibrary

    head = read_term("thing(X)", names)
    a = ActionSchema("thing", head, (), None)
    with pytest.raises(PlanError):
        SchemaLibrary([a, a])


# -- the library template ----------------------------------------------------

def _lambda_params(lib):
    found = []

    def note(x, _bound):
        if isinstance(x, Lam):
            found.extend(x.params)

    for sc in lib.by_name.values():
        for t in [sc.head, sc.effect] + [st.term for st in sc.steps]:
            if t is not None:
                visit(t, note)
    return found


@pytest.mark.parametrize("start", [1, 2, 88, 1000])
def test_library_copy_equals_a_fresh_parse(start):
    build_library(NameSource())  # the template exists from here on
    copied, parsed = NameSource(start), NameSource(start)
    lib = build_library(copied)
    direct = SchemaLibrary(_parse_library(parsed))
    assert lib.order == direct.order
    assert lib.by_name == direct.by_name  # Var uids and names included
    assert _lambda_params(lib) == _lambda_params(direct)
    assert _lambda_params(lib)
    assert copied.next_id() == parsed.next_id()


def test_library_text_is_read_once_per_process(monkeypatch):
    _template.cache_clear()
    reads = []
    real = TermReader.read
    monkeypatch.setattr(TermReader, "read", lambda self, text: reads.append(text) or real(self, text))
    build_library(NameSource())
    assert len(reads) == 85
    build_library(NameSource())
    build_library(NameSource(50))
    assert len(reads) == 85


def test_libraries_from_one_name_source_share_no_variable(names):
    def uids(lib):
        out = {p.uid for p in _lambda_params(lib)}
        for sc in lib.by_name.values():
            for t in [sc.head, sc.effect] + [st.term for st in sc.steps]:
                if t is not None:
                    out.update(v.uid for v in variables_of(t))
        return out

    first, second = uids(build_library(names)), uids(build_library(names))
    assert first and second
    assert first.isdisjoint(second)
