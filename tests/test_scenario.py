"""Scenario parsing, the scripted runner, and the command line front door."""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
from time import perf_counter

import pytest

from collabref import NameSource, ScenarioError, load_scenario, run_text
from collabref.cli import main
from collabref.scenario import run_scenario
from collabref.terms import MAX_TERM_DEPTH, is_ground, read_term

from conftest import DATA_DIR, NESTED_KINDS, SCENARIO_DIR, nested_text

SIMPLE = """\
objects: fern1 tv1
common_ground:
  category(fern1, creature)   # the only creature around
  category(tv1, television)
turns:
  user: s-refer(entity1); s-attrib(entity1, lambda(X, category(X, creature)))
  system: expect s-accept(_)
"""


def load(text):
    return load_scenario(text, NameSource())


# -- parsing ---------------------------------------------------------------

def test_simple_scenario_parses():
    sc = load(SIMPLE)
    assert sc.objects == ["fern1", "tv1"]
    assert len(sc.common_ground) == 2
    assert [t.speaker for t in sc.turns] == ["user", "system"]
    assert len(sc.turns[0].acts) == 2
    assert sc.turns[1].expect is not None


def test_comments_and_blank_lines_are_ignored():
    sc = load("# header\n\nobjects: a1\n  # indented comment\nturns:\n  user: s-refer(entity1)\n")
    assert sc.objects == ["a1"]
    assert len(sc.turns) == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("category(a1, plant)\n", "before any section"),
        ("objects: a1\nturns:\n  user: s-refer(entity1)\nprivate: f(a1)\n", "indented lines"),
        ("objects:\nturns:\n  user: s-refer(entity1)\n", "declare objects"),
        ("objects: a1 a1\nturns:\n  user: s-refer(entity1)\n", "twice"),
        ("objects: a1\npick_order: zz\nturns:\n  user: s-refer(entity1)\n", "unknown object"),
        ("objects: a1\nturns:\n  narrator: s-refer(entity1)\n", "'user:' or 'system:'"),
        ("objects: a1\nturns:\n  user:\n", "at least one act"),
        ("objects: a1\nturns:\n  user: s-refer(entity1)\n  system: mumble\n", "'run' or 'expect"),
        ("objects: a1\nturns:\n  user: s-refer(\n", ""),
        ("objects: a1\ncommon_ground:\n  justaname\nturns:\n  user: s-refer(entity1)\n", "compound"),
        ("objects: a1\ncommon_ground:\n  f(X)\nturns:\n  user: s-refer(entity1)\n", "ground"),
        ("objects: a1\ncommon_ground:\n  f(b9)\nturns:\n  user: s-refer(entity1)\n", "declared object"),
        ("objects: a1\n", "at least one turn"),
    ],
)
def test_malformed_scenarios_are_rejected(text, fragment):
    with pytest.raises(ScenarioError) as exc:
        load(text)
    assert fragment in str(exc.value)


def test_error_messages_carry_the_line_number():
    with pytest.raises(ScenarioError) as exc:
        load("objects: a1\ncommon_ground:\n  f(b9)\nturns:\n  user: s-refer(entity1)\n")
    assert "line 3" in str(exc.value)


UNBOUND_ENTITY = """\
objects: a b
common_ground:
  category(a, c)
  category(b, c)
turns:
  user: s-refer(E); s-attrib(E, lambda(X, category(X, c)))
  system: run
"""


@pytest.mark.parametrize(
    "acts",
    [
        "s-refer(E); s-attrib(E, lambda(X, category(X, c)))",
        "s-refer(entity1); s-attrib(_, lambda(X, category(X, c)))",
        "s-attrib-rel(entity1, E, lambda(X, Y, on(X, Y)))",
    ],
)
def test_referring_acts_need_constant_entities(acts):
    text = UNBOUND_ENTITY.replace(
        "s-refer(E); s-attrib(E, lambda(X, category(X, c)))", acts
    )
    with pytest.raises(ScenarioError, match="constant entity") as err:
        load(text)
    assert err.value.line == 6


FREE_IN_LAMBDA = """\
objects: a b
common_ground:
  category(a, c)
  category(b, d)
turns:
  user: s-refer(entity1); s-attrib(entity1, lambda(X, category(Y, c)))
  system: run
  user: s-accept(current)
  system: run
"""


@pytest.mark.parametrize(
    "lam, problem",
    [
        ("lambda(X, category(Y, c))", "does not use its parameter X"),
        ("lambda(X, category(a, c))", "does not use its parameter X"),
        ("lambda(X, in(X, Y))", "free variable Y"),
        ("lambda(X, in(X, _))", "free variable _"),
        ("lambda(X, Y, in(X, a))", "does not use its parameter Y"),
    ],
)
def test_user_lambdas_must_be_closed_and_use_every_parameter(lam, problem):
    text = FREE_IN_LAMBDA.replace("lambda(X, category(Y, c))", lam)
    with pytest.raises(ScenarioError, match=problem) as err:
        load(text)
    assert err.value.line == 6


def test_lambdas_quoted_in_a_clarification_are_checked_too():
    with pytest.raises(ScenarioError, match="free variable Z"):
        load(SIMPLE + "  user: s-reject(current, [s-attrib(entity1, lambda(X, f(X, Z)))])\n")


def test_cli_run_exit_two_on_a_free_variable_in_a_lambda(tmp_path, capsys):
    scenario = tmp_path / "free.scn"
    scenario.write_text(FREE_IN_LAMBDA)
    assert main(["run", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert "line 6" in captured.err
    assert "dialogue complete" not in captured.out


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("lambda(X, category(Y, c))", "lambda(X, in(X, $p0))", 6),
        ("category(b, d)", "in(b, $p0)", 4),
    ],
)
def test_reserved_placeholder_names_are_a_scenario_error(tmp_path, capsys, old, new, line):
    text = FREE_IN_LAMBDA.replace(old, new)
    with pytest.raises(ScenarioError, match="bad character") as err:
        load(text)
    assert err.value.line == line
    scenario = tmp_path / "placeholder.scn"
    scenario.write_text(text)
    assert main(["run", str(scenario)]) == 2
    assert f"line {line}" in capsys.readouterr().err


def test_acts_quoted_in_a_clarification_keep_their_variables():
    sc = load(SIMPLE + "  user: s-reject(current, [s-refer(E), s-attrib(E, lambda(X, f(X)))])\n")
    assert len(sc.turns[-1].acts) == 1


# -- running ---------------------------------------------------------------

def test_simple_scenario_resolves():
    tr = run_text(SIMPLE)
    assert tr.ok
    assert tr.resolution is not None
    assert tr.lines[0] == "turn 1 user"
    assert tr.lines[-1].startswith("dialogue complete: mutual achieve(")
    assert "fern1" in tr.lines[-1]


def test_run_text_matches_manual_load_and_run():
    names = NameSource()
    manual = run_scenario(load_scenario(SIMPLE, names), names)
    assert run_text(SIMPLE).text() == manual.text()


def test_repeated_runs_are_deterministic():
    assert run_text(SIMPLE).text() == run_text(SIMPLE).text()


def test_failed_expectation_is_reported_not_raised():
    tr = run_text(SIMPLE.replace("expect s-accept(_)", "expect s-reject(_, _)"))
    assert not tr.ok
    assert any(l.startswith("expect MISMATCH") and "wanted=s-reject" in l for l in tr.lines)
    # the dialogue itself still ran to its natural end
    assert tr.resolution is not None


def test_extra_expectation_reports_nothing():
    tr = run_text(SIMPLE + "  system: expect s-accept(_)\n")
    assert not tr.ok
    assert any(l.endswith("got=nothing") for l in tr.lines)


def test_list_pattern_matches_a_whole_utterance():
    text = SIMPLE.replace("expect s-accept(_)", "expect [s-accept(P)]")
    assert run_text(text).ok


def test_run_turn_is_unchecked():
    tr = run_text(SIMPLE.replace("expect s-accept(_)", "run"))
    assert tr.ok
    assert not any(l.startswith("expect") for l in tr.lines)


def test_current_resolves_to_the_plan_under_discussion():
    text = SIMPLE + "  user: s-accept(current)\n"
    tr = run_text(text)
    assert tr.ok and tr.resolution is not None


def test_current_before_any_plan_is_an_error():
    text = "objects: a1\nturns:\n  user: s-accept(current)\n"
    with pytest.raises(ScenarioError) as exc:
        run_text(text)
    assert "current" in str(exc.value)


def test_misunderstood_turn_ends_the_dialogue():
    text = (
        "objects: fern1\n"
        "common_ground:\n"
        "  category(fern1, creature)\n"
        "turns:\n"
        "  user: s-accept(p40404)\n"
        "  system: expect s-accept(_)\n"
    )
    tr = run_text(text)
    assert not tr.ok
    assert any(l.startswith("not understood:") for l in tr.lines)
    assert tr.lines[-1] == "dialogue ended unresolved"
    # the scripted expectation after the break is never reached
    assert not any(l.startswith("expect") for l in tr.lines)


def test_resolution_survives_a_later_misunderstanding():
    tr = run_text(SIMPLE + "  user: s-accept(p40404)\n")
    assert not tr.ok
    assert tr.resolution is not None
    assert tr.lines[-1].startswith("dialogue complete: mutual achieve(")


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
def test_bundled_scenario_passes(path):
    tr = run_text(path.read_text())
    assert tr.ok, tr.text()


# -- ids and names the transcript must not depend on -----------------------

PUBLIC_ID = re.compile(r"\b[pn]\d+\b")


def test_extra_variables_minted_before_the_run_leave_the_transcript_alone():
    names = NameSource()
    sc = load_scenario((SCENARIO_DIR / "weird_creature.scn").read_text(), names)
    for _ in range(1000):
        names.fresh_var()
    assert run_scenario(sc, names).text() == (DATA_DIR / "weird_creature_events.txt").read_text()


def test_regenerated_transcript_renumbers_only_plan_and_node_ids():
    # the transcript as it was when one counter numbered variables, plans
    # and nodes alike
    old = (DATA_DIR / "weird_creature_events_shared_counter.txt").read_text()
    new = (DATA_DIR / "weird_creature_events.txt").read_text()
    old_ids, new_ids = PUBLIC_ID.findall(old), PUBLIC_ID.findall(new)
    assert len(old_ids) == len(new_ids) > 0
    renumber: dict[str, str] = {}
    for was, now in zip(old_ids, new_ids):
        assert was[0] == now[0]
        assert renumber.setdefault(was, now) == now
    assert len(set(renumber.values())) == len(renumber)
    assert PUBLIC_ID.sub(lambda m: renumber[m.group()], old) == new


def rename_words(text: str, mapping: dict[str, str]) -> str:
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")
    return pattern.sub(lambda m: mapping[m.group()], text)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
def test_renaming_the_objects_renames_the_transcript(path):
    text = path.read_text()
    objects = load(text).objects
    # the new names sort in the reverse order of the old ones
    ranked = sorted(objects)
    renamed = {old: f"item{len(ranked) - i}" for i, old in enumerate(ranked)}
    assert not any(re.search(rf"\b{new}\b", text) for new in renamed.values())
    before = run_text(text)
    after = run_text(rename_words(text, renamed))
    assert after.ok == before.ok
    back = {new: old for old, new in renamed.items()}
    assert rename_words(after.text(), back) == before.text()


# -- command line ----------------------------------------------------------

def test_cli_run_prints_dialogue_without_bookkeeping(capsys):
    code = main(["run", str(SCENARIO_DIR / "weird_creature.scn")])
    out = capsys.readouterr().out
    assert code == 0
    assert "turn 1 user" in out
    assert "dialogue complete: mutual achieve(" in out
    for prefix in ("rule ", "belief ", "inferred ", "cstate "):
        assert not any(l.startswith(prefix) for l in out.splitlines()), prefix


def test_cli_run_trace_shows_the_machinery(capsys):
    code = main(["run", "--trace", str(SCENARIO_DIR / "weird_creature.scn")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("rule ") for l in lines)
    assert any(l.startswith("belief ") for l in lines)
    assert any(l.startswith("inferred ") for l in lines)


def test_cli_run_writes_a_transcript_file(tmp_path, capsys):
    target = tmp_path / "log.txt"
    code = main(["run", str(SCENARIO_DIR / "weird_creature.scn"), "--transcript", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    # the file keeps the bookkeeping even though stdout hides it
    assert any(l.startswith("rule ") for l in text.splitlines())
    assert text == run_text((SCENARIO_DIR / "weird_creature.scn").read_text()).text()


def test_cli_run_exit_one_on_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(SIMPLE.replace("expect s-accept(_)", "expect s-reject(_, _)"))
    assert main(["run", str(bad)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("act", ["s-accept()", "s-reject()", "s-postpone()", "s-actions()"])
def test_cli_run_a_meta_act_without_arguments_is_not_understood(tmp_path, capsys, act):
    bare = tmp_path / "bare.scn"
    bare.write_text(f"objects: a\nturns:\n  user: {act}\n")
    assert main(["run", str(bare), "--trace"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "inferred nothing" in out
    assert out[-2] == "not understood: that is about no plan I know"
    assert out[-1] == "dialogue ended unresolved"


@pytest.mark.parametrize("acts", ["x", "X"])
def test_cli_run_replacement_acts_that_are_not_a_list_are_not_understood(tmp_path, capsys, acts):
    # in a clarification, replanning must not fall back to generating acts
    text = (SCENARIO_DIR / "one_creature.scn").read_text()
    hostile = tmp_path / "hostile.scn"
    hostile.write_text(text + f"  user: s-actions(current, {acts})\n")
    assert main(["run", str(hostile)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("not understood: ")
    assert out[-1].startswith("dialogue complete: ")


def test_a_clarification_with_every_reading_in_error_does_not_hold_up():
    text = (SCENARIO_DIR / "one_creature.scn").read_text() + "  user: s-actions(current, x)\n"
    lines = run_text(text).lines
    assert [l for l in lines if l.startswith("inferred ")][-2:] == [
        "inferred p11 replace-plan error-at n12",
        "inferred p14 expand-plan error-at n15",
    ]
    assert lines[-2] == "not understood: that clarification does not hold up"


CLARIFY_A_SOUND_PLAN = """\
objects: fern1 tv1
common_ground:
  category(fern1, creature)
  category(tv1, creature)
  size(fern1, large)
  size(tv1, small)
modifier_preds: size
turns:
  user: s-refer(entity1); s-attrib(entity1, lambda(X, category(X, creature)))
  system: run
  user: s-actions(current, [s-attrib(entity1, lambda(X, size(X, large)))])
"""


def test_an_unbound_variable_of_the_effect_vouches_for_no_belief():
    # the user clarifies p17, which no one holds in error. Each reading's
    # effect, bel(system, goal(user, bel(system, bel(user, replace(p17,
    # NewPlan))))), still holds NewPlan open, which must not be taken to
    # assert bel(user, error(p17, ErrorNode))
    lines = run_text(CLARIFY_A_SOUND_PLAN).lines
    assert "cstate plan=p17 goal=knowref(system, user, entity1, fern1)" in lines
    assert [l for l in lines if l.startswith("inferred ")][-2:] == [
        "inferred p34 replace-plan error-at n35",
        "inferred p37 expand-plan error-at n38",
    ]
    assert lines[-2] == "not understood: that clarification does not hold up"


def test_an_entity_name_with_a_non_ascii_digit_is_a_plain_name():
    tr = run_text(SIMPLE.replace("fern1", "entity²"))
    assert tr.ok
    assert tr.lines[-1].endswith("knowref(system, user, entity1, entity²))")


@pytest.mark.parametrize("where", ["objects", "turn"])
def test_an_entity_number_too_long_to_read_is_a_scenario_error(tmp_path, capsys, where):
    long_name = "entity" + "7" * 5000
    text = SIMPLE.replace("fern1", long_name) if where == "objects" else SIMPLE.replace("entity1", long_name)
    with pytest.raises(ScenarioError, match="entity number of 5000 digits"):
        run_text(text)
    hostile = tmp_path / "long.scn"
    hostile.write_text(text)
    assert main(["run", str(hostile)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# An object named like a plan id: the user model's error(p1, n3) would be
# read as a judgment of the user's own plan p1, and the user's rejection
# would retract achieve(p1, ...) of it.
MINTED_OBJECT = """\
objects: p1 fern1
common_ground:
  category(fern1, creature)
user_model:
  error(p1, n3)
turns:
  user: s-refer(entity1); s-attrib(entity1, lambda(X, category(X, creature)))
  system: run
  user: s-reject(current, [s-refer(entity1)])
  system: run
"""


def test_an_object_named_like_a_plan_id_is_a_scenario_error(tmp_path, capsys):
    with pytest.raises(ScenarioError, match="object name p1 has the form of a plan or node id") as err:
        load(MINTED_OBJECT)
    assert err.value.line == 1
    scenario = tmp_path / "minted.scn"
    scenario.write_text(MINTED_OBJECT)
    assert main(["run", str(scenario), "--trace"]) == 2
    captured = capsys.readouterr()
    assert "line 1" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "old, new, line, fragment",
    [
        ("objects: fern1 tv1", "objects: fern1\n  tv1 n22", 2, "object name n22"),
        ("s-refer(entity1); s-attrib(entity1,", "s-refer(p7); s-attrib(p7,", 6, "entity name p7"),
        ("s-attrib(entity1, lambda(X, category(X, creature)))",
         "s-attrib-rel(entity1, n12, lambda(X, Y, on(X, Y)))", 6, "entity name n12"),
    ],
)
def test_objects_and_entities_named_like_minted_ids_are_scenario_errors(old, new, line, fragment):
    with pytest.raises(ScenarioError, match=fragment) as err:
        load(SIMPLE.replace(old, new))
    assert err.value.line == line


def test_names_that_only_start_like_minted_ids_load():
    sc = load(SIMPLE.replace("objects: fern1 tv1", "objects: fern1 tv1 p1x pen1 n p"))
    assert sc.objects[2:] == ["p1x", "pen1", "n", "p"]


def test_cli_run_exit_two_on_scenario_error(tmp_path, capsys):
    broken = tmp_path / "broken.scn"
    broken.write_text("turns:\n  user: s-refer(entity1)\n")
    assert main(["run", str(broken)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_exit_two_on_unbound_entity(tmp_path, capsys):
    unbound = tmp_path / "unbound.scn"
    unbound.write_text(UNBOUND_ENTITY)
    assert main(["run", str(unbound)]) == 2
    assert "line 6" in capsys.readouterr().err


def test_cli_run_exit_two_on_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.scn")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_exit_two_on_a_scenario_file_that_is_not_utf8(tmp_path, capsys, command):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"objects: a\xff\xfe\n")
    assert main([command, str(bad if command == "run" else tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "utf-8" in err and "Traceback" not in err


@pytest.mark.parametrize("broken", [
    "turns:\n  user: s-refer(entity1)\n",  # fails to load
    "objects: a1\nturns:\n  user: s-accept(current)\n",  # fails while it runs
], ids=["load", "run"])
def test_cli_check_names_the_file_that_fails_to_load(tmp_path, capsys, broken):
    (tmp_path / "a_good.scn").write_text(SIMPLE)
    (tmp_path / "b_broken.scn").write_text(broken)
    assert main(["check", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "ok   a_good.scn" in captured.out
    assert captured.err.startswith(f"error: {tmp_path / 'b_broken.scn'}: ")


@pytest.mark.parametrize("node, clarification", [
    ("f(x)", "s-actions(current, [s-attrib(entity1, lambda(X, category(X, creature)))])"),
    ("zz", "s-actions(current, [s-attrib(entity1, lambda(X, category(X, creature)))])"),
    ("zz", "s-reject(current, [s-refer(entity1)])"),
], ids=["content-of-a-compound", "content-of-no-node", "yield-of-no-node"])
def test_cli_a_clarification_at_a_node_the_plan_lacks_is_not_understood(node, clarification):
    # the user model blames plan p1 at a node it does not have, so the
    # clarification's yield or content lookup must find no solution. A
    # scenario file can no longer name an object p1, which is how it once
    # held this belief, so the belief is added to the loaded scenario.
    names = NameSource()
    sc = load_scenario(
        "objects: fern1\n"
        "common_ground:\n  category(fern1, creature)\n"
        "turns:\n"
        "  user: s-refer(entity1); s-attrib(entity1, lambda(X, category(X, creature)))\n"
        f"  user: {clarification}\n",
        names,
    )
    sc.user_model.append(read_term(f"error(p1, {node})", names))
    transcript = run_scenario(sc, names)
    assert not transcript.ok  # `collabref run` exits 1
    assert transcript.lines[-2].startswith("not understood: ")
    assert transcript.lines[-1] == "dialogue ended unresolved"


def nested_scenario(act_depth=3, fact_depth=2):
    """A scenario whose line 4 fact and line 6 user act nest that deep.

    The depth counts the structures around the innermost leaf: in
    `s-attrib(entity1, lambda(X, g(X)))` the last X is three levels down.
    """
    fact = "assessment(fern1, " + "g(" * (fact_depth - 1) + "a" + ")" * (fact_depth - 1) + ")"
    body = "g(" * (act_depth - 2) + "X" + ")" * (act_depth - 2)
    return (
        "objects: fern1\n"
        "common_ground:\n"
        "  category(fern1, creature)\n"
        f"  {fact}\n"
        "turns:\n"
        f"  user: s-refer(entity1); s-attrib(entity1, lambda(X, {body}))\n"
        "  system: run\n"
    )


@pytest.mark.parametrize("depth", [450, 3000])
def test_deeply_nested_act_is_a_scenario_error(depth):
    with pytest.raises(ScenarioError, match="nested deeper") as err:
        load(nested_scenario(act_depth=depth))
    assert err.value.line == 6


@pytest.mark.parametrize("depth", [450, 3000])
def test_deeply_nested_fact_is_a_scenario_error(depth):
    with pytest.raises(ScenarioError, match="nested deeper") as err:
        load(nested_scenario(fact_depth=depth))
    assert err.value.line == 4


@pytest.mark.parametrize("where", ["act_depth", "fact_depth"])
@pytest.mark.parametrize("depth", [450, 3000])
def test_cli_run_exit_two_on_deep_nesting(tmp_path, capsys, where, depth):
    deep = tmp_path / "deep.scn"
    deep.write_text(nested_scenario(**{where: depth}))
    assert main(["run", str(deep)]) == 2
    assert "nested deeper" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["act_depth", "fact_depth"])
def test_terms_at_the_nesting_limit_load_and_run(where):
    text = nested_scenario(**{where: MAX_TERM_DEPTH})
    sc = load(text)
    assert len(sc.turns) == 2
    assert run_text(text).lines[-1].startswith("dialogue ")
    with pytest.raises(ScenarioError, match="nested deeper"):
        load(nested_scenario(**{where: MAX_TERM_DEPTH + 1}))


@pytest.mark.parametrize("kind", NESTED_KINDS)
@pytest.mark.parametrize("where, line", [("fact", 4), ("act", 6)])
def test_one_level_past_the_nesting_limit_is_a_scenario_error(tmp_path, capsys, kind, where, line):
    # 101 nested f( or lambda(X, around a constant, 102 nested [, 102 = operands
    deep = nested_text(kind, MAX_TERM_DEPTH + 1)
    fact, act = (deep, "s-accept(p1)") if where == "fact" else ("size(fern1, small)", deep)
    text = (
        "objects: fern1\n"
        "common_ground:\n"
        "  category(fern1, creature)\n"
        f"  {fact}\n"
        "turns:\n"
        f"  user: s-refer(entity1); s-attrib(entity1, lambda(X, category(X, creature))); {act}\n"
        "  system: run\n"
    )
    with pytest.raises(ScenarioError, match="nested deeper") as err:
        load(text)
    assert err.value.line == line
    path = tmp_path / "deep.scn"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert f"line {line}: term nested deeper than {MAX_TERM_DEPTH} levels" in err_text
    assert "Traceback" not in err_text


def test_cli_check_reports_every_bundled_scenario(capsys):
    code = main(["check", str(SCENARIO_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == len(list(SCENARIO_DIR.glob("*.scn")))
    assert all(l.startswith("ok") for l in lines)
    assert any("(resolved)" in l for l in lines)
    assert any("(unresolved)" in l for l in lines)


def test_cli_check_flags_failures(tmp_path, capsys):
    good = SIMPLE
    bad = SIMPLE.replace("expect s-accept(_)", "expect s-reject(_, _)")
    (tmp_path / "a_good.scn").write_text(good)
    (tmp_path / "b_bad.scn").write_text(bad)
    code = main(["check", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "ok   a_good.scn" in out
    assert "FAIL b_bad.scn" in out


def test_cli_check_empty_directory(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert "no .scn files" in capsys.readouterr().err


# -- bounded fuzz ----------------------------------------------------------------

FUZZ_MARKS = "()[],=_-$"
FUZZ_CASES = 300
# far above any case's run time (tens of ms); a case over it is a near-hang
FUZZ_CASE_SECONDS = 2.0
# sha256 over every case's transcript text, or its ScenarioError message
FUZZ_DIGEST = "4c35fbd0a7c4a777eaf4f80b0b5f94c295785eb997882e0412fe79b557c83ba3"


def mutate(text: str, rng: random.Random) -> str:
    """One to three edits: delete or insert a mark from FUZZ_MARKS, or
    duplicate, drop or swap lines."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["delete", "insert", "duplicate", "drop", "swap"])
        if op in ("delete", "insert"):
            flat = "\n".join(lines)
            marks = [i for i, c in enumerate(flat) if c in FUZZ_MARKS]
            if op == "delete" and marks:
                i = rng.choice(marks)
                flat = flat[:i] + flat[i + 1:]
            else:
                i = rng.randrange(len(flat) + 1)
                flat = flat[:i] + rng.choice(FUZZ_MARKS) + flat[i:]
            lines = flat.split("\n")
        elif op == "duplicate":
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
        elif op == "drop" and len(lines) > 1:
            del lines[rng.randrange(len(lines))]
        else:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def test_mutated_scenarios_end_in_a_scenario_error_or_a_transcript():
    rng = random.Random(20261018)
    texts = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.scn"))]
    outcomes: Counter = Counter()
    said = hashlib.sha256()
    for _ in range(FUZZ_CASES):
        text = mutate(rng.choice(texts), rng)
        start = perf_counter()
        try:
            transcript = run_text(text)
        except ScenarioError as err:
            outcomes["rejected"] += 1
            said.update(f"error: {err}\n".encode())
        else:
            said.update(transcript.text().encode())
            resolved = transcript.resolution is not None
            outcomes["resolved" if resolved else "unresolved"] += 1
            assert not resolved or is_ground(transcript.resolution), text
        elapsed = perf_counter() - start
        assert elapsed < FUZZ_CASE_SECONDS, (elapsed, text)
    assert min(outcomes["rejected"], outcomes["resolved"], outcomes["unresolved"]) > 20, outcomes
    # everything the engine said, pinned: any change to a transcript or an
    # error message shows up here
    assert said.hexdigest() == FUZZ_DIGEST
