"""Scenario parsing, the scripted runner, and the command line front door."""

from __future__ import annotations

import pytest

from collabref import NameSource, ScenarioError, load_scenario, run_text
from collabref.cli import main
from collabref.scenario import run_scenario
from collabref.terms import MAX_TERM_DEPTH

from conftest import SCENARIO_DIR

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
