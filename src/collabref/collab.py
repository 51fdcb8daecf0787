"""Two agents building a referring expression together.

The system is always one of the two agents. It hears the user's acts
(plan recognition), judges the recognized plan, and records the
contribution; it speaks by adopting a goal and building a plan for it.
Between contributions a small rule set keeps the shared picture honest:

   1  speaker-has-goal                what you said, you wanted
   2  sincere-communication           what you wanted me to think you
                                      believe, you believe
   3  contributor-believes-adequate   you think your referring plan works
   4  enter-collaboration             a doubted plan opens a negotiation
   5  accept-error-judgment           a shared error verdict sticks
   6  accept-replacement              a shared repair becomes the plan
                                      under discussion
   7  mutual-acceptance               both happy means mutually happy

Rules 1-7 forward-chain after every contribution. Three more fire only
when the system is choosing what to say, first match wins, each instance
at most once ever:

   8  adopt-inform-error-goal         tell them where their plan fails
   9  adopt-replace-goal              propose a repair for the shared error
  10  adopt-accept-goal               close the negotiation

Every firing, belief change, utterance and verdict lands in the event
log in a fixed, replayable order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .beliefs import BeliefBase, Bucket, Perspective, SYSTEM, USER
from .errors import NoPlanError, NotUnderstoodError
from .planner import (
    InferenceResult,
    META_ROOTS,
    PlannerContext,
    Verdict,
    construct,
    infer,
)
from .schemas import SchemaLibrary
from .terms import (
    Compound,
    Const,
    NameSource,
    Substitution,
    Term,
    canon,
    format_term,
    mk,
)

RULE_NAMES = {
    1: "speaker-has-goal",
    2: "sincere-communication",
    3: "contributor-believes-adequate",
    4: "enter-collaboration",
    5: "accept-error-judgment",
    6: "accept-replacement",
    7: "mutual-acceptance",
    8: "adopt-inform-error-goal",
    9: "adopt-replace-goal",
    10: "adopt-accept-goal",
}

MAX_CONTRIBUTIONS_PER_TURN = 10


class EventLog:
    def __init__(self):
        self.lines: list[str] = []

    def add(self, line: str) -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class CState:
    """The clarification subdialogue: which plan is under discussion and
    what referring goal it is supposed to achieve."""

    plan: str
    goal: Term


@dataclass
class Contribution:
    speaker: str
    plan_id: str
    goal: Term
    acts: list[Term]


class MentalState:
    def __init__(
        self,
        base: BeliefBase,
        library: SchemaLibrary,
        names: NameSource,
        pick_order: list[str] | None = None,
    ):
        self.base = base
        self.names = names
        self.library = library
        self.log = EventLog()
        self.ctx = PlannerContext(
            base, library, names, Perspective("user", "system"), pick_order
        )
        self.cstate: CState | None = None
        self.last_referring: str | None = None
        self.uttered: set[str] = set()
        self.fired: set[tuple] = set()

    # -- helpers -------------------------------------------------------------

    def _assert(self, bucket: Bucket, prop: Term, s: Substitution | None = None) -> bool:
        if s is not None:
            prop = s.resolve(prop)
        added = self.base.assert_prop(bucket, prop)
        if added:
            self.log.add(f"belief + {bucket.value} {format_term(prop)}")
        return added

    def _retract(self, bucket: Bucket, pattern: Term) -> None:
        for gone in self.base.retract_matching(bucket, pattern):
            self.log.add(f"belief - {bucket.value} {format_term(gone)}")

    def _extract_goal(self, plan) -> Term:
        if plan.root_effect is None:
            raise NotUnderstoodError(f"plan {plan.id} communicates nothing")
        effect = plan.bindings.resolve(plan.root_effect)
        if (
            isinstance(effect, Compound)
            and effect.functor == "bel"
            and isinstance(effect.args[1], Compound)
            and effect.args[1].functor == "goal"
        ):
            return effect.args[1].args[1]
        raise NotUnderstoodError(f"plan {plan.id} has an odd effect shape")

    # -- hearing -------------------------------------------------------------

    def hearer_step(self, acts: list[Term]) -> InferenceResult:
        self.ctx.persp = Perspective("user", "system")
        self.log.add("observed " + "; ".join(format_term(a) for a in acts))
        is_meta = bool(acts) and isinstance(acts[0], Compound) and acts[0].functor in META_ROOTS
        expected = None
        if is_meta:
            expected = self.cstate.plan if self.cstate else self.last_referring
            target = acts[0].args[0]
            if not (isinstance(target, Const) and target.name in self.ctx.registry):
                self.log.add("inferred nothing")
                raise NotUnderstoodError("that is about no plan I know")
        result = infer(self.ctx, acts, expected)
        for plan, verdict in result.candidates:
            schema = plan.nodes[plan.root].schema
            word = "valid" if verdict.valid else f"error-at {verdict.error_node}"
            self.log.add(f"inferred {plan.id} {schema} {word}")
        if not result.candidates:
            self.log.add("inferred nothing")
        if result.kind is Verdict.NO_DERIVATION:
            raise NotUnderstoodError("no reading of that makes sense here")
        if result.kind is Verdict.AMBIGUOUS:
            raise NotUnderstoodError("too many readings of that make sense")
        if result.kind is Verdict.ERROR_AT and is_meta:
            raise NotUnderstoodError("that clarification does not hold up")
        plan = result.plan
        goal = plan.bindings.resolve(self._extract_goal(plan))
        self._record_contribution(Contribution("user", plan.id, goal, acts))
        self._apply_rules()
        return result

    # -- speaking ------------------------------------------------------------

    def speaker_step(self) -> list[list[Term]]:
        utterances: list[list[Term]] = []
        for _ in range(MAX_CONTRIBUTIONS_PER_TURN):
            goal = self._derive_goal()
            if goal is None:
                break
            self.ctx.persp = Perspective("system", "user")
            target = mk("bel", USER, mk("goal", SYSTEM, goal))
            try:
                plan = construct(self.ctx, target)
            except NoPlanError as err:
                self.log.add(f"construction failed {err}")
                continue
            acts = plan.yield_of()
            self.log.add("uttered " + "; ".join(format_term(a) for a in acts))
            spoken_goal = plan.bindings.resolve(self._extract_goal(plan))
            self._record_contribution(Contribution("system", plan.id, spoken_goal, acts))
            self._apply_rules()
            utterances.append(acts)
        return utterances

    # -- contribution bookkeeping ---------------------------------------------

    def _record_contribution(self, c: Contribution) -> None:
        self.log.add(
            f"contribution {c.speaker} plan={c.plan_id} goal={format_term(c.goal)}"
        )
        who = Const(c.speaker)
        prop = mk("plan", who, Const(c.plan_id), c.goal)
        self.uttered.add(canon(prop))
        self._assert(Bucket.COMMON_GROUND, prop)
        plan = self.ctx.registry[c.plan_id]
        if plan.nodes[plan.root].schema == "refer":
            self.last_referring = c.plan_id
            judgment = self.ctx.plan_judgments.get(c.plan_id)
            if judgment is not None:
                verdict, detail = judgment
                if verdict == "achieve":
                    self._assert(Bucket.PRIVATE, mk("achieve", Const(c.plan_id), c.goal))
                else:
                    self._assert(
                        Bucket.PRIVATE, mk("error", Const(c.plan_id), Const(detail))
                    )

    # -- rules 1-7 -----------------------------------------------------------

    def _apply_rules(self) -> None:
        changed = True
        while changed:
            changed = False
            for rule in (
                self._rule1, self._rule2, self._rule3, self._rule4,
                self._rule5, self._rule6, self._rule7,
            ):
                if rule():
                    changed = True

    def _fire(self, key: tuple, number: int, detail: Term | str) -> None:
        self.fired.add(key)
        text = detail if isinstance(detail, str) else format_term(detail)
        self.log.add(f"rule {number} {RULE_NAMES[number]} {text}")

    def _cg(self) -> list[Term]:
        return self.base.items(Bucket.COMMON_GROUND)

    def _rule1(self) -> bool:
        any_fired = False
        for prop in self._cg():
            if not (isinstance(prop, Compound) and prop.functor == "plan" and len(prop.args) == 3):
                continue
            if canon(prop) not in self.uttered:
                continue
            key = ("r1", canon(prop))
            if key in self.fired:
                continue
            derived = mk("goal", prop.args[0], prop.args[2])
            self._fire(key, 1, derived)
            self._assert(Bucket.COMMON_GROUND, derived)
            any_fired = True
        return any_fired

    def _rule2(self) -> bool:
        any_fired = False
        for prop in self._cg():
            if not (isinstance(prop, Compound) and prop.functor == "goal" and len(prop.args) == 2):
                continue
            a1, inner = prop.args
            if not (isinstance(inner, Compound) and inner.functor == "bel" and len(inner.args) == 2):
                continue
            a2, inner2 = inner.args
            if not (isinstance(inner2, Compound) and inner2.functor == "bel" and len(inner2.args) == 2):
                continue
            if inner2.args[0] != a1 or a1 == a2:
                continue
            key = ("r2", canon(prop))
            if key in self.fired:
                continue
            derived = mk("bel", a1, inner2.args[1])
            self._fire(key, 2, derived)
            self._assert(Bucket.COMMON_GROUND, derived)
            any_fired = True
        return any_fired

    def _rule3(self) -> bool:
        any_fired = False
        for prop in self._cg():
            if not (isinstance(prop, Compound) and prop.functor == "plan" and len(prop.args) == 3):
                continue
            agent, pid, goal = prop.args
            if agent == SYSTEM:
                continue
            if not (isinstance(goal, Compound) and goal.functor == "knowref"):
                continue
            key = ("r3", canon(prop))
            if key in self.fired:
                continue
            derived = mk("achieve", pid, goal)
            self._fire(key, 3, derived)
            self._assert(Bucket.USER_MODEL, derived)
            any_fired = True
        return any_fired

    def _rule4(self) -> bool:
        if self.cstate is not None:
            return False
        for prop in self._cg():
            if not (isinstance(prop, Compound) and prop.functor == "plan" and len(prop.args) == 3):
                continue
            agent, pid, goal = prop.args
            if not (isinstance(goal, Compound) and goal.functor == "knowref" and isinstance(pid, Const)):
                continue
            if not self.base.holds(Bucket.COMMON_GROUND, mk("goal", agent, goal)):
                continue
            doubt = mk(
                "bel", SYSTEM,
                mk("bel", self.names.fresh_var("A"), mk("error", pid, self.names.fresh_var("N"))),
            )
            if not self.base.query(doubt, self.ctx.persp, Substitution()):
                continue
            key = ("r4", canon(prop))
            if key in self.fired:
                continue
            self.cstate = CState(plan=pid.name, goal=goal)
            self._fire(key, 4, f"plan={pid.name} goal={format_term(goal)}")
            self.log.add(f"cstate plan={pid.name} goal={format_term(goal)}")
            return True
        return False

    def _rule5(self) -> bool:
        if self.cstate is None:
            return False
        any_fired = False
        for prop in self._cg():
            shaped = self._shaped_bel(prop, "error")
            if shaped is None:
                continue
            _, verdict = shaped
            pid = verdict.args[0]
            if not (isinstance(pid, Const) and pid.name == self.cstate.plan):
                continue
            key = ("r5", canon(prop))
            if key in self.fired:
                continue
            self._fire(key, 5, verdict)
            self._assert(Bucket.COMMON_GROUND, verdict)
            stale = mk("achieve", pid, self.names.fresh_var("G"))
            for bucket in (Bucket.PRIVATE, Bucket.USER_MODEL, Bucket.COMMON_GROUND):
                self._retract(bucket, stale)
            any_fired = True
        return any_fired

    def _rule6(self) -> bool:
        if self.cstate is None:
            return False
        for prop in self._cg():
            shaped = self._shaped_bel(prop, "replace")
            if shaped is None:
                continue
            agent, repl = shaped
            pid, newpid = repl.args
            if not (isinstance(pid, Const) and pid.name == self.cstate.plan):
                continue
            if not isinstance(newpid, Const):
                continue
            if not any(
                isinstance(e, Compound) and e.functor == "error" and e.args and e.args[0] == pid
                for e in self._cg()
            ):
                continue
            key = ("r6", canon(prop))
            if key in self.fired:
                continue
            self._fire(key, 6, repl)
            self._assert(Bucket.COMMON_GROUND, repl)
            judgment = self.ctx.plan_judgments.get(newpid.name)
            new_goal = self._goal_with_referent(judgment)
            if judgment is not None:
                verdict, detail = judgment
                if verdict == "achieve":
                    self._assert(Bucket.PRIVATE, mk("achieve", newpid, new_goal))
                else:
                    self._assert(Bucket.PRIVATE, mk("error", newpid, Const(detail)))
            replay = mk("plan", agent, newpid, new_goal)
            self._assert(Bucket.COMMON_GROUND, replay)
            self.cstate = CState(plan=newpid.name, goal=new_goal)
            self.log.add(
                f"cstate plan={newpid.name} goal={format_term(new_goal)}"
            )
            return True
        return False

    def _goal_with_referent(self, judgment) -> Term:
        goal = self.cstate.goal
        assert isinstance(goal, Compound) and goal.functor == "knowref"
        if judgment is not None and judgment[0] == "achieve":
            referent = judgment[1]
        else:
            referent = self.names.fresh_var("Object")
        return Compound("knowref", goal.args[:3] + (referent,))

    def _rule7(self) -> bool:
        scope = self.cstate.plan if self.cstate else self.last_referring
        if scope is None:
            return False
        any_fired = False
        for prop in self._cg():
            shaped = self._shaped_bel(prop, "achieve")
            if shaped is None:
                continue
            agent, ach = shaped
            pid = ach.args[0]
            if not (isinstance(pid, Const) and pid.name == scope):
                continue
            other = USER if agent == SYSTEM else SYSTEM
            check = mk("bel", SYSTEM, mk("bel", other, ach))
            if not self.base.query(check, self.ctx.persp, Substitution()):
                continue
            key = ("r7", canon(prop))
            if key in self.fired:
                continue
            self._fire(key, 7, ach)
            self._assert(Bucket.COMMON_GROUND, ach)
            any_fired = True
        return any_fired

    @staticmethod
    def _shaped_bel(prop: Term, inner_functor: str) -> tuple[Term, Compound] | None:
        if not (isinstance(prop, Compound) and prop.functor == "bel" and len(prop.args) == 2):
            return None
        inner = prop.args[1]
        if not (isinstance(inner, Compound) and inner.functor == inner_functor):
            return None
        return prop.args[0], inner

    # -- rules 8-10 ----------------------------------------------------------

    def _derive_goal(self) -> Term | None:
        return self._rule8() or self._rule9() or self._rule10()

    def _adopt(self, key: tuple, number: int, goal: Term) -> Term:
        self._fire(key, number, goal)
        self._assert(Bucket.GOALS, goal)
        return goal

    def _rule8(self) -> Term | None:
        if self.cstate is None:
            return None
        pid = Const(self.cstate.plan)
        pattern = mk("error", pid, self.names.fresh_var("N"))
        for s in self.base.query(mk("bel", SYSTEM, pattern), self.ctx.persp, Substitution()):
            found = s.resolve(pattern)
            key = ("r8", canon(found))
            if key in self.fired:
                continue
            goal = mk("bel", USER, mk("bel", SYSTEM, found))
            return self._adopt(key, 8, goal)
        return None

    def _rule9(self) -> Term | None:
        if self.cstate is None:
            return None
        for prop in self._cg():
            if not (isinstance(prop, Compound) and prop.functor == "error" and len(prop.args) == 2):
                continue
            pid, node = prop.args
            if not (isinstance(pid, Const) and pid.name == self.cstate.plan):
                continue
            if not isinstance(node, Const):
                continue
            plan = self.ctx.registry.get(pid.name)
            if plan is None or node.name not in plan.nodes:
                continue
            content = plan.content_of(node.name)
            if not self._refashionable(content):
                continue
            key = ("r9", canon(prop))
            if key in self.fired:
                continue
            goal = mk(
                "bel", USER,
                mk("bel", SYSTEM, mk("replace", pid, self.names.fresh_var("NewPlan"))),
            )
            return self._adopt(key, 9, goal)
        return None

    @staticmethod
    def _refashionable(content: Term) -> bool:
        if not isinstance(content, Compound):
            return False
        if content.functor in ("modifier", "modifier-absolute", "modifier-relative"):
            return len(content.args) == 4
        if content.functor == "modifiers-terminate":
            return len(content.args) == 3
        return False

    def _rule10(self) -> Term | None:
        scope = self.cstate.plan if self.cstate else self.last_referring
        if scope is None:
            return None
        pid = Const(scope)
        pattern = mk("achieve", pid, self.names.fresh_var("G"))
        for s in self.base.query(mk("bel", SYSTEM, pattern), self.ctx.persp, Substitution()):
            found = s.resolve(pattern)
            check = mk("bel", SYSTEM, mk("bel", USER, found))
            if not self.base.query(check, self.ctx.persp, Substitution()):
                continue
            key = ("r10", canon(found))
            if key in self.fired:
                continue
            goal = mk("bel", USER, mk("bel", SYSTEM, found))
            return self._adopt(key, 10, goal)
        return None

    # -- wrap-up -------------------------------------------------------------

    def resolution(self) -> Term | None:
        """The mutually believed achievement of the plan under discussion."""
        scope = self.cstate.plan if self.cstate else self.last_referring
        if scope is None:
            return None
        for prop in self._cg():
            if (
                isinstance(prop, Compound)
                and prop.functor == "achieve"
                and len(prop.args) == 2
                and prop.args[0] == Const(scope)
            ):
                return prop
        return None
