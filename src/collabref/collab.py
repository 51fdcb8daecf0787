"""Two agents building a referring expression together.

The system is always one of the two agents. It hears the user's acts
(plan recognition), judges the recognized plan, and records the
contribution; it speaks by adopting a goal and building a plan for it.
Between contributions a small rule set keeps the shared picture honest.

The rules are the rows of one table (`Rule`): a trigger pattern read
once from text, a guard, a conclusion and the bucket it goes to, and for
rules 4 and 6, which move the plan under discussion (`CState`), a small
action. A fact fires a row when the trigger matches it one way (only the
pattern's variables bind), its `P` is the plan the row is scoped to, if
any, and the guard holds; at most once per rule and fact, ever. A
variable only the conclusion names is fresh on each firing.

Rules 1-7 (`CHAIN_RULES`) chain after every contribution, in passes
until none fires, each over a snapshot of the common-ground facts filed
under its trigger's index key, oldest first. Rules 8-10 (`ADOPT_RULES`)
pick what the system says next, and the first match wins: 8 and 10 read
the answers to bel(system, Trigger), 9 the common ground. Every firing,
belief change, utterance and verdict lands in the event log in a fixed,
replayable order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .beliefs import BeliefBase, Bucket, Perspective, SYSTEM, USER
from .errors import NoPlanError, NotUnderstoodError
from .planner import META_ROOTS, InferenceResult, PlannerContext, Verdict, construct, infer
from .schemas import SchemaLibrary
from .terms import (
    EMPTY,
    Compound,
    Const,
    NameSource,
    Term,
    TermReader,
    Var,
    canon,
    format_term,
    map_term,
    mk,
)

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

    def __str__(self) -> str:
        return f"plan={self.plan} goal={format_term(self.goal)}"


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
        # (rule, fact) pairs a rule is done with: it fired on the fact, or its
        # trigger does not match it. Keying common ground by insertion number
        # is as good as by `canon`: no two facts are alpha-equal, and rule 5
        # retracts none a trigger reads.
        self.spent: set[tuple[int, int | str]] = set()

    @property
    def negotiated(self) -> str | None:
        """The plan under discussion, if a negotiation is open."""
        return self.cstate.plan if self.cstate else None

    @property
    def scope(self) -> str | None:
        """The plan under discussion, else the last referring plan."""
        return self.cstate.plan if self.cstate else self.last_referring

    # -- helpers -------------------------------------------------------------

    def _assert(self, bucket: Bucket, prop: Term) -> bool:
        added = self.base.assert_prop(bucket, prop)
        if added:
            self.log.add(f"belief + {bucket.value} {format_term(prop)}")
        return added

    def _retract(self, bucket: Bucket, pattern: Term) -> None:
        for gone in self.base.retract_matching(bucket, pattern):
            self.log.add(f"belief - {bucket.value} {format_term(gone)}")

    def _believes(self, prop: Term) -> bool:
        return bool(self.base.query(mk("bel", SYSTEM, prop), self.ctx.persp, EMPTY))

    def _extract_goal(self, plan) -> Term:
        """The referring goal the plan communicates, resolved."""
        if plan.root_effect is None:
            raise NotUnderstoodError(f"plan {plan.id} communicates nothing")
        b: dict[str, Term] = {}
        if not _match(_EFFECT, plan.bindings.resolve(plan.root_effect), b):
            raise NotUnderstoodError(f"plan {plan.id} has an odd effect shape")
        return b["G"]

    # -- hearing -------------------------------------------------------------

    def hearer_step(self, acts: list[Term]) -> InferenceResult:
        self.ctx.persp = Perspective("user", "system")
        self.log.add("observed " + "; ".join(format_term(a) for a in acts))
        is_meta = bool(acts) and isinstance(acts[0], Compound) and acts[0].functor in META_ROOTS
        expected = None
        if is_meta:
            expected = self.scope
            target = acts[0].args[0] if acts[0].args else None
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
        if is_meta and not any(verdict.valid for _, verdict in result.candidates):
            raise NotUnderstoodError("that clarification does not hold up")
        if result.kind is Verdict.AMBIGUOUS:
            raise NotUnderstoodError("too many readings of that make sense")
        plan = result.plan
        self._record_contribution("user", plan.id, self._extract_goal(plan))
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
            self._record_contribution("system", plan.id, self._extract_goal(plan))
            utterances.append(acts)
        return utterances

    # -- contribution bookkeeping ---------------------------------------------

    def _record_contribution(self, speaker: str, plan_id: str, goal: Term) -> None:
        """Put the contribution on the common ground, then chain the rules."""
        self.log.add(f"contribution {speaker} plan={plan_id} goal={format_term(goal)}")
        prop = mk("plan", Const(speaker), Const(plan_id), goal)
        self.uttered.add(canon(prop))
        self._assert(Bucket.COMMON_GROUND, prop)
        plan = self.ctx.registry[plan_id]
        if plan.nodes[plan.root].schema == "refer":
            self.last_referring = plan_id
            self._judge(Const(plan_id), goal)
        self._apply_rules()

    def _judge(self, plan: Const, goal: Term) -> None:
        """Hold privately what evaluation found: the plan achieves the
        goal, or fails at a node."""
        judgment = self.ctx.plan_judgments.get(plan.name)
        if judgment is not None:
            verdict, detail = judgment
            if verdict == "achieve":
                self._assert(Bucket.PRIVATE, mk("achieve", plan, goal))
            else:
                self._assert(Bucket.PRIVATE, mk("error", plan, Const(detail)))

    def _discuss(self, plan: Const, goal: Term) -> None:
        self.cstate = CState(plan.name, goal)
        self.log.add(f"cstate {self.cstate}")

    # -- the matcher ---------------------------------------------------------

    def _apply_rules(self) -> None:
        changed = True
        while changed:
            changed = False
            for rule in CHAIN_RULES:
                for tag, b in self._matches(rule):
                    self._fire(rule, tag, b)
                    changed = True
                    if rule.action is not None:  # the discussion moved
                        break

    def _derive_goal(self) -> Term | None:
        for rule in ADOPT_RULES:
            for tag, b in self._matches(rule):
                return self._fire(rule, tag, b)
        return None

    def _matches(self, rule: Rule):
        """Yield (tag, bindings) per fact that fires the rule: a snapshot, oldest first."""
        plan = None
        if rule.scope is not None:
            name = getattr(self, rule.scope)
            if name is None:
                return
            plan = Const(name)
        if rule.believed:
            pattern = self._instance(rule.trigger, {"P": plan})
            answers = self.base.query(mk("bel", SYSTEM, pattern), self.ctx.persp, EMPTY)
            facts = [(canon(f), f) for f in (s.resolve(pattern) for s in answers)]
        else:
            facts = self.base.filed(Bucket.COMMON_GROUND, rule.trigger)
        for key, fact in facts:
            tag = (rule.number, key)
            if tag in self.spent:
                continue
            b: dict[str, Term] = {}
            if not _match(rule.trigger, fact, b):
                self.spent.add(tag)
            elif (plan is None or b["P"] == plan) and (rule.guard is None or rule.guard(self, b)):
                yield tag, b

    def _fire(self, rule: Rule, tag: tuple, b: dict[str, Term]) -> Term | None:
        self.spent.add(tag)
        drawn = None if rule.conclusion is None else self._instance(rule.conclusion, b)
        # rule 4 draws no belief: its line shows the discussion it opens
        shown = CState(b["P"].name, b["G"]) if drawn is None else format_term(drawn)
        self.log.add(f"rule {rule.number} {rule.name} {shown}")
        if drawn is not None:
            self._assert(rule.bucket, drawn)
        if rule.retract is not None:
            stale = self._instance(rule.retract, b)
            for bucket in (Bucket.PRIVATE, Bucket.USER_MODEL, Bucket.COMMON_GROUND):
                self._retract(bucket, stale)
        if rule.action is not None:
            rule.action(self, b)
        return drawn

    def _instance(self, t: Term, b: dict[str, Term]) -> Term:
        """t under b; a variable b leaves open is bound in b to a fresh one."""
        def leaf(x: Term, _bound) -> Term:
            if type(x) is Var and x.name not in b:
                b[x.name] = self.names.fresh_var(x.name)
            return b[x.name] if type(x) is Var else x

        return map_term(t, leaf)

    # -- guards and actions --------------------------------------------------

    def _doubted(self, b: dict[str, Term]) -> bool:
        """No plan is under discussion, this plan's goal is mutual, and the
        system believes someone holds the plan in error."""
        if self.cstate is not None or type(b["P"]) is not Const:
            return False
        if not self.base.holds(Bucket.COMMON_GROUND, mk("goal", b["A"], b["G"])):
            return False
        error = mk("error", b["P"], self.names.fresh_var("N"))
        return self._believes(mk("bel", self.names.fresh_var("A"), error))

    def _repairable(self, b: dict[str, Term]) -> bool:
        """The replacement is a plan, and the replaced one is mutually in error."""
        return type(b["NewP"]) is Const and any(
            isinstance(e, Compound) and e.functor == "error" and e.args[:1] == (b["P"],)
            for e in self.base.items(Bucket.COMMON_GROUND)
        )

    def _take_replacement(self, b: dict[str, Term]) -> None:
        """The replacement is now discussed, with the referent it was judged to find."""
        plan = b["NewP"]
        judgment = self.ctx.plan_judgments.get(plan.name, ("error", None))
        referent = judgment[1] if judgment[0] == "achieve" else self.names.fresh_var("Object")
        goal = Compound("knowref", self.cstate.goal.args[:3] + (referent,))
        self._judge(plan, goal)
        self._assert(Bucket.COMMON_GROUND, mk("plan", b["A"], plan, goal))
        self._discuss(plan, goal)

    def _refashionable(self, b: dict[str, Term]) -> bool:
        """The erroneous node is a modifier step a repair can replace."""
        node, plan = b["N"], self.ctx.registry.get(b["P"].name)
        if type(node) is not Const or plan is None or node.name not in plan.nodes:
            return False
        content = plan.content_of(node.name)
        return isinstance(content, Compound) and (content.functor, len(content.args)) in {
            ("modifier", 4), ("modifier-absolute", 4), ("modifier-relative", 4),
            ("modifiers-terminate", 3),
        }

    # -- wrap-up -------------------------------------------------------------

    def resolution(self) -> Term | None:
        """The mutually believed achievement of the plan under discussion."""
        for _, prop in self.base.filed(Bucket.COMMON_GROUND, _ACHIEVED):
            if self.scope is not None and _match(_ACHIEVED, prop, {"P": Const(self.scope)}):
                return prop
        return None


# -- the rule table ----------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One row of the rule table; see the module docstring."""

    number: int
    name: str
    trigger: Term
    conclusion: Term | None
    bucket: Bucket
    scope: str | None  # the attribute of MentalState naming the plan P must be
    guard: Callable[[MentalState, dict[str, Term]], bool] | None
    action: Callable[[MentalState, dict[str, Term]], None] | None
    retract: Term | None  # withdrawn from the private, user and common buckets
    believed: bool  # read the answers to bel(system, Trigger), not the common ground


# Rule patterns take variable uids from here up, below the schema
# library's, so they never meet a library variable or a state's.
_RULE_START = -2_000_000
_RULE_VARS = NameSource(_RULE_START)


def _rule(
    number: int, name: str, trigger: str, conclusion: str | None = None,
    bucket: Bucket = Bucket.COMMON_GROUND, *, scope: str | None = None, guard=None,
    action=None, retract: str | None = None, believed: bool = False,
) -> Rule:
    """A row, its patterns read with one variable table: one name, one variable."""
    read = TermReader(_RULE_VARS).read
    drawn, withdrawn = (None if t is None else read(t) for t in (conclusion, retract))
    return Rule(
        number, name, read(trigger), drawn, bucket, scope, guard, action, withdrawn, believed
    )


def _match(pattern: Term, fact: Term, b: dict[str, Term]) -> bool:
    """Match one way: bind the pattern's variables, by name, to subterms of
    the fact, and never a variable of the fact. `Name = Pattern` binds Name
    to the subterm Pattern matches."""
    if type(pattern) is Var:
        seen = b.setdefault(pattern.name, fact)
        return seen is fact or seen == fact
    if type(pattern) is not Compound:
        return pattern == fact
    if pattern.functor == "=":
        return _match(pattern.args[1], fact, b) and _match(pattern.args[0], fact, b)
    return (
        type(fact) is Compound
        and fact.functor == pattern.functor
        and len(fact.args) == len(pattern.args)
        and all(_match(p, f, b) for p, f in zip(pattern.args, fact.args))
    )


_EFFECT = TermReader(_RULE_VARS).read("bel(H, goal(S, G))")
_ACHIEVED = TermReader(_RULE_VARS).read("achieve(P, G)")

CHAIN_RULES = (
    # what you said, you wanted
    _rule(1, "speaker-has-goal", "plan(A, P, G)", "goal(A, G)",
          guard=lambda ms, b: canon(mk("plan", b["A"], b["P"], b["G"])) in ms.uttered),
    # what you wanted me to think you believe, you believe
    _rule(2, "sincere-communication", "goal(A, bel(B, bel(A, Q)))", "bel(A, Q)",
          guard=lambda ms, b: b["A"] != b["B"]),
    # you think your referring plan works
    _rule(3, "contributor-believes-adequate", "plan(A, P, G = knowref(S, H, E, O))",
          "achieve(P, G)", Bucket.USER_MODEL, guard=lambda ms, b: b["A"] != SYSTEM),
    # a doubted plan opens a negotiation
    _rule(4, "enter-collaboration", "plan(A, P, G = knowref(S, H, E, O))",
          guard=MentalState._doubted, action=lambda ms, b: ms._discuss(b["P"], b["G"])),
    # a shared error verdict sticks, and the plan no longer counts as adequate
    _rule(5, "accept-error-judgment", "bel(A, error(P, N))", "error(P, N)",
          scope="negotiated", retract="achieve(P, G)"),
    # a shared repair becomes the plan under discussion
    _rule(6, "accept-replacement", "bel(A, replace(P, NewP))", "replace(P, NewP)",
          scope="negotiated", guard=MentalState._repairable,
          action=MentalState._take_replacement),
    # both happy means mutually happy
    _rule(7, "mutual-acceptance", "bel(A, X = achieve(P, G))", "X", scope="scope",
          guard=lambda ms, b: ms._believes(
              mk("bel", USER if b["A"] == SYSTEM else SYSTEM, b["X"]))),
)

ADOPT_RULES = (
    # tell them where their plan fails
    _rule(8, "adopt-inform-error-goal", "error(P, N)", "bel(user, bel(system, error(P, N)))",
          Bucket.GOALS, scope="negotiated", believed=True),
    # propose a repair for the shared error
    _rule(9, "adopt-replace-goal", "error(P, N)",
          "bel(user, bel(system, replace(P, NewPlan)))", Bucket.GOALS,
          scope="negotiated", guard=MentalState._refashionable),
    # close the negotiation
    _rule(10, "adopt-accept-goal", "achieve(P, G)", "bel(user, bel(system, achieve(P, G)))",
          Bucket.GOALS, scope="scope", believed=True,
          guard=lambda ms, b: ms._believes(mk("bel", USER, mk("achieve", b["P"], b["G"])))),
)
