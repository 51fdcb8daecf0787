"""A plan-based engine for collaborative referring.

Two agents settle what a referring expression picks out: descriptions are
plans over surface acts, understanding is plan recognition, doubt opens a
negotiation carried by clarification plans, and a small rule set turns
contributions into shared beliefs until both sides accept one plan.
"""

from __future__ import annotations

from .beliefs import SYSTEM, USER, BeliefBase, Bucket, Perspective
from .collab import CState, EventLog, MentalState
from .errors import (
    EngineError,
    NoPlanError,
    NotUnderstoodError,
    PlanError,
    QueryError,
    ScenarioError,
    TermSyntaxError,
)
from .planner import (
    EvaluationResult,
    InferenceResult,
    PlannerContext,
    Verdict,
    complete_plan,
    construct,
    evaluate,
    infer,
)
from .plans import PlanDerivation
from .scenario import Scenario, Transcript, build_state, load_scenario, run_scenario, run_text
from .schemas import ActionSchema, SchemaLibrary, build_library
from .terms import (
    Compound,
    Const,
    Lam,
    ListTerm,
    NameSource,
    Substitution,
    Term,
    TermReader,
    Var,
    canon,
    format_term,
    mk,
    read_term,
    unify,
)

__all__ = [
    "SYSTEM", "USER", "BeliefBase", "Bucket", "Perspective",
    "CState", "EventLog", "MentalState",
    "EngineError", "NoPlanError", "NotUnderstoodError", "PlanError",
    "QueryError", "ScenarioError", "TermSyntaxError",
    "EvaluationResult", "InferenceResult", "PlannerContext",
    "Verdict", "complete_plan", "construct", "evaluate", "infer",
    "PlanDerivation",
    "Scenario", "Transcript", "build_state", "load_scenario", "run_scenario", "run_text",
    "ActionSchema", "SchemaLibrary", "build_library",
    "Compound", "Const", "Lam", "ListTerm", "NameSource", "Substitution",
    "Term", "TermReader", "Var", "canon", "format_term", "mk", "read_term", "unify",
]
