"""flowgate: semantics-aware data minimization for smart-home event streams.

Compiles trigger-condition-action automation rules into data-flow policies,
executes them as a mediator between simulated devices and a simulated
automation platform, detects policy conflicts, and quantifies privacy gain
against automation fidelity.
"""

from .compiler import (
    CompiledCorpus,
    compile_corpus,
    derive_policy,
    derive_timer_bundle,
    encode_user_policy,
)
from .conflicts import ConflictReport, ConstraintSet, detect_conflict, satisfiable, scan_on_update
from .dsl import load_home, parse_rule, parse_rules, parse_trace, print_rule
from .engine import Emission, PolicyEngine, StateStore, evaluate_policy
from .metrics import (
    ActivityLabel,
    AttackReport,
    HomeMeta,
    StateTimeline,
    attack_report,
    catr,
    ctr,
    infer_activities,
    reduction_rate,
)
from .model import (
    AttributeDescriptor,
    AttributeKind,
    Command,
    Constraint,
    Event,
    Operator,
    Registry,
    Rule,
)
from .policy import CheckBlock, Method, MethodCall, Policy, TriggerBlock, UserPolicySpec
from .scenario import Scenario, load_scenario, parse_user_policies
from .simulator import (
    RunArtifacts,
    SimConfig,
    VerifyReport,
    remove_redundant,
    run_mediated,
    run_pull_baseline,
    run_raw,
    verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
