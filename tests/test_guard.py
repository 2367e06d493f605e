"""The one guard evaluator against atom-by-atom evaluation.

Every policy's CHECK fetches and every rule's conditions, in the four
testbeds and in the mini scenario, are evaluated by ``guard_failure`` and by
a reference that reads each atom's operator and reference value itself, on
states drawn from each key's members, cell representatives and cut points,
unread keys and every minute of the day. Each policy's precomputed report
decisions are compared with decisions built afresh from its blocks.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flowgate import synth
from flowgate.compiler import compile_corpus
from flowgate.engine import StateStore, _block_decision
from flowgate.model import (
    MS_PER_DAY,
    MS_PER_MINUTE,
    MINUTES_PER_DAY,
    AttributeKind,
    Operator,
    guard_failure,
    minute_of_day,
)
from flowgate.policy import ReportDecision
from flowgate.scenario import load_scenario

MINI = Path(__file__).resolve().parent.parent / "scenarios" / "mini" / "scenario.yaml"


def _homes():
    """(registry, rules, corpus) of each testbed and of the mini scenario."""
    for name in synth.ALL_TESTBEDS:
        tb = synth.testbed(name)
        registry = tb.registry()
        rules, specs = tb.rules(registry), tb.user_specs(registry)
        yield registry, rules, compile_corpus(rules, specs, registry)
    mini = load_scenario(MINI)
    yield mini.registry, mini.rules, compile_corpus(mini.rules, mini.user_specs, mini.registry)


HOMES = list(_homes())


def _states(registry, corpus, key):
    """The states a guard can meet on ``key``: None (unread), each member, or
    each cell representative and cut point of a numeric key."""
    desc = registry.lookup(*key)
    if desc.kind is AttributeKind.NUMERIC:
        cells = corpus.cells[key]
        return [None, *cells.representatives(), *cells.cuts]
    return [None, *desc.values]


# One case per compiled conjunction: (atoms, guard, the states of each key it reads).
CASES = [
    (atoms, guard, {c.key(): _states(registry, corpus, c.key()) for c in atoms if not c.is_time})
    for registry, rules, corpus in HOMES
    for atoms, guard in [
        *((tuple(cb.fetch for cb in p.check_blocks), p.guard) for p in corpus.policies),
        *((r.condition, r.guard) for r in rules),
    ]
]


def _holds(c, value):
    """Whether the atom ``c`` holds on ``value``, read off its operator and reference."""
    op, ref = c.operator, c.value
    if op is Operator.ANY:
        return True
    if op is Operator.IN_WINDOW:
        return ref.contains(value)
    if op is Operator.IN_RANGE:
        return ref[0] <= value <= ref[1]
    if isinstance(ref, str):
        return (value == ref) if op is Operator.EQ else (value != ref)
    return {
        Operator.EQ: value == ref, Operator.NE: value != ref,
        Operator.LT: value < ref, Operator.LE: value <= ref,
        Operator.GT: value > ref, Operator.GE: value >= ref,
    }[op]


def _reference(atoms, clock, state):
    """The index of the first atom of ``atoms`` that fails, one atom at a time."""
    for i, c in enumerate(atoms):
        if c.is_time:
            if clock is not None and not _holds(c, minute_of_day(clock)):
                return i
        elif state.get(c.key()) is None or not _holds(c, state[c.key()]):
            return i
    return None


def test_cases_cover_every_atom_shape():
    ops = {c.operator for atoms, _, _ in CASES for c in atoms}
    assert ops >= {Operator.EQ, Operator.NE, Operator.LT, Operator.GT, Operator.IN_RANGE,
                   Operator.IN_WINDOW, Operator.ANY}


@st.composite
def _evaluations(draw):
    atoms, guard, states = draw(st.sampled_from(CASES))
    state = {key: draw(st.sampled_from(values)) for key, values in states.items()}
    # A key's state lives in the first store or, as a key read off a trace,
    # in the fallback.
    first = {key: v for key, v in state.items() if draw(st.booleans())}
    fallback = {key: v for key, v in state.items() if key not in first}
    minute = draw(st.none() | st.integers(0, MINUTES_PER_DAY - 1))
    clock = None if minute is None else (
        draw(st.integers(0, 30)) * MS_PER_DAY + minute * MS_PER_MINUTE
        + draw(st.integers(0, MS_PER_MINUTE - 1)))
    return atoms, guard, state, first, fallback, clock


def _check(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(_evaluations())
    def check(evaluation):
        atoms, guard, state, first, fallback, clock = evaluation
        assert guard_failure(guard, clock, first.get, fallback.get) == _reference(atoms, clock, state)

    check()


def test_guard_matches_atom_by_atom_evaluation():
    _check(500)


@pytest.mark.slow
def test_guard_matches_atom_by_atom_evaluation_long():
    _check(5_000)


def test_guard_on_every_minute_of_the_day():
    reached = 0
    for atoms, guard, states in CASES:
        if not any(c.is_time for c in atoms):
            continue
        # Each key in a state that every atom on it holds on, where there is
        # one, so that the clock atoms are reached.
        state = {key: next((v for v in values[1:] if all(
            _holds(c, v) for c in atoms if not c.is_time and c.key() == key)), values[1])
            for key, values in states.items()}
        for minute in range(MINUTES_PER_DAY):
            clock = minute * MS_PER_MINUTE
            failing = guard_failure(guard, clock, state.get, {}.get)
            assert failing == _reference(atoms, clock, state)
            reached += failing is None or atoms[failing].is_time
    assert reached


def _fresh(policy, block, key, star):
    """A block's decision on ``key`` built afresh, as the engine once built it on every call."""
    chosen = block.run_action
    if block.branch is not None and not block.branch.satisfied_by(star):
        chosen = block.else_action
    if chosen is None:
        return None
    return ReportDecision(key[0], key[1], chosen, (policy.id,), policy.origin)


def test_precomputed_decisions_equal_fresh_ones():
    checked = 0
    for registry, _, corpus in HOMES:
        for policy in corpus.policies:
            blocks = [(policy.trigger_block, policy.trigger_block.match, policy.trigger_choice)]
            choices = iter(policy.check_choices)
            blocks += [(cb, cb.fetch, next(choices)) for cb in policy.check_blocks
                       if cb.run_action is not None or cb.else_action is not None]
            assert next(choices, None) is None
            for block, atom, choice in blocks:
                key = atom.key()
                assert choice[0] == key
                if atom.is_time or key[1] == "*":
                    continue
                for star in _states(registry, corpus, key)[1:]:
                    store = StateStore(db_star={key: star})
                    assert _block_decision(store, *choice) == _fresh(policy, block, key, star)
                    checked += 1
    assert checked > 200
