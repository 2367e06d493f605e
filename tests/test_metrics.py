import random

import pytest
from hypothesis import given, strategies as st

from flowgate.metrics import (
    ActivityLabel,
    HomeMeta,
    StateTimeline,
    attack_report,
    catr,
    ctr,
    infer_activities,
    infer_working_hours,
    reduction_rate,
)
from flowgate.model import Event, ModelError
from flowgate import synth

MINUTE = 60_000


def test_reduction_rate_table_row():
    assert reduction_rate(1244, 9) == pytest.approx(0.9928, abs=1e-4)


def test_reduction_rate_edges():
    assert reduction_rate(100, 100) == 0.0
    assert reduction_rate(487, 0) == 1.0
    with pytest.raises(ModelError):
        reduction_rate(0, 0)
    with pytest.raises(ModelError):
        reduction_rate(10, 11)


# ---------------------------------------------------------------------------
# timelines and tracking ratios
# ---------------------------------------------------------------------------

def grid_measure(true_tl, obs_tl, horizon, want, step=1000):
    """Independent oracle: left-endpoint sums on a 1-second grid."""
    t0, t1 = horizon
    total = 0
    for t in range(t0, t1, step):
        if want(true_tl.value_at(t), obs_tl.value_at(t)):
            total += step
    return total


def random_timeline(rng, horizon, values):
    """Transitions on whole seconds so the 1 s grid oracle is exact."""
    tl = StateTimeline(initial=rng.choice(values))
    t = 0
    while True:
        t += rng.randrange(1, 400) * 1000
        if t >= horizon:
            return tl
        tl.add(t, rng.choice(values))


def test_ctr_perfect_observer():
    tl = StateTimeline.from_events([Event("d", "a", 5.0, 10_000)], 1.0)
    assert ctr(tl, tl, (0, 100_000)) == 1.0


def test_ctr_half_horizon():
    true_tl = StateTimeline.from_events([Event("d", "a", 5.0, 50_000)], 1.0)
    obs_tl = StateTimeline(initial=1.0)
    assert ctr(true_tl, obs_tl, (0, 100_000)) == pytest.approx(0.5)


def test_ctr_stale_observer_near_zero():
    rng = random.Random(3)
    true_tl = random_timeline(rng, 1_000_000, [float(v) for v in range(50)])
    obs_tl = StateTimeline(initial=999.0)  # holds a stale value forever
    assert ctr(true_tl, obs_tl, (0, 1_000_000)) == 0.0


def test_catr_perfect_and_undefined():
    true_tl = StateTimeline.from_events(
        [Event("d", "a", "active", 10_000), Event("d", "a", "inactive", 20_000)], "inactive"
    )
    assert catr(true_tl, true_tl, "active", (0, 60_000)) == 1.0
    never_active = StateTimeline(initial="inactive")
    assert catr(true_tl, never_active, "active", (0, 60_000)) is None


def test_catr_low_after_filtering():
    true_tl = StateTimeline.from_events(
        [Event("d", "a", "active" if i % 2 else "inactive", i * 20_000) for i in range(1, 5)],
        "inactive",
    )
    obs_tl = StateTimeline.from_events([Event("d", "a", "active", 20_000)], "inactive")
    value = catr(true_tl, obs_tl, "active", (0, 100_000))
    # The observer believes "active" from t=20s on; the truth alternates.
    assert value is not None and value < 1.0


@pytest.mark.parametrize("seed", range(20))
def test_ctr_matches_grid_oracle(seed):
    rng = random.Random(seed)
    horizon = (0, 500_000)
    values = [float(v) for v in range(4)]
    true_tl = random_timeline(rng, horizon[1], values)
    obs_tl = random_timeline(rng, horizon[1], values)
    expected = grid_measure(true_tl, obs_tl, horizon, lambda tv, ov: tv == ov) / horizon[1]
    assert ctr(true_tl, obs_tl, horizon) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_catr_matches_grid_oracle(seed):
    rng = random.Random(100 + seed)
    horizon = (0, 500_000)
    values = ["active", "inactive"]
    true_tl = random_timeline(rng, horizon[1], values)
    obs_tl = random_timeline(rng, horizon[1], values)
    denom = grid_measure(true_tl, obs_tl, horizon, lambda tv, ov: ov == "active")
    num = grid_measure(true_tl, obs_tl, horizon,
                       lambda tv, ov: ov == "active" and tv == "active")
    actual = catr(true_tl, obs_tl, "active", horizon)
    if denom == 0:
        assert actual is None
    else:
        assert actual == pytest.approx(num / denom, abs=1e-9)


def bisect_measure(true_tl, obs_tl, t0, t1, want):
    """Reference: sort every change instant in (t0, t1), bisect both timelines at each cut."""
    if t1 <= t0:
        return 0
    inside = [t for tl in (true_tl, obs_tl) for t in tl.times if t0 < t < t1]
    cuts = sorted({t0, t1, *inside})
    total = 0
    for a, b in zip(cuts, cuts[1:]):
        if want(true_tl.value_at(a), obs_tl.value_at(a)):
            total += b - a
    return total


@st.composite
def timeline_pairs(draw):
    """Two timelines over a shared vocabulary, plus a horizon that may cut them anywhere."""
    values = draw(st.sampled_from([["active", "inactive"], [0.0, 1.0, 2.5], ["a", "b", "c"]]))

    def timeline():
        times = sorted(draw(st.sets(st.integers(0, 20), max_size=12)))
        tl = StateTimeline(initial=draw(st.sampled_from(values)))
        for t in times:
            tl.add(t * 1000, draw(st.sampled_from(values)))
        return tl

    t0 = draw(st.integers(-3, 23)) * 1000
    t1 = t0 + draw(st.integers(-2, 25)) * 1000
    return timeline(), timeline(), (t0, t1), values[0]


@given(timeline_pairs())
def test_pair_durations_match_bisect_reference(case):
    true_tl, obs_tl, (t0, t1), active = case
    values = sorted({true_tl.initial, obs_tl.initial, *true_tl.values, *obs_tl.values}, key=str)
    for v in values:
        assert true_tl.time_in(v, t0, t1) == bisect_measure(
            true_tl, obs_tl, t0, t1, lambda tv, ov: tv == v
        )
        assert obs_tl.time_in(v, t0, t1) == bisect_measure(
            true_tl, obs_tl, t0, t1, lambda tv, ov: ov == v
        )
    for tl in (true_tl, obs_tl):
        assert sum(tl.time_in(v, t0, t1) for v in values) == max(0, t1 - t0)
    if t1 > t0:
        equal = bisect_measure(true_tl, obs_tl, t0, t1, lambda tv, ov: tv == ov)
        assert ctr(true_tl, obs_tl, (t0, t1)) == equal / (t1 - t0)
    if isinstance(active, str):
        believed = bisect_measure(true_tl, obs_tl, t0, t1, lambda tv, ov: ov == active)
        both = bisect_measure(
            true_tl, obs_tl, t0, t1, lambda tv, ov: ov == active and tv == active
        )
        assert catr(true_tl, obs_tl, active, (t0, t1)) == (both / believed if believed else None)


@st.composite
def tied_timeline_pairs(draw):
    """Two timelines as raw trace columns, whose steps may share a millisecond, and a horizon.

    Each comes with its twin built by ``add``, which keeps a millisecond's last value only.
    """
    values = draw(st.sampled_from([["active", "inactive"], [0.0, 1.0, 2.5]]))

    def timeline():
        initial = draw(st.sampled_from(values))
        steps = sorted(draw(st.lists(
            st.tuples(st.integers(0, 12).map(lambda t: t * 1000), st.sampled_from(values)),
            max_size=16,
        )), key=lambda step: step[0])
        collapsed = StateTimeline(initial)
        for t, v in steps:
            collapsed.add(t, v)
        return StateTimeline(initial, [t for t, _ in steps], [v for _, v in steps]), collapsed

    t0 = draw(st.integers(-2, 14)) * 1000
    t1 = t0 + draw(st.integers(1, 16)) * 1000
    return timeline(), timeline(), (t0, t1), values[0]


@given(tied_timeline_pairs())
def test_tied_steps_score_as_their_last_value(case):
    (true_tied, true_tl), (obs_tied, obs_tl), horizon, active = case
    for t, o in ((true_tied, obs_tied), (true_tied, obs_tl), (true_tl, obs_tied)):
        assert ctr(t, o, horizon) == ctr(true_tl, obs_tl, horizon)
        if isinstance(active, str):
            assert catr(t, o, active, horizon) == catr(true_tl, obs_tl, active, horizon)


def test_timeline_rebuild_is_fixed_point():
    rng = random.Random(9)
    tl = random_timeline(rng, 400_000, ["a", "b", "c"])
    events = [Event("d", "x", v, t) for t, v in zip(tl.times, tl.values)]
    again = StateTimeline.from_events(events, tl.initial)
    assert (again.times, again.values) == (tl.times, tl.values)


# ---------------------------------------------------------------------------
# activity inference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def t3_meta():
    return HomeMeta.from_registry(synth.testbed("t3").registry())


def test_toileting_detected_between_thresholds(t3_meta):
    log = [
        Event("mo4", "motion", "active", 10 * MINUTE),
        Event("mo4", "motion", "inactive", 15 * MINUTE),
    ]
    labels = infer_activities(log, t3_meta, (0, 60 * MINUTE))
    assert [l.kind for l in labels] == ["toileting"]


def test_short_bathroom_visit_not_labelled(t3_meta):
    log = [
        Event("mo4", "motion", "active", 10 * MINUTE),
        Event("mo4", "motion", "inactive", 10 * MINUTE + 30_000),
    ]
    assert infer_activities(log, t3_meta, (0, 60 * MINUTE)) == []


def test_leaving_and_arriving(t3_meta):
    log = [
        Event("mu5", "contact", "open", 10 * MINUTE),
        Event("mu5", "contact", "closed", 11 * MINUTE),
        # quiet afterwards: leaving
        Event("mu5", "contact", "open", 120 * MINUTE),
        Event("mu5", "contact", "closed", 121 * MINUTE),
        Event("hm1", "motion", "active", 122 * MINUTE),
        Event("hm1", "motion", "inactive", 124 * MINUTE),
    ]
    labels = infer_activities(log, t3_meta, (0, 200 * MINUTE))
    kinds = [l.kind for l in labels]
    assert "leaving" in kinds and "arriving" in kinds


def test_scripted_day_raw_vs_filtered(t3_meta):
    registry = synth.testbed("t3").registry()
    day, gt = synth.scripted_day(registry)
    inferred = infer_activities(day, t3_meta, (0, 24 * 60 * MINUTE))
    report = attack_report(gt, inferred)
    assert report.total_recall >= 0.9
    # A filtered log with almost everything removed infers almost nothing.
    filtered = [e for e in day if e.device == "mu5"]
    weak = infer_activities(filtered, t3_meta, (0, 24 * 60 * MINUTE))
    weak_report = attack_report(gt, weak)
    assert weak_report.total_recall <= report.total_recall / 2


def test_attack_report_identity_and_empty():
    gt = [ActivityLabel("toileting", 0, MINUTE, "ground-truth")]
    perfect = attack_report(gt, [ActivityLabel("toileting", 0, MINUTE)])
    assert perfect.recall["toileting"] == 1.0 and perfect.total_recall == 1.0
    empty = attack_report(gt, [])
    assert empty.total_recall == 0.0
    assert empty.false_negative["toileting"] == 1


def test_attack_report_overlap_threshold():
    gt = [ActivityLabel("cooking", 0, 10 * MINUTE, "ground-truth")]
    # 40% overlap: not detected; 60%: detected.
    low = attack_report(gt, [ActivityLabel("cooking", 6 * MINUTE, 16 * MINUTE)])
    assert low.total_recall == 0.0
    high = attack_report(gt, [ActivityLabel("cooking", 4 * MINUTE, 14 * MINUTE)])
    assert high.total_recall == 1.0


def test_working_hours_rounding():
    log = [
        Event("pr1", "presence", "present", int(8.6 * 60) * MINUTE),
        Event("pr1", "presence", "not-present", int(17.4 * 60) * MINUTE),
    ]
    hours = infer_working_hours(log, ["pr1"], (0, 24 * 60 * MINUTE))
    assert hours["pr1"] == [(9, 17)]
