"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(5.0, fired.append, "b")
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(9.0, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]


def test_equal_timestamps_fire_in_scheduling_order():
    engine = Engine()
    fired = []
    for tag in range(10):
        engine.schedule(3.0, fired.append, tag)
    engine.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(7.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [7.5]
    assert engine.now == 7.5


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(100.0, fired.append, "late")
    engine.run(until=50.0)
    assert fired == ["early"]
    assert engine.now == 50.0
    engine.run()
    assert fired == ["early", "late"]


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    handle.cancel()
    engine.run()
    assert fired == []


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_microscopic_negative_delay_clamped_to_now():
    """Float round-off in `schedule_at(now - epsilon)` chains (computed
    absolute deadlines) must not abort the run: deltas within 1e-9 ms of
    zero clamp to "fire now", genuinely past times still raise."""
    engine = Engine()
    engine.schedule(7.3, lambda: None)
    engine.run()
    fired = []
    engine.schedule(-1e-12, fired.append, "delay")
    engine.schedule_at(engine.now - 1e-10, fired.append, "at")
    engine.run()
    assert sorted(fired) == ["at", "delay"]
    with pytest.raises(SimulationError):
        engine.schedule_at(engine.now - 1.0, lambda: None)


def test_schedule_at_absolute_time():
    engine = Engine()
    engine.schedule(10.0, lambda: None)
    engine.run()
    seen = []
    engine.schedule_at(25.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [25.0]


def test_events_scheduled_during_run_fire():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.schedule(5.0, lambda: fired.append("nested"))

    engine.schedule(1.0, first)
    engine.run()
    assert fired == ["first", "nested"]


def test_step_dispatches_one_event():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, 1)
    engine.schedule(2.0, fired.append, 2)
    assert engine.step() is True
    assert fired == [1]
    assert engine.step() is True
    assert engine.step() is False


def test_pending_counts_live_events():
    engine = Engine()
    h1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending() == 2
    h1.cancel()
    assert engine.pending() == 1


def test_activity_sleeps_for_yielded_delay():
    engine = Engine()
    waypoints = []

    def activity():
        waypoints.append(engine.now)
        yield 10.0
        waypoints.append(engine.now)
        yield 5.0
        waypoints.append(engine.now)

    engine.spawn(activity())
    engine.run()
    assert waypoints == [0.0, 10.0, 15.0]


def test_activity_waits_on_signal_and_receives_value():
    engine = Engine()
    got = []
    signal = engine.signal("test")

    def waiter():
        value = yield signal
        got.append(value)

    engine.spawn(waiter())
    engine.schedule(3.0, signal.fire, "payload")
    engine.run()
    assert got == ["payload"]


def test_signal_wakes_all_waiters():
    engine = Engine()
    woke = []
    signal = engine.signal()

    def waiter(tag):
        yield signal
        woke.append(tag)

    for tag in range(3):
        engine.spawn(waiter(tag))
    engine.schedule(1.0, signal.fire)
    engine.run()
    assert sorted(woke) == [0, 1, 2]


def test_signal_fire_returns_waiter_count():
    engine = Engine()
    signal = engine.signal()

    def waiter():
        yield signal

    engine.spawn(waiter())
    engine.run()
    assert signal.fire() == 1
    assert signal.fire() == 0   # waiters are one-shot


def test_activity_rejects_bad_yield():
    engine = Engine()

    def bad():
        yield "nonsense"

    engine.spawn(bad())
    with pytest.raises(SimulationError):
        engine.run()


def test_max_events_limit():
    engine = Engine()
    fired = []
    for i in range(5):
        engine.schedule(float(i), fired.append, i)
    engine.run(max_events=3)
    assert fired == [0, 1, 2]
