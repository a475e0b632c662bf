"""Counted work per replayed message, pinned without a clock.

One process on a two-node cluster takes 60 requests, crashes, and is
recovered (§4.7): the recovery process re-sends every published message
to it as a ``Replay`` control while the watchdogs keep pinging (§4.6).
The ledger is the Python ``call`` events whose code lives under
``src/repro`` from the crash to the end of the window, divided by the
messages replayed and split by top-level package. Comprehensions and
lambdas (names starting with ``<``) are skipped: Python 3.12 inlines
comprehensions (PEP 709), and the count must not depend on that. The
count is the same on every interpreter of the CI matrix; the bound
still leaves 2 % for one that differs.

Run as a script to print the ledger::

    PYTHONPATH=src python tests/test_counted_work.py
"""

import collections
import os
import sys
from typing import Counter, Tuple

import pytest

import repro
from repro import System, SystemConfig

from fixtures import register_test_programs, run_counter_scenario

#: requests the driver sends before the crash, all of them replayed
MESSAGES = 60
#: Python calls into src/repro per replayed message when the ledger was
#: pinned: ``sim`` 17.4, ``net`` 80.0, ``demos`` 31.6, ``publishing``
#: 15.4, ``obs`` 22.2, other 1.0. A change that lowers the count lowers
#: this figure with it.
CALLS_PER_REPLAYED = 167.6
#: headroom for an interpreter whose count differs
SLACK = 0.02
#: engine events the whole world fires, boot to the window's end
EVENTS_FIRED = 1068
PACKAGES = ("sim", "net", "demos", "publishing", "obs")
_ROOT = os.path.dirname(repro.__file__) + os.sep


def replay_ledger() -> Tuple[int, Counter, int]:
    """Build the world, crash the counter, count the replay window.
    Returns (messages replayed, calls by package, engine events fired)."""
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.boot()
    counter, driver = run_counter_scenario(system, n=MESSAGES)
    system.run(20_000)
    assert len(system.program_of(driver).replies) == MESSAGES
    calls: Counter = collections.Counter()

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(_ROOT) and not code.co_name.startswith("<"):
                top = path[len(_ROOT):].split(os.sep)[0]
                calls[top if top in PACKAGES else "other"] += 1

    system.crash_process(counter)
    sys.setprofile(on_event)
    try:
        system.run(5_000)
    finally:
        sys.setprofile(None)
    stats = system.recovery.stats
    assert stats.recoveries_completed == 1
    return stats.messages_replayed, calls, system.engine.events_fired


def format_ledger(replayed: int, calls: Counter) -> str:
    split = "  ".join(f"{name} {calls[name] / replayed:.1f}"
                      for name in (*PACKAGES, "other"))
    return (f"Python calls per replayed message: "
            f"{sum(calls.values()) / replayed:.1f}  ({split}; "
            f"{replayed} replayed)")


@pytest.fixture(scope="module")
def ledger():
    return replay_ledger()


def test_calls_per_replayed_message_stay_under_the_pinned_bound(ledger):
    replayed, calls, _ = ledger
    print(format_ledger(replayed, calls))
    assert replayed >= 50
    assert sum(calls.values()) / replayed <= CALLS_PER_REPLAYED * (1 + SLACK)


def test_the_world_fires_the_pinned_events(ledger):
    assert ledger[2] == EVENTS_FIRED


if __name__ == "__main__":
    replayed, calls, _ = replay_ledger()
    print(format_ledger(replayed, calls))
