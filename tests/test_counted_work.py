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

A second row counts a small lossy world where retry timers fire: the
same counter and driver on CSMA/CD with 1 % frame loss and a transport
window of 4, from the first request to the last reply, per request.

Run as a script to print the ledger::

    PYTHONPATH=src python tests/test_counted_work.py
"""

import collections
import os
import sys
from typing import Callable, Counter, Tuple

import pytest

import repro
from repro import System, SystemConfig

from fixtures import register_test_programs, run_counter_scenario

#: requests the driver sends before the crash, all of them replayed
MESSAGES = 60
#: Python calls into src/repro per replayed message when the ledger was
#: pinned: ``sim`` 17.6, ``net`` 75.7, ``demos`` 31.6, ``publishing``
#: 15.4, ``obs`` 22.2, other 1.0. A change that lowers the count lowers
#: this figure with it.
CALLS_PER_REPLAYED = 163.5
#: headroom for an interpreter whose count differs
SLACK = 0.02
#: engine events the whole world fires, boot to the window's end
EVENTS_FIRED = 1068
#: requests of the lossy row
LOSSY_MESSAGES = 60
#: Python calls into src/repro per request of the lossy row: ``sim``
#: 58.3, ``net`` 220.4, ``demos`` 80.1, ``publishing`` 48.8, ``obs``
#: 66.1, other 1.8.
CALLS_PER_LOSSY_REQUEST = 475.4
#: engine events the lossy world fires, boot to the last reply
LOSSY_EVENTS_FIRED = 1437
PACKAGES = ("sim", "net", "demos", "publishing", "obs")
_ROOT = os.path.dirname(repro.__file__) + os.sep


def calls_by_package(fn: Callable[[], None]) -> Counter:
    """The Python calls into src/repro while ``fn()`` runs, by package."""
    calls: Counter = collections.Counter()

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(_ROOT) and not code.co_name.startswith("<"):
                top = path[len(_ROOT):].split(os.sep)[0]
                calls[top if top in PACKAGES else "other"] += 1

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def replay_ledger() -> Tuple[int, Counter, int]:
    """Build the world, crash the counter, count the replay window.
    Returns (messages replayed, calls by package, engine events fired)."""
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.boot()
    counter, driver = run_counter_scenario(system, n=MESSAGES)
    system.run(20_000)
    assert len(system.program_of(driver).replies) == MESSAGES
    system.crash_process(counter)
    calls = calls_by_package(lambda: system.run(5_000))
    stats = system.recovery.stats
    assert stats.recoveries_completed == 1
    return stats.messages_replayed, calls, system.engine.events_fired


def lossy_ledger() -> Tuple[Counter, int, int]:
    """Build the lossy world and count it from the first request to the
    last reply. Returns (calls by package, engine events fired,
    retransmissions)."""
    system = System(SystemConfig(nodes=2, medium="csma_ethernet",
                                 loss_rate=0.01, transport_window=4))
    register_test_programs(system)
    system.boot()

    driver = None

    def serve():
        nonlocal driver
        _, driver = run_counter_scenario(system, n=LOSSY_MESSAGES)
        while (len(system.program_of(driver).replies) < LOSSY_MESSAGES
               and system.engine.now < 60_000):
            system.run(100)

    calls = calls_by_package(serve)
    assert len(system.program_of(driver).replies) == LOSSY_MESSAGES
    retransmissions = sum(node.kernel.transport.stats.retransmissions.value
                          for node in system.nodes.values())
    return calls, system.engine.events_fired, retransmissions


def format_ledger(what: str, count: int, calls: Counter) -> str:
    split = "  ".join(f"{name} {calls[name] / count:.1f}"
                      for name in (*PACKAGES, "other"))
    return (f"Python calls per {what}: "
            f"{sum(calls.values()) / count:.1f}  ({split}; {count})")


@pytest.fixture(scope="module")
def ledger():
    return replay_ledger()


@pytest.fixture(scope="module")
def lossy():
    return lossy_ledger()


def test_calls_per_replayed_message_stay_under_the_pinned_bound(ledger):
    replayed, calls, _ = ledger
    print(format_ledger("replayed message", replayed, calls))
    assert replayed >= 50
    assert sum(calls.values()) / replayed <= CALLS_PER_REPLAYED * (1 + SLACK)


def test_the_world_fires_the_pinned_events(ledger):
    assert ledger[2] == EVENTS_FIRED


def test_calls_per_lossy_request_stay_under_the_pinned_bound(lossy):
    calls, _, retransmissions = lossy
    print(format_ledger("lossy request", LOSSY_MESSAGES, calls))
    assert retransmissions > 0          # the retry timers really fired
    assert sum(calls.values()) / LOSSY_MESSAGES <= \
        CALLS_PER_LOSSY_REQUEST * (1 + SLACK)


def test_the_lossy_world_fires_the_pinned_events(lossy):
    assert lossy[1] == LOSSY_EVENTS_FIRED


if __name__ == "__main__":
    replayed, calls, _ = replay_ledger()
    print(format_ledger("replayed message", replayed, calls))
    calls, _, _ = lossy_ledger()
    print(format_ledger("lossy request", LOSSY_MESSAGES, calls))
