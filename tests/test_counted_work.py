"""Counted work per replayed message, pinned without a clock.

One process on a two-node cluster takes 60 requests, crashes, and is
recovered (§4.7): the recovery process re-sends every published message
to it as a ``Replay`` control while the watchdogs keep pinging (§4.6).
The ledger is the Python ``call`` events whose code lives under
``src/repro`` from the crash to the end of the window, split by
top-level package. Comprehensions and lambdas (names starting with
``<``) are skipped: Python 3.12 inlines comprehensions (PEP 709), and
the count must not depend on that. The count is the same on every
interpreter of the CI matrix, so each package's total is pinned
exactly: one extra call per message fails it.

A second row counts a small lossy world where retry timers fire: the
same counter and driver on CSMA/CD with 1 % frame loss and a transport
window of 4, from the first request to the last reply.

Run as a script to print the ledger; it needs no pytest, so it runs on
any interpreter that can import ``repro``::

    PYTHONPATH=src python tests/test_counted_work.py
"""

import collections
import functools
import os
import sys
from typing import Callable, Counter, Tuple

import repro
from repro import System, SystemConfig
from repro.demos.ids import MessageId, ProcessId
from repro.demos.messages import Message
from repro.net import frames
from repro.net.frames import Frame, FrameKind
from repro.net.transport import Segment

from fixtures import count_calls, register_test_programs, run_counter_scenario

#: requests the driver sends before the crash, all of them replayed
MESSAGES = 60
#: Python calls into src/repro over the replay window, by package: per
#: replayed message ``sim`` 17.6, ``net`` 65.0, ``demos`` 31.6,
#: ``publishing`` 15.4, ``obs`` 22.2, other 1.0 — 152.8 in all. A
#: change that lowers the count lowers these figures with it.
CALLS_REPLAYED = {"sim": 1053, "net": 3901, "demos": 1896,
                  "publishing": 923, "obs": 1331, "other": 61}
#: engine events the whole world fires, boot to the window's end
EVENTS_FIRED = 1068
#: requests of the lossy row
LOSSY_MESSAGES = 60
#: Python calls into src/repro from the first request to the last reply
#: of the lossy row, by package: per request ``sim`` 58.3, ``net``
#: 189.2, ``demos`` 80.1, ``publishing`` 48.8, ``obs`` 66.1, other 1.8
#: — 444.2 in all.
CALLS_LOSSY = {"sim": 3497, "net": 11351, "demos": 4806,
               "publishing": 2925, "obs": 3964, "other": 107}
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


def fresh_key_memo() -> None:
    """Empty the wire encoding's process-wide memo of dict keys: once it
    is full, every key it lacks costs a call, so a count taken after
    other tests filled it would depend on which ran first."""
    frames._KEY_IMAGES.clear()


@functools.lru_cache(maxsize=None)
def replay_ledger() -> Tuple[int, Counter, int]:
    """Build the world, crash the counter, count the replay window.
    Returns (messages replayed, calls by package, engine events fired)."""
    fresh_key_memo()
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


@functools.lru_cache(maxsize=None)
def lossy_ledger() -> Tuple[Counter, int, int]:
    """Build the lossy world and count it from the first request to the
    last reply. Returns (calls by package, engine events fired,
    retransmissions)."""
    fresh_key_memo()
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
    retransmissions = sum(node.transport.stats.retransmissions.value
                          for node in system.nodes.values())
    return calls, system.engine.events_fired, retransmissions


def format_ledger(what: str, count: int, calls: Counter) -> str:
    split = "  ".join(f"{name} {calls[name] / count:.1f}"
                      for name in (*PACKAGES, "other"))
    total = sum(calls.values())
    return (f"Python calls per {what}: {total / count:.1f}  ({split}; "
            f"{total} calls / {count})")


def test_calls_per_replayed_message_are_the_pinned_ledger():
    replayed, calls, _ = replay_ledger()
    print(format_ledger("replayed message", replayed, calls))
    assert replayed == MESSAGES
    assert dict(calls) == CALLS_REPLAYED


def test_the_world_fires_the_pinned_events():
    assert replay_ledger()[2] == EVENTS_FIRED


def test_calls_per_lossy_request_are_the_pinned_ledger():
    calls, _, retransmissions = lossy_ledger()
    print(format_ledger("lossy request", LOSSY_MESSAGES, calls))
    assert retransmissions > 0          # the retry timers really fired
    assert dict(calls) == CALLS_LOSSY


def test_the_lossy_world_fires_the_pinned_events():
    assert lossy_ledger()[1] == LOSSY_EVENTS_FIRED


def test_building_a_frame_walks_and_checksums_nothing():
    """A frame carries its payload's CRC by definition: building one
    encodes nothing, and only reading the checksum walks and sums."""
    pid = ProcessId(1, 2)
    message = Message(MessageId(pid, 1), pid, ProcessId(2, 1), 0, 0,
                      ("add", 1))
    segment = Segment(tuple(message.msg_id), 1, 2, message)
    encoding = (frames._walk, frames.crc16)
    built = []
    assert count_calls(lambda: built.append(
        Frame(FrameKind.DATA, 1, 2, segment, 160)), within=encoding) == 0
    frame, = built
    assert frame.checksum_ok()
    # the segment, the message walked whole inside it, the CRC
    assert count_calls(lambda: frame.checksum, within=encoding) == 3


if __name__ == "__main__":
    replayed, calls, _ = replay_ledger()
    print(format_ledger("replayed message", replayed, calls))
    calls, _, _ = lossy_ledger()
    print(format_ledger("lossy request", LOSSY_MESSAGES, calls))
