"""One crash at every strided event boundary of a small world.

The simulation is a pure function of (config, seed, fault schedule), so
a fault can be placed at an event boundary instead of a sampled
instant: run the world for ``k`` events, apply one crash, then settle
(``System.settle``: run until the system is quiet). The world is the
two-node counter/driver pair (20 calls, counter on node 2, driver on
node 1, transport window 1).

Each run is checked by two oracles:

* program ownership: every ``setup`` and ``on_message`` runs in a
  program that its kernel's process table holds, in a pcb that is
  alive. A crash kills the pcbs it takes with it, so no work queued
  before the crash may run afterwards in their name;
* the recorder's log (``fixtures.assert_log_reproduces``): the counter
  and the driver each equal the replay of their own log. The points
  where one does not are the strict table ``KNOWN_LOG_FAILURES``.

A run that does not settle is recorded with the state ``settle`` names.
Reply counts are not checked here.
"""

import pytest

from repro import System, SystemConfig
from repro.errors import SettleError

from fixtures import (CounterProgram, Diverged, DriverProgram, Unrecorded,
                      assert_log_reproduces)

#: medium → the event boundaries the cell crashes at
BOUNDARIES = {
    "broadcast": range(1, 241, 5),
    "csma_ethernet": range(1, 621, 25),
}

CRASHES = ("counter process", "driver process", "counter node", "driver node")

#: (medium, crash, failure class) → the boundaries of the cell at which
#: a process differs from its own log. The table is strict: a row that
#: passes fails the cell, and so does a failure with no row.
#: - Unrecorded, ROADMAP item 1 (v): the node crashed before the
#:   recorder held the process's creation, and the process is gone.
#: - Diverged, ROADMAP item 1: the recovered driver holds 21 replies,
#:   ('total', 91) twice, where its log holds 20.
KNOWN_LOG_FAILURES = {
    ("broadcast", "counter node", Unrecorded): (1, 6, 11),
    ("broadcast", "driver node", Unrecorded): (1, 6, 11, 16),
    ("csma_ethernet", "counter node", Unrecorded): (1, 26, 51, 76, 101),
    ("csma_ethernet", "driver node", Unrecorded): (1, 26, 51, 76),
    ("csma_ethernet", "driver node", Diverged): (351,),
}


class _Owned:
    """Records each handler that runs outside a live, tabled pcb."""

    escapes: list       # set on each world's subclasses

    def attach_kernel(self, kernel):
        self._ctx_kernel = kernel

    def _check(self, ctx, handler):
        pcb = self._ctx_kernel.processes.get(ctx.pid)
        if pcb is None or pcb.program is not self or not pcb.alive():
            self.escapes.append(handler)

    def setup(self, ctx):
        self._check(ctx, "setup")
        super().setup(ctx)

    def on_message(self, ctx, m):
        self._check(ctx, "on_message")
        super().on_message(ctx, m)


def crash_at(medium, boundary, crash):
    """Run the world with ``crash`` at event ``boundary``. Returns the
    handlers that ran outside their pcb, the class of the log check's
    failure (None when both processes equal their logs), and the state
    that kept the run from settling (None when it settled)."""
    escapes = []
    system = System(SystemConfig(nodes=2, medium=medium))
    owned = {"escapes": escapes}
    system.registry.register(
        "test/counter", type("Counter", (_Owned, CounterProgram), owned))
    system.registry.register(
        "test/driver", type("Driver", (_Owned, DriverProgram), owned))
    system.boot()
    counter_pid = system.spawn_program("test/counter", node=2)
    driver_pid = system.spawn_program(
        "test/driver", args=(tuple(counter_pid), 20), node=1)
    system.engine.run(max_events=boundary)
    if crash == "counter process":
        system.crash_process(counter_pid)
    elif crash == "driver process":
        system.crash_process(driver_pid)
    elif crash == "counter node":
        system.crash_node(counter_pid.node)
    else:
        system.crash_node(driver_pid.node)
    try:
        system.settle()
        unsettled = None
    except SettleError as error:
        unsettled = str(error)
    try:
        assert_log_reproduces(system, (counter_pid, driver_pid))
    except (Unrecorded, Diverged) as failure:
        return escapes, type(failure), unsettled
    return escapes, None, unsettled


@pytest.fixture(scope="module", params=sorted(BOUNDARIES))
def cell(request):
    medium = request.param
    return medium, {(k, crash): crash_at(medium, k, crash)
                    for k in BOUNDARIES[medium] for crash in CRASHES}


def test_no_handler_runs_outside_its_pcb_after_a_crash(cell):
    _, runs = cell
    assert [point for point, (escapes, _, _) in runs.items() if escapes] == []


def test_every_run_settles(cell):
    _, runs = cell
    assert {point: state for point, (_, _, state) in runs.items()
            if state is not None} == {}


def test_every_process_equals_its_log_but_the_known_rows(cell):
    medium, runs = cell
    failing = {(crash, failure, k)
               for (k, crash), (_, failure, _) in runs.items()
               if failure is not None}
    known = {(crash, failure, k)
             for (row_medium, crash, failure), ks in KNOWN_LOG_FAILURES.items()
             if row_medium == medium for k in ks}
    assert failing == known
