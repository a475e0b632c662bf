"""One crash at every strided event boundary of a small world.

The simulation is a pure function of (config, seed, fault schedule), so
a fault can be placed at an event boundary instead of a sampled
instant: run the world for ``k`` events, apply one crash, run 120 s
more. The world is the two-node counter/driver pair (20 calls, counter
on node 2, driver on node 1).

The oracle is program ownership: every ``setup`` and ``on_message``
runs in a program that its kernel's process table holds, in a pcb that
is alive. A crash kills the pcbs it takes with it, so no work queued
before the crash may run afterwards in their name. Reply counts are not
checked here.
"""

import pytest

from repro import System, SystemConfig

from fixtures import CounterProgram, DriverProgram

#: medium → the event boundaries the cell crashes at
BOUNDARIES = {
    "broadcast": range(1, 241, 5),
    "csma_ethernet": range(1, 621, 25),
}

CRASHES = ("counter process", "driver process", "counter node", "driver node")


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


def escapes_after_crash(medium, boundary, crash):
    """The handlers that ran outside their pcb after ``crash`` at
    event ``boundary``."""
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
    system.run(120_000)
    return escapes


@pytest.mark.parametrize("medium", sorted(BOUNDARIES))
def test_no_handler_runs_outside_its_pcb_after_a_crash(medium):
    failing = [(k, crash) for k in BOUNDARIES[medium] for crash in CRASHES
               if escapes_after_crash(medium, k, crash)]
    assert failing == []
