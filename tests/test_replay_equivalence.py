"""Property: the offline replay debugger re-derives exactly the state
the live process reached, for arbitrary message patterns — the §6.5
claim that replayed execution *is* the real execution."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Program, System, SystemConfig
from repro.debugger import ReplayDebugger
from repro.demos.ids import kernel_pid
from repro.demos.links import Link


class Machine(Program):
    """A little state machine with order-sensitive, branching behaviour."""

    def __init__(self):
        super().__init__()
        self.value = 0
        self.trace = []

    def on_message(self, ctx, m):
        op, arg = m.body
        if op == "add":
            self.value += arg
        elif op == "mul":
            self.value *= arg
        elif op == "cap":
            if self.value > arg:
                self.value = arg
        self.trace.append(self.value)


ops = st.tuples(st.sampled_from(["add", "mul", "cap"]),
                st.integers(-5, 5))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(ops, min_size=1, max_size=25))
def test_debugger_replay_equals_live_execution(script):
    system = System(SystemConfig(nodes=1))
    system.registry.register("prop/machine", Machine)
    system.boot()
    pid = system.spawn_program("prop/machine", node=1)
    system.run(200)
    kernel = system.nodes[1]
    sender = kernel.processes[kernel_pid(1)]
    link = kernel.forge_link(sender, Link(dst=pid))
    for op in script:
        kernel.syscall_send(sender, link, op, None, 64)
    system.run(60_000)
    live = system.program_of(pid)
    assert len(live.trace) == len(script)

    record = system.recorder.db.get(pid)
    debugger = ReplayDebugger(record, system.registry)
    debugger.run_all()
    assert debugger.program.value == live.value
    assert debugger.program.trace == live.trace


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(ops, min_size=3, max_size=20),
       crash_after=st.integers(1, 18))
def test_recovered_state_equals_live_state(script, crash_after):
    """Recovery is just the debugger's replay run by the system: after a
    crash at any point, the rebuilt state matches the crash-free one."""
    def final_state(crash):
        system = System(SystemConfig(nodes=1))
        system.registry.register("prop/machine", Machine)
        system.boot()
        pid = system.spawn_program("prop/machine", node=1)
        system.run(200)
        kernel = system.nodes[1]
        sender = kernel.processes[kernel_pid(1)]
        link = kernel.forge_link(sender, Link(dst=pid))
        for op in script:
            kernel.syscall_send(sender, link, op, None, 64)
        if crash:
            system.run(200 + 40 * min(crash_after, len(script)))
            if system.process_state(pid) == "running":
                system.crash_process(pid)
        deadline = system.engine.now + 240_000
        while system.engine.now < deadline:
            program = system.program_of(pid)
            if (program is not None and len(program.trace) >= len(script)
                    and system.process_state(pid) == "running"):
                break
            system.run(1000)
        program = system.program_of(pid)
        return program.value, tuple(program.trace)

    assert final_state(crash=True) == final_state(crash=False)
