"""Property-based end-to-end tests: recovery correctness must hold for
*any* crash time, any victim, and any lossy network within bounds."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GeneratorProgram, Recv, System, SystemConfig
from repro.net.faults import FaultPlan
from repro.net.media import NetworkInterface, PerfectBroadcast
from repro.net.transport import Transport, TransportConfig
from repro.sim import Engine, RngStreams

from conftest import expected_totals, register_test_programs, run_counter_scenario

N = 20


def run_with_crash(crash_at_ms, victim, seed):
    system = System(SystemConfig(nodes=2, master_seed=seed))
    register_test_programs(system)
    system.boot()
    counter_pid, driver_pid = run_counter_scenario(system, n=N)
    system.run(crash_at_ms)
    pid = counter_pid if victim == "counter" else driver_pid
    if system.process_state(pid) in ("running",):
        system.crash_process(pid)
    deadline = system.engine.now + 300_000
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= N:
            break
        system.run(1000)
    return (system.program_of(driver_pid).replies,
            system.program_of(counter_pid).seen)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(crash_at=st.integers(50, 2500),
       victim=st.sampled_from(["counter", "driver"]),
       seed=st.integers(1, 100))
def test_recovery_exact_for_any_crash_time(crash_at, victim, seed):
    replies, seen = run_with_crash(float(crash_at), victim, seed)
    assert replies == expected_totals(N)
    assert seen == list(range(1, N + 1))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(1, 10_000),
       loss=st.floats(0.0, 0.25),
       count=st.integers(1, 30))
def test_transport_exactly_once_in_order_under_loss(seed, loss, count):
    """The §4.3.3 guarantees (no duplication, no loss, in order) must
    hold for any loss rate the retransmission budget can absorb."""
    engine = Engine()
    faults = FaultPlan(rng=RngStreams(seed), loss_rate=loss)
    medium = PerfectBroadcast(engine, faults=faults)
    got = []
    t1 = Transport(engine, medium, 1, lambda s: None,
                   TransportConfig(retransmit_timeout_ms=20.0))
    t2 = Transport(engine, medium, 2, lambda s: got.append(s.body),
                   TransportConfig(retransmit_timeout_ms=20.0))
    for i in range(count):
        t1.send(2, i, 128, uid=("p", i))
    engine.run(until=120_000)
    assert got == list(range(count))


class ChannelSummer(GeneratorProgram):
    """Alternates between selective and open receives — the worst case
    for replay ordering."""

    def __init__(self):
        super().__init__()
        self.log = []

    def run(self, ctx):
        while True:
            urgent = yield Recv.on(9)
            self.log.append(("u", urgent.body))
            normal = yield Recv()
            self.log.append(("n", normal.body))


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(crash_at=st.integers(300, 2000), seed=st.integers(1, 50))
def test_generator_with_channels_recovers_identically(crash_at, seed):
    from repro.demos.ids import kernel_pid
    from repro.demos.links import Link

    system = System(SystemConfig(nodes=2, master_seed=seed))
    system.registry.register("prop/summer", ChannelSummer)
    system.boot()
    pid = system.spawn_program("prop/summer", node=2)
    system.run(200)
    k1 = system.nodes[1]
    sender = k1.processes[kernel_pid(1)]
    normal = k1.forge_link(sender, Link(dst=pid, channel=0))
    urgent = k1.forge_link(sender, Link(dst=pid, channel=9))
    for i in range(6):
        k1.syscall_send(sender, normal, ("n", i), None, 64)
        k1.syscall_send(sender, urgent, ("u", i), None, 64)
    # Record the crash-free consumption pattern first.
    system.run(60_000)
    log_clean = list(system.program_of(pid).log)

    # Re-run with a crash at an arbitrary point.
    system2 = System(SystemConfig(nodes=2, master_seed=seed))
    system2.registry.register("prop/summer", ChannelSummer)
    system2.boot()
    pid2 = system2.spawn_program("prop/summer", node=2)
    system2.run(200)
    k1b = system2.nodes[1]
    sender_b = k1b.processes[kernel_pid(1)]
    normal_b = k1b.forge_link(sender_b, Link(dst=pid2, channel=0))
    urgent_b = k1b.forge_link(sender_b, Link(dst=pid2, channel=9))
    for i in range(6):
        k1b.syscall_send(sender_b, normal_b, ("n", i), None, 64)
        k1b.syscall_send(sender_b, urgent_b, ("u", i), None, 64)
    system2.run(float(crash_at))
    if system2.process_state(pid2) == "running":
        system2.crash_process(pid2)
    system2.run(90_000)
    assert system2.program_of(pid2).log == log_clean
