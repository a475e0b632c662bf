"""Measurement programs and meters for the §5.2 experiments.

The Figure 5.6 program, verbatim in spirit::

    startReal := Get_Real_Time;
    startCpu  := Get_Run_Time;
    for i in 1..512 do SendMessageToSelf; ReceiveMessage; od;
    realTime := (Get_Real_Time - startReal) / 512;
    cpuTime  := (Get_Run_Time - startCpu) / 512;

``Get_Run_Time`` "returns the CPU time that the kernel spends outside of
the idle loop" — our :class:`KernelMeter` reads the node CPU's kernel
milliseconds for that, and user milliseconds separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.demos.kernel import MessageKernel
from repro.demos.process import GeneratorProgram, Program, Recv
from repro.errors import ReproError
from repro.system import System

#: Body size used by the send-to-self measurement. 500 bytes puts the
#: medium transmission time near the thesis's "additional 2 ms".
MEASURE_BODY_BYTES = 500


@dataclass(frozen=True)
class MeterReading:
    """One snapshot of a node's clocks."""

    real_ms: float
    kernel_cpu_ms: float
    user_cpu_ms: float

    def minus(self, earlier: "MeterReading") -> "MeterReading":
        return MeterReading(self.real_ms - earlier.real_ms,
                            self.kernel_cpu_ms - earlier.kernel_cpu_ms,
                            self.user_cpu_ms - earlier.user_cpu_ms)


class KernelMeter:
    """Reads a node's real and CPU clocks (Get_Real_Time / Get_Run_Time)."""

    def __init__(self, kernel: MessageKernel):
        self.kernel = kernel

    def read(self) -> MeterReading:
        cpu = self.kernel.cpu
        return MeterReading(real_ms=self.kernel.engine.now,
                            kernel_cpu_ms=cpu.kernel_ms.value,
                            user_cpu_ms=cpu.user_ms.value)


class SendToSelfProgram(GeneratorProgram):
    """The Figure 5.6 measurement program."""

    handler_cpu_ms = 1.0   # the thesis's ~1 ms of user time per round

    def __init__(self, iterations: int = 512):
        super().__init__()
        self.iterations = iterations
        self.completed = 0

    def run(self, ctx):
        self_link = ctx.create_link(channel=0, code=0)
        for i in range(self.iterations):
            ctx.send(self_link, ("ping", i), size_bytes=MEASURE_BODY_BYTES)
            yield Recv()
            self.completed += 1


class NullProgram(Program):
    """The §5.2.1 "null process": created and destroyed, does nothing."""

    handler_cpu_ms = 0.1


class CreateDestroyProgram(GeneratorProgram):
    """The Figure 5.8 measurement: create and destroy a null process
    ``iterations`` times through the full PM → MS → kernel-process chain."""

    handler_cpu_ms = 0.5

    def __init__(self, iterations: int = 25):
        super().__init__()
        self.iterations = iterations
        self.completed = 0
        self.failures = 0

    def run(self, ctx):
        # Initial link 1 is the named-link server: find the PM.
        lookup_reply = ctx.create_link(channel=3)
        ctx.send(1, ("lookup", "process_manager"), pass_link_id=lookup_reply)
        answer = yield Recv.on(3)
        pm_link = answer.passed_link_id
        for _ in range(self.iterations):
            reply = ctx.create_link(channel=4)
            ctx.send(pm_link, ("create", "metrics/null", (), None, True, 1),
                     pass_link_id=reply)
            created = yield Recv.on(4)
            if (isinstance(created.body, tuple) and created.body
                    and created.body[0] == "created"
                    and created.passed_link_id is not None):
                ctx.send(created.passed_link_id, ("destroy",))
                ctx.destroy_link(created.passed_link_id)
                self.completed += 1
            else:
                self.failures += 1


def _measure_until(system: System, predicate, max_ms: float) -> None:
    if not system.wait_for(predicate, max_ms, step_ms=50.0):
        raise ReproError("measurement did not complete in time")


def measure_send_to_self(publishing: bool, iterations: int = 512,
                         system: Optional[System] = None) -> Dict[str, float]:
    """Run Figure 5.6 and return per-iteration real and CPU times.

    Reproduces Figure 5.7: ~10 ms real / 9 ms kernel CPU without
    publishing; ~38 ms real / 35 ms kernel CPU with it.
    """
    from repro.system import SystemConfig
    if system is None:
        system = System(SystemConfig(nodes=1, publishing=publishing))
        system.registry.register("metrics/send_to_self", SendToSelfProgram)
        system.boot()
    meter = KernelMeter(system.nodes[1])
    before = meter.read()
    pid = system.spawn_program("metrics/send_to_self", args=(iterations,), node=1)
    program = system.program_of(pid)
    _measure_until(system, lambda: program.completed >= iterations,
               max_ms=iterations * 100.0 + 5000.0)
    delta = meter.read().minus(before)
    return {
        "publishing": float(publishing),
        "iterations": float(iterations),
        "real_ms_per_iter": delta.real_ms / iterations,
        "kernel_cpu_ms_per_iter": delta.kernel_cpu_ms / iterations,
        "user_cpu_ms_per_iter": delta.user_cpu_ms / iterations,
    }


def measure_create_destroy(publishing: bool, iterations: int = 25
                           ) -> Dict[str, float]:
    """Run the Figure 5.8 measurement; returns total and per-iteration
    CPU time on the measured node."""
    from repro.system import SystemConfig
    system = System(SystemConfig(nodes=1, publishing=publishing))
    system.registry.register("metrics/null", NullProgram)
    system.registry.register("metrics/create_destroy", CreateDestroyProgram)
    system.boot()
    meter = KernelMeter(system.nodes[1])
    before = meter.read()
    pid = system.spawn_program("metrics/create_destroy", args=(iterations,), node=1)
    program = system.program_of(pid)
    _measure_until(system, lambda: program.completed + program.failures >= iterations,
               max_ms=iterations * 2000.0 + 10_000.0)
    delta = meter.read().minus(before)
    return {
        "publishing": float(publishing),
        "iterations": float(iterations),
        "completed": float(program.completed),
        "total_kernel_cpu_ms": delta.kernel_cpu_ms,
        "kernel_cpu_ms_per_iter": delta.kernel_cpu_ms / iterations,
    }


def measure_publishing_time(path: str, messages: int = 512) -> Dict[str, object]:
    """§5.2.2: CPU time the recorder spends publishing one message under
    each software path (57 / 12 / 0.8 ms)."""
    from repro.system import SystemConfig
    system = System(SystemConfig(nodes=1, publishing=True, publish_path=path))
    system.registry.register("metrics/send_to_self", SendToSelfProgram)
    system.boot()
    recorder = system.recorder
    cpu_before = recorder.cpu_busy_ms.value
    recorded_before = recorder.messages_recorded.value
    pid = system.spawn_program("metrics/send_to_self", args=(messages,), node=1)
    program = system.program_of(pid)
    _measure_until(system, lambda: program.completed >= messages,
               max_ms=messages * 150.0 + 5000.0)
    recorded = recorder.messages_recorded.value - recorded_before
    cpu = recorder.cpu_busy_ms.value - cpu_before
    return {
        "path": path,
        "messages_recorded": float(recorded),
        "publish_cpu_ms_per_message": cpu / max(1, recorded),
    }
