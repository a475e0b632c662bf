"""The replay debugger (§6.5): offline re-execution of a published
history with breakpoints and state inspection."""

import pytest

from repro import System, SystemConfig
from repro.debugger import ReplayDebugger
from repro.demos.ids import MessageId
from repro.errors import RecordCorruptionError, ReproError
from repro.publishing.database import RecorderDatabase

from conftest import register_test_programs, run_counter_scenario
from fixtures import (CounterProgram, Diverged, Unrecorded,
                      assert_log_reproduces)


@pytest.fixture
def completed_run():
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.boot()
    counter_pid, driver_pid = run_counter_scenario(system, n=15)
    system.run(20_000)
    assert system.program_of(counter_pid).total == sum(range(1, 16))
    return system, counter_pid


class TestReplayDebugger:
    def test_full_replay_reaches_final_state(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        dbg.run_all()
        assert dbg.program.total == sum(range(1, 16))
        assert dbg.program.seen == list(range(1, 16))

    def test_single_step_shows_intermediate_state(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        step = dbg.step()
        assert step.step == 0
        assert dbg.program.total == 1
        step = dbg.step()
        assert dbg.program.total == 3

    def test_each_step_captures_sends(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        step = dbg.step()
        # The counter answered with ('total', 1) over the passed link:
        # the very message the driver's log holds.
        driver_log = system.recorder.db.get(step.message.src).arrivals
        assert step.sends == [driver_log[0].message]
        assert step.sends[0].msg_id == MessageId(counter_pid, 1)
        assert step.sends[0].body == ("total", 1)

    def test_run_to_breakpoint_by_count(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        dbg.run_to(9)
        assert len(dbg.steps) == 10
        assert dbg.program.total == sum(range(1, 11))

    def test_conditional_breakpoint(self, completed_run):
        """Find the exact step at which the total first exceeded 50 —
        the after-the-fact question §6.5 motivates."""
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        dbg.run_until(lambda d: d.program.total > 50)
        assert dbg.program.total == 55          # 1+2+...+10
        assert len(dbg.steps) == 10

    def test_state_snapshots_recorded_per_step(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        dbg.run_all()
        totals = [s.state_after["total"] for s in dbg.steps]
        assert totals == [sum(range(1, k + 1)) for k in range(1, 16)]

    def test_replay_from_checkpoint(self, completed_run):
        system, counter_pid = completed_run
        # Take a checkpoint now, push more traffic, then debug from it.
        assert system.checkpoint(counter_pid)
        system.run(2000)
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        assert dbg.program.total == sum(range(1, 16))   # restored state
        assert dbg.pcb.consumed == 15
        assert dbg.step() is None                        # nothing after ckpt

    def test_missing_image_rejected(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        record.image = ""
        with pytest.raises(ReproError):
            ReplayDebugger(record, system.registry)

    def test_finished_property(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        dbg = ReplayDebugger(record, system.registry)
        assert not dbg.finished
        dbg.run_all()
        assert dbg.finished


class LinkKeeper(CounterProgram):
    """A counter that keeps the id of a link it creates per message and
    tries to send on a link id it never held."""

    def __init__(self):
        super().__init__()
        self.kept = []
        self.stray_sends = []

    def on_message(self, ctx, m):
        super().on_message(ctx, m)
        spare = ctx.create_link()
        self.kept.append(ctx.create_link())
        ctx.destroy_link(spare)
        self.stray_sends.append(ctx.send(10_000, ("stray",)))


def counter_world(n, image="test/counter", checkpoints=()):
    """The counter/driver pair with ``n`` calls; the counter is
    checkpointed at each simulated time of ``checkpoints``."""
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.registry.register("test/keeper", LinkKeeper)
    system.boot()
    counter_pid = system.spawn_program(image, node=2)
    driver_pid = system.spawn_program(
        "test/driver", args=(tuple(counter_pid), n), node=1)
    for at in checkpoints:
        system.run(at - system.engine.now)
        assert system.checkpoint(counter_pid)
    system.run(20_000)
    return system, counter_pid, driver_pid


class TestReplayIsRecovery:
    """The debugger rebuilds a process the way recovery does."""

    def test_driver_replays_from_creation_with_its_initial_links(self):
        system, _, driver_pid = counter_world(5)
        record = system.recorder.db.get(driver_pid)
        assert record.checkpoint is None and record.initial_links
        dbg = ReplayDebugger(record, system.registry)
        live = system.program_of(driver_pid)
        assert dbg.program.target_link == live.target_link == 2
        dbg.run_all()
        assert dbg.program.snapshot() == live.snapshot()

    def test_link_ids_continue_from_a_mid_run_checkpoint(self):
        system, counter_pid, _ = counter_world(30, "test/keeper",
                                               checkpoints=(1500,))
        record = system.recorder.db.get(counter_pid)
        assert 0 < record.checkpoint.consumed < 30
        dbg = ReplayDebugger(record, system.registry)
        dbg.run_all()
        live = system.program_of(counter_pid)
        assert len(live.kept) == 30
        assert dbg.program.snapshot() == live.snapshot()

    def test_a_counter_checkpointed_ten_times_replays_to_its_total(self):
        system, counter_pid, _ = counter_world(
            60, checkpoints=range(800, 4800, 400))
        live = system.program_of(counter_pid)
        assert live.total == sum(range(1, 61))
        dbg = ReplayDebugger(system.recorder.db.get(counter_pid),
                             system.registry)
        dbg.run_all()
        assert dbg.program.total == live.total
        assert dbg.program.seen == live.seen

    def test_send_on_a_link_not_held_fails_in_the_replay(self):
        system, counter_pid, _ = counter_world(3, "test/keeper")
        dbg = ReplayDebugger(system.recorder.db.get(counter_pid),
                             system.registry)
        dbg.run_all()
        assert dbg.program.stray_sends == [False, False, False]
        assert dbg.program.stray_sends == system.program_of(
            counter_pid).stray_sends

    def test_a_record_that_fails_its_checksum_raises(self, completed_run):
        system, counter_pid = completed_run
        record = system.recorder.db.get(counter_pid)
        record.arrivals[3].checksum ^= 1
        dbg = ReplayDebugger(record, system.registry)
        with pytest.raises(RecordCorruptionError):
            dbg.run_all()


class TestLogOracle:
    def test_a_double_record_fails_the_check(self, monkeypatch):
        class LogTwice:
            """An adversary stage that logs ('add', 3) a second time."""

            def deliveries(self, message):
                extra = [(message, True)] if message.body == ("add", 3) else []
                return [(message, False)] + extra

            def note_confirmed(self, logged):
                pass

        deliver = RecorderDatabase.deliver
        monkeypatch.setattr(
            RecorderDatabase, "deliver",
            lambda db, message, record_for, stages=():
                deliver(db, message, record_for, (*stages, LogTwice())))
        system, counter_pid, _ = counter_world(5)
        assert system.program_of(counter_pid).total == 15
        with pytest.raises(Diverged):
            assert_log_reproduces(system, (counter_pid,))

    def test_a_process_with_no_recorded_image_is_unrecorded(
            self, completed_run):
        system, counter_pid = completed_run
        system.recorder.db.get(counter_pid).image = ""
        with pytest.raises(Unrecorded, match=r"item 1 \(v\)"):
            assert_log_reproduces(system, (counter_pid,))
