"""The paper's own mechanisms as the ``pipeline`` rig runs them
(``pipeline.paper`` in ``BENCH_publishing.json``): §4.4.2's read-order
advisories, §3.3.3's spare takeover and §4.4.3's process control.

Each phase must pass, and every process it ran must equal the replay of
its own log (item 13's oracle, ``fixtures.assert_log_reproduces``). The
advisories are what keeps the out-of-order phase's recovery equal: with
the recorder ignoring them, the recovered worker takes its messages in
another order than the live one did.
"""

from unittest import mock

import pytest

from repro.chaos.workload import ProcessController
from repro.debugger import ReplayDebugger
from repro.publishing.recorder import Recorder
from repro.rigs import (
    paper_mechanisms,
    process_control_phase,
    read_order_phase,
)

from fixtures import assert_log_reproduces

@pytest.fixture(scope="module")
def phases():
    return paper_mechanisms(1983, 12)


@pytest.mark.parametrize("name", ["process_control", "read_order", "spare"])
def test_every_process_of_a_paper_phase_equals_its_log(phases, name):
    system, pids, facts = phases[name]
    assert facts["ok"], facts
    assert_log_reproduces(system, pids)


def test_the_worker_reads_past_the_head_and_recovers_in_that_order(phases):
    system, (worker, normal, urgent), facts = phases["read_order"]
    # the urgent driver's two requests, read past the normal driver's
    # first, then the normal driver's three
    assert system.program_of(worker).seen == [1, 2, 1, 2, 3]
    assert len(system.recorder.db.get(worker).advisories) == 2
    assert [len(system.program_of(pid).replies)
            for pid in (normal, urgent)] == [3, 2]
    # the checkpoint covered the first urgent request only: the normal
    # one queued ahead of it is replayed, not invalidated
    assert facts["consumed"] == 5 and facts["messages_replayed"] == 4


def test_without_read_order_advisories_the_recovery_diverges():
    with mock.patch.object(Recorder, "_on_read_order",
                           lambda self, control, src_node: None):
        system, (worker, _, _), facts = read_order_phase(1983)
    assert not facts["ok"]
    assert system.program_of(worker).seen != [1, 2, 1, 2, 3]


def test_the_spare_assumes_the_failed_identity(phases):
    system, (driver, counter), facts = phases["spare"]
    assert facts["takeovers"] == 1
    assert system.nodes[2].up and counter in system.nodes[2].processes
    assert system.program_of(counter).total == sum(range(1, 13))
    assert len(system.program_of(driver).replies) == 12


def test_movelink_and_stop_resume_run_through_the_kernel_process(phases):
    system, (controller, child), facts = phases["process_control"]
    record = system.recorder.db.get(child)
    # MOVELINK, its install, the stop and the resume: the child's stream
    assert facts["controls"] == 4
    assert sum(lm.is_control for lm in record.arrivals) == 4
    assert [link.dst for _, link in system.nodes[1].processes[child].links
            if link.code == ProcessController.MOVED_CODE] == [controller]


def test_the_debugger_runs_delivertokernel_records_as_the_kernel_process():
    """Offline, the child's MOVELINK record sends the fetch request in
    the child's name, as the node's kernel process did live (§4.4.3)."""
    system, (controller, child), _ = process_control_phase(1983)
    replay = ReplayDebugger(system.recorder.db.get(child), system.registry)
    replay.run_all()
    fetches = [m for m in replay.sent if m.body[0] == "fetch_link"]
    assert len(fetches) == 1 and fetches[0].dst == controller
    assert fetches[0].deliver_to_kernel
    assert any(link.code == ProcessController.MOVED_CODE
               for _, link in replay.pcb.links)
