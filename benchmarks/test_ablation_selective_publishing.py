"""§6.6.1 ablation — not publishing unrecoverable processes.

"The measurements also contained a number of I/O intensive processes.
Most prominent among these were the disk to tape backups, which
accounted for 15% of the messages in the maximum disk access rate
operating point. If these processes were not considered recoverable,
the recorder would be able to support one more VAX on the network."

Two views: the queuing-model capacity gain, and the live DEMOS/MP
behaviour (an unrecoverable process's intranode traffic skips the
network entirely, and the recorder stores nothing for it).
"""

import pytest

from repro import System, SystemConfig
from repro.queueing import OPERATING_POINTS
from repro.queueing.capacity import selective_publishing_gain

from _support import register_test_programs
from conftest import once, print_table


def test_capacity_gain_from_selective_publishing(benchmark):
    point = OPERATING_POINTS["max_message_rate"]
    gain = once(benchmark, selective_publishing_gain, point, 0.15)
    print_table("§6.6.1 — capacity with the disk-to-tape backups "
                "(15% of the messages) unpublished",
                ["configuration", "users", "nodes"],
                [["publish everything", gain["baseline_users"],
                  f"{gain['baseline_nodes']:.2f}"],
                 ["skip unrecoverable", gain["selective_users"],
                  f"{gain['selective_nodes']:.2f}"]])
    print(f"gain: {gain['extra_nodes']:.2f} nodes "
          f"(paper: 'one more VAX')")
    assert gain["selective_users"] > gain["baseline_users"]


def test_unrecoverable_process_not_published(benchmark):
    """Live-system half: messages to an unrecoverable process are not
    stored, and its intranode traffic never touches the network."""
    def run():
        system = System(SystemConfig(nodes=1))
        register_test_programs(system)
        system.boot()
        counter_pid = system.spawn_program("test/counter", node=1,
                                           recoverable=False)
        frames_before = system.medium.stats.frames_offered.value
        recorded_before = system.recorder.messages_recorded.value
        driver_pid = system.spawn_program(
            "test/driver", args=(tuple(counter_pid), 10), node=1)
        system.run(20_000)
        driver = system.program_of(driver_pid)
        return {
            "replies": len(driver.replies),
            "recorded_for_counter": len(
                system.recorder.db.get(counter_pid).arrivals)
            if system.recorder.db.get(counter_pid) else 0,
        }

    result = once(benchmark, run)
    print_table("§6.6.1 — unrecoverable counter, 10-message workload",
                ["quantity", "value"],
                [["driver replies (work still done)", result["replies"]],
                 ["messages stored for the counter",
                  result["recorded_for_counter"]]])
    assert result["replies"] == 10
    assert result["recorded_for_counter"] == 0
