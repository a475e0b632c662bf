"""§6.1 — the cost of publishing on each supported medium.

The thesis argues each LAN type can support the recorder
acknowledgement with a medium-specific mechanism. This bench runs the
same request/reply workload over every medium model and reports
completion time, frames on the wire, and retransmissions — the
practical price of each §6.1 design.
"""

import pytest

from repro import System, SystemConfig

from _support import register_test_programs, run_counter_scenario
from conftest import once, print_table

MEDIA = ["broadcast", "acking_ethernet", "csma_ethernet", "star",
         "token_ring"]
N = 25


def run_medium(medium, **faults):
    system = System(SystemConfig(nodes=2, medium=medium, **faults))
    register_test_programs(system)
    system.boot()
    start = system.engine.now
    counter_pid, driver_pid = run_counter_scenario(system, n=N)
    deadline = system.engine.now + 600_000
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= N:
            break
        system.run(500)
    retx = sum(node.kernel.transport.stats.retransmissions.value
               for node in system.nodes.values())
    return {
        "medium": medium,
        "elapsed_ms": system.engine.now - start,
        "frames": system.medium.stats.frames_offered.value,
        "retransmissions": retx,
        "recorded": system.recorder.messages_recorded.value,
        "complete": len(system.program_of(driver_pid).replies) >= N,
        "dead_letters": len(system.dead_letters),
    }


def test_media_comparison(benchmark):
    def sweep():
        return [run_medium(m) for m in MEDIA]

    rows = once(benchmark, sweep)
    print_table(
        f"§6.1 — the same {N}-message workload on every medium",
        ["medium", "complete", "elapsed (sim ms)", "frames offered",
         "retransmissions", "messages recorded"],
        [[r["medium"], r["complete"], f"{r['elapsed_ms']:.0f}",
          r["frames"], r["retransmissions"], r["recorded"]] for r in rows])
    assert all(r["complete"] for r in rows)
    # Every medium published the full workload for the counter.
    assert all(r["recorded"] >= N for r in rows)
    by_name = {r["medium"]: r for r in rows}
    # The reserved ack slot spares the acking Ethernet the CSMA
    # variant's retransmission/collision churn.
    assert (by_name["acking_ethernet"]["elapsed_ms"]
            <= by_name["csma_ethernet"]["elapsed_ms"] * 1.5)


def test_media_comparison_on_a_lossy_wire(benchmark):
    """The same sweep with 2 % of copies lost and 2 % corrupted: what
    each medium's retransmissions cost, and that every one of them
    still completes (the ring and the star used to acknowledge copies
    nobody received and stall a few replies in)."""
    def sweep():
        return [run_medium(m, loss_rate=0.02, corruption_rate=0.02)
                for m in MEDIA]

    rows = once(benchmark, sweep)
    print_table(
        f"§6.1 — {N} messages, loss_rate=0.02, corruption_rate=0.02",
        ["medium", "complete", "elapsed (sim ms)", "frames offered",
         "retransmissions", "dead letters"],
        [[r["medium"], r["complete"], f"{r['elapsed_ms']:.0f}",
          r["frames"], r["retransmissions"], r["dead_letters"]]
         for r in rows])
    assert all(r["complete"] for r in rows)
    assert not any(r["dead_letters"] for r in rows)
    assert all(r["recorded"] >= N for r in rows)
