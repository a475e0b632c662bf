"""Ablation: the three checkpoint policies the thesis discusses.

§3.2.3 (bound recovery time), §3.2.4 (Young's optimal interval), and
§5.1 (balance storage against checkpoint cost) give three different
triggers. This bench runs the same workload under each and reports the
trade-off triangle: checkpoints taken vs recorder storage held vs the
recovery-time bound at crash time.
"""

import pytest

from repro import System, SystemConfig
from repro.publishing.checkpoints import (
    RecoveryTimeBoundPolicy,
    StorageBalancePolicy,
    YoungIntervalPolicy,
    install_policy,
)

from _support import register_test_programs, run_counter_scenario
from conftest import once, print_table


def run_policy(name, policy):
    system = System(SystemConfig(nodes=2))
    register_test_programs(system)
    system.boot()
    if policy is not None:
        for node in system.nodes.values():
            install_policy(node, policy)
    counter_pid, driver_pid = run_counter_scenario(system, n=150)
    deadline = system.engine.now + 300_000
    while system.engine.now < deadline:
        driver = system.program_of(driver_pid)
        if driver is not None and len(driver.replies) >= 150:
            break
        system.run(1000)
    record = system.recorder.db.get(counter_pid)
    pcb = system.nodes[2].processes[counter_pid]
    estimator = RecoveryTimeBoundPolicy()
    return {
        "policy": name,
        "checkpoints": system.obs.bus.count("checkpoint", str(counter_pid)),
        "stored_bytes": record.valid_message_bytes(),
        "t_max_ms": estimator.estimate_t_max(pcb),
    }


def test_checkpoint_policy_tradeoffs(benchmark):
    def sweep():
        return [
            run_policy("none (replay everything)", None),
            # T_s is Figure 3.1's 10 ms/page
            run_policy("Young interval (Tf=4s)",
                       YoungIntervalPolicy(mtbf_ms=4_000.0)),
            run_policy("recovery bound 600 ms",
                       RecoveryTimeBoundPolicy(default_bound_ms=600.0)),
            run_policy("storage balance",
                       StorageBalancePolicy()),
        ]

    rows = once(benchmark, sweep)
    print_table(
        "Checkpoint policy ablation (150-message workload)",
        ["policy", "checkpoints", "stored msg bytes", "t_max at end (ms)"],
        [[r["policy"], r["checkpoints"], r["stored_bytes"],
          f"{r['t_max_ms']:.0f}"] for r in rows])
    by_name = {r["policy"]: r for r in rows}
    none = by_name["none (replay everything)"]
    bound = by_name["recovery bound 600 ms"]
    balance = by_name["storage balance"]
    # No checkpoints → maximal storage and unbounded-growing t_max.
    assert none["checkpoints"] == 0
    assert none["stored_bytes"] >= max(r["stored_bytes"] for r in rows)
    # The bound policy holds t_max at/below the bound (plus one message).
    assert bound["t_max_ms"] <= 600.0 + 25.0
    # Storage balance keeps stored bytes near the checkpoint size.
    assert balance["stored_bytes"] <= 3 * 4 * 1024
    # And every policy that checkpoints beats "none" on storage.
    for r in rows[1:]:
        assert r["stored_bytes"] <= none["stored_bytes"]
