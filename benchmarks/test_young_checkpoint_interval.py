"""§3.2.4 — Young's optimal checkpoint interval, T = sqrt(2·T_s·T_f).

Young's cost (checkpoint time between failures plus recompute time after
one) is evaluated over a sweep of intervals to confirm the closed form
sits at the numeric minimum, and the live system is run under the
Young policy to show the interval is honoured.
"""

import math

import pytest

from repro import System, SystemConfig
from repro.publishing.checkpoints import YoungIntervalPolicy, install_policy, young_interval

from _support import register_test_programs, run_counter_scenario
from conftest import once, print_table


def expected_cost(interval, save, mtbf):
    """First-order expected overhead per unit time (Young 74)."""
    return save / interval + interval / (2.0 * mtbf)


def test_young_formula_is_the_numeric_minimum(benchmark):
    save, mtbf = 50.0, 600_000.0     # 50 ms checkpoints, 10 min MTBF

    def sweep():
        optimum = young_interval(save, mtbf)
        grid = [optimum * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)]
        return optimum, [(t, expected_cost(t, save, mtbf)) for t in grid]

    optimum, rows = once(benchmark, sweep)
    print_table(f"Young interval sweep (T_s={save} ms, T_f={mtbf / 1000:.0f} s; "
                f"closed form = {optimum:.0f} ms)",
                ["interval (ms)", "expected overhead"],
                [[f"{t:.0f}", f"{c:.5f}"] for t, c in rows])
    best = min(rows, key=lambda r: r[1])
    assert best[0] == pytest.approx(optimum)


def test_young_policy_interval_honoured_live(benchmark):
    def run():
        system = System(SystemConfig(nodes=2))
        register_test_programs(system)
        system.boot()
        policy = YoungIntervalPolicy(mtbf_ms=40_000.0, save_ms_per_page=2.0)
        for node in system.nodes.values():
            install_policy(node.kernel, policy)
        counter_pid, _ = run_counter_scenario(system, n=200)
        system.run(30_000)
        times = [r.time for r in system.obs.bus.select("checkpoint",
                                                       str(counter_pid))]
        gaps = [b - a for a, b in zip(times, times[1:])]
        pcb = system.nodes[2].kernel.processes[counter_pid]
        return policy.interval_ms(pcb), gaps

    interval, gaps = once(benchmark, run)
    mean_gap = sum(gaps) / len(gaps) if gaps else float("nan")
    print_table("Young policy in the live system",
                ["quantity", "value (ms)"],
                [["target interval sqrt(2·Ts·Tf)", f"{interval:.0f}"],
                 ["mean observed gap", f"{mean_gap:.0f}"],
                 ["checkpoints taken", len(gaps) + 1]])
    assert gaps, "expected at least two checkpoints"
    # Gaps land at or slightly above the target (checkpoints trigger on
    # the first delivery after the interval elapses).
    assert mean_gap >= interval * 0.9
    assert mean_gap <= interval * 2.5
