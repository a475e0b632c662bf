"""Figure 3.1 / §3.2.3 — the worked recovery-time example.

Paper values (t_cfix=100 ms, t_page=10 ms/page, t_mfix=2 ms,
t_byte=0.01 ms/B, f_cpu=0.5, 4-page checkpoint):

* immediately after the checkpoint: t_max = 140 ms;
* after 100 ms of computation:      t_max = 340 ms;
* after one further message:        + 2 ms + 0.01·length.
"""

import pytest

from repro.publishing.recovery_time import (
    RecoveryTimeModel,
    figure_3_1_example,
)

from conftest import once, print_table


def test_fig_3_1_worked_example(benchmark):
    example = once(benchmark, figure_3_1_example)
    print_table(
        "Figure 3.1 — recovery time bound",
        ["point in history", "paper t_max (ms)", "measured t_max (ms)"],
        [
            ["after 4-page checkpoint", 140.0,
             round(example["after_checkpoint_ms"], 1)],
            ["after 100 ms of compute", 340.0,
             round(example["after_compute_ms"], 1)],
            [f"after one {example['message_bytes']} B message",
             340.0 + 2.0 + 0.01 * example["message_bytes"],
             round(example["after_message_ms"], 1)],
        ])
    assert example["after_checkpoint_ms"] == pytest.approx(140.0)
    assert example["after_compute_ms"] == pytest.approx(340.0)


def test_t_max_growth_curve(benchmark):
    """The bound grows linearly in replay volume — the curve behind the
    checkpoint-when-bound-exceeded policy."""
    model = RecoveryTimeModel()

    def sweep():
        return [(n, model.t_max_ms(4, n, n * 256, n * 5.0))
                for n in (0, 10, 25, 50, 100, 200)]

    rows = once(benchmark, sweep)
    print_table("t_max vs messages since checkpoint (256 B msgs, 5 ms "
                "compute each)",
                ["messages", "t_max (ms)"],
                [[n, round(t, 1)] for n, t in rows])
    deltas = [rows[i + 1][1] - rows[i][1] for i in range(len(rows) - 1)]
    per_msg = [(rows[i + 1][1] - rows[i][1]) / (rows[i + 1][0] - rows[i][0])
               for i in range(len(rows) - 1)]
    assert all(abs(p - per_msg[0]) < 1e-9 for p in per_msg)   # linear
