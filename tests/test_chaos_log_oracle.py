"""The recorder's log is the oracle over the chaos programs and gossip
(ROADMAP item 13): every counter and driver of a run equals the replay
of its own log (``fixtures.assert_log_reproduces``), with no reference
run.

Two sets of runs:

* monkey campaigns, the chaos rig's workload: 24 seeds, 12 with gossip
  off and 12 with it on, each at ``transport_window`` 1 and 4 — 48 runs,
  96 processes, every one equal to its log;
* the gossip rig's four frontier cells at its smoke size, where the
  strict table ``KNOWN_GOSSIP_LOG_FAILURES`` names the processes that
  differ. A repair is logged at a fresh arrival index, so the replay
  feeds a repaired message after ones the live process received later
  (ROADMAP item 1 (vii)). A row that passes fails the test, and so does
  a failure with no row.
"""

import pytest

from repro import SystemConfig
from repro.chaos import monkey_campaign, run_scenario
from repro.parallel.runner import shard_seed
from repro.rigs import CHAOS_SETTLE_MS, GOSSIP_CELLS, RIGS, gossip_cell
from repro.sim.rng import RngStreams

from fixtures import Diverged, assert_log_reproduces

#: the monkey seeds: ``w`` runs without gossip, ``g`` with it
SEEDS = [(shard_seed(1983, f"{tag}/{k:03d}"), tag == "g")
         for tag in ("w", "g") for k in range(12)]


def monkey_run(seed, gossip, window):
    campaign = monkey_campaign(RngStreams(seed), [1, 2, 3],
                               duration_ms=2500.0)
    config = SystemConfig(nodes=3, master_seed=seed,
                          checkpoint_policy="storage",
                          transport_window=window, gossip=gossip)
    return run_scenario(campaign, config, pairs=1, messages=8,
                        settle_ms=CHAOS_SETTLE_MS)


def test_every_monkey_run_equals_its_log():
    checked = 0
    for seed, gossip in SEEDS:
        for window in (1, 4):
            result = monkey_run(seed, gossip, window)
            for pair in result.pairs:
                assert_log_reproduces(result.system, pair)
                checked += len(pair)
    assert checked == 96


#: (mode, loss rate, buffer depth, role) of each gossip-cell process that
#: differs from its log
KNOWN_GOSSIP_LOG_FAILURES = {
    ("gossip", 0.15, 64, "counter"),
    ("gossip", 0.3, 16, "counter"),
    ("gossip", 0.3, 16, "driver"),
}


def test_gossip_cells_equal_their_logs_but_the_known_rows():
    messages = RIGS["gossip"].smoke["messages"]
    failing = set()
    for cell in GOSSIP_CELLS:
        result = gossip_cell(1983, *cell, messages=messages)
        (driver, counter), = result.pairs
        for role, pid in (("driver", driver), ("counter", counter)):
            try:
                assert_log_reproduces(result.system, [pid])
            except Diverged:
                failing.add((*cell, role))
    assert failing == KNOWN_GOSSIP_LOG_FAILURES


def test_a_repair_replays_out_of_reception_order():
    """What the rows mean: the live processes saw their messages in
    order, and their logs replay each repaired message where it was
    logged."""
    for cell, role, live, replayed in (
            (("gossip", 0.15, 64), "counter",
             "'seen': [1, 2, 3, 4, 5, 6, 7, 8]",
             "'seen': [1, 3, 2, 4, 5, 6, 8, 7]"),
            (("gossip", 0.3, 16), "driver",
             "'replies': [1, 3, 6, 10, 15, 21, 28, 36]",
             "'replies': [1, 6, 15, 21, 3, 10, 28, 36]")):
        result = gossip_cell(1983, *cell, messages=8)
        (driver, counter), = result.pairs
        pid = counter if role == "counter" else driver
        with pytest.raises(Diverged) as failure:
            assert_log_reproduces(result.system, [pid])
        assert live in str(failure.value) and replayed in str(failure.value)
