"""§6.6.2 ablation — recovering nodes rather than processes.

"The greatest steady state cost incurred by publishing messages is the
routing of intranode messages onto the network." Treating the node as
one deterministic unit would remove that cost, at the price of one
receipt report to the recorder per extranode input.

This is the kernel-level half of the ablation: what an intranode
message costs when it is published (process-grain recovery) against
when it is kept local, both on the real DEMOS/MP kernel. The node-grain
mode itself is not built (EXPERIMENTS.md, §6.6.2).
"""

import pytest

from repro.metrics import measure_send_to_self

from conftest import once, print_table


def test_intranode_broadcast_cost(benchmark):
    """Process-grain publishing pays ~26 ms of protocol CPU per
    intranode message; node-grain recovery would pay none of it."""
    def both():
        return (measure_send_to_self(publishing=True, iterations=128),
                measure_send_to_self(publishing=False, iterations=128))

    published, local = once(benchmark, both)
    saved = (published["kernel_cpu_ms_per_iter"]
             - local["kernel_cpu_ms_per_iter"])
    print_table("§6.6.2 — per intranode message cost",
                ["configuration", "kernel CPU (ms)"],
                [["process-grain publishing (broadcast)",
                  f"{published['kernel_cpu_ms_per_iter']:.1f}"],
                 ["node-grain recovery (local delivery)",
                  f"{local['kernel_cpu_ms_per_iter']:.1f}"]])
    print(f"CPU saved per intranode message: {saved:.1f} ms "
          f"(paper: the protocol's ~26 ms)")
    assert saved == pytest.approx(26.0, abs=1.0)
