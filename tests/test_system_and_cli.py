"""Tests for the System builder, its configuration surface, and the CLI."""

import pytest

from repro import System, SystemConfig
from repro.__main__ import main as cli_main
from repro.errors import ConfigError, PlacementError, ReproError
from repro.publishing.checkpoints import MTBF_MS

from conftest import register_test_programs


class TestSystemConfig:
    def test_unknown_medium_rejected(self):
        with pytest.raises(ReproError):
            System(SystemConfig(medium="carrier-pigeon"))

    def test_no_publishing_builds_no_recorder(self):
        system = System(SystemConfig(nodes=1, publishing=False))
        assert system.recorder is None
        assert system.recovery is None

    def test_crash_recorder_requires_recorder(self):
        system = System(SystemConfig(nodes=1, publishing=False))
        with pytest.raises(ReproError):
            system.crash_recorder()

    def test_first_node_id_offsets_everything(self):
        system = System(SystemConfig(nodes=2, first_node_id=50))
        assert sorted(system.nodes) == [50, 51]
        system.boot()
        assert system.process_state(
            __import__("repro").ProcessId(50, 1)) == "running"

    def test_callers_config_is_left_as_it_was_given(self):
        from dataclasses import asdict
        config = SystemConfig(nodes=2, first_node_id=101)
        before = asdict(config)
        system = System(config)
        system.boot()
        assert system.config is not config
        assert asdict(config) == before

    def test_spawn_requires_booted_node(self):
        system = System(SystemConfig(nodes=1))
        register_test_programs(system)
        with pytest.raises(ReproError):
            system.spawn_program("test/counter", node=1)

    def test_crash_unknown_process_rejected(self):
        system = System(SystemConfig(nodes=1))
        system.boot()
        with pytest.raises(ReproError):
            system.crash_process(__import__("repro").ProcessId(1, 99))

    def test_checkpoint_all_counts(self):
        system = System(SystemConfig(nodes=2))
        register_test_programs(system)
        system.boot()
        count = system.checkpoint_all()
        # KP ×2 + NLS + PM + MS are all checkpointable actors.
        assert count == 5

    def test_program_of_unknown_returns_none(self):
        system = System(SystemConfig(nodes=1))
        system.boot()
        assert system.program_of(__import__("repro").ProcessId(1, 99)) is None

    def test_same_seed_same_boot_trace(self):
        def boot_fingerprint(seed):
            system = System(SystemConfig(nodes=2, master_seed=seed))
            register_test_programs(system)
            system.boot()
            return (system.engine.events_fired,
                    tuple(sorted(str(p) for p in system.recorder.db.records)))

        assert boot_fingerprint(7) == boot_fingerprint(7)


class TestCli:
    def test_example3_1(self, capsys):
        assert cli_main(["example3_1"]) == 0
        out = capsys.readouterr().out
        assert "140 ms" in out and "340 ms" in out

    def test_capacity(self, capsys):
        assert cli_main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "mean" in out and "114" in out

    def test_utilization(self, capsys):
        assert cli_main(["utilization", "--point", "mean"]) == 0
        out = capsys.readouterr().out
        # every Figure 5.5 cell at the mean point is stable
        assert out.count("stable true") == 15 and "stable false" not in out

    def test_demo_round_trips(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "crash-free run: True" in out

    #: medium -> (replies in at the crash, messages replayed), as the
    #: demo printed them at PR 18 with its own two inline programs; it
    #: now drives the chaos counter/driver pair and must say the same
    DEMO_FACTS = {"broadcast": (15, 17), "acking_ethernet": (15, 16),
                  "csma_ethernet": (15, 16), "star": (14, 16),
                  "token_ring": (16, 17)}

    @pytest.mark.parametrize("medium", sorted(DEMO_FACTS))
    def test_demo_output_is_pinned(self, medium, capsys):
        replies, replayed = self.DEMO_FACTS[medium]
        assert cli_main(["demo", "--medium", medium]) == 0
        assert capsys.readouterr().out == (
            f"[t=   1700 ms] workload running ({replies} replies in)\n"
            "[t=   1700 ms] server CRASHED\n"
            "[t=   3700 ms] workload complete\n"
            "replies exactly match the crash-free run: True\n"
            f"recoveries: 1, messages replayed: {replayed}\n")

    def test_demo_covers_every_medium(self):
        from repro.net import MEDIA
        assert sorted(self.DEMO_FACTS) == sorted(MEDIA)


class TestCheckpointPolicyConfig:
    def test_storage_policy_via_config(self):
        from conftest import run_counter_scenario
        system = System(SystemConfig(nodes=2, checkpoint_policy="storage"))
        register_test_programs(system)
        system.boot()
        counter_pid, _ = run_counter_scenario(system, n=60)
        system.run(20_000)
        assert system.obs.bus.count("checkpoint", str(counter_pid)) >= 1
        record = system.recorder.db.get(counter_pid)
        assert record.valid_message_bytes() <= 2 * 4 * 1024

    def test_unknown_policy_rejected(self):
        system = System(SystemConfig(nodes=1))
        with pytest.raises(ReproError):
            system.install_checkpoint_policy("optimal")

    def test_young_policy_via_config(self):
        from conftest import run_counter_scenario
        system = System(SystemConfig(nodes=2, checkpoint_policy="young"))
        register_test_programs(system)
        system.boot()
        assert system.checkpoint_policy.mtbf_ms == MTBF_MS
        system.checkpoint_policy.mtbf_ms = 5_000.0   # a failure-prone site
        counter_pid, _ = run_counter_scenario(system, n=100)
        system.run(15_000)
        assert system.obs.bus.count("checkpoint", str(counter_pid)) >= 2


# ----------------------------------------------------------------------
# recorder layouts: one builder, every layout (docs/TUTORIAL.md table)
# ----------------------------------------------------------------------
class TestRecorderLayouts:
    def test_one_recorder_is_the_paper_as_published(self):
        system = System(SystemConfig(nodes=2))
        assert [s.node_id for s in system.placement.shards] == [99]
        assert system.recorders == [system.recorder]
        assert system.recorder.claim == range(1, 3)   # the cluster's nodes
        assert system.recovery.coordinator is None and system.quorum is None
        assert not [name for name in system.metrics_snapshot()
                    if name.startswith(("recorder.placement.", "quorum."))]

    def test_replicas_all_claim_everything_and_rank_by_index(self):
        system = System(SystemConfig(nodes=2, recorder_node_id=90,
                                     recorder_shards=3,
                                     placement_policy="replica"))
        assert [s.node_id for s in system.placement.shards] == [90, 91, 92]
        assert [r.claim for r in system.recorders] == [range(1, 3)] * 3
        assert [m.node_ids for m in system.recoveries] == [[1, 2]] * 3
        vectors = system.recovery.coordinator.vectors
        assert all(m.coordinator.vectors is vectors
                   and m.coordinator.quorum is system.quorum
                   for m in system.recoveries)
        assert vectors == {1: [90, 91, 92], 2: [90, 91, 92]}
        assert system.quorum.f == 1
        assert system.metrics_snapshot()["recorder.placement.shards"] == 3

    def test_two_replicas_coordinate_without_a_vote(self):
        # f is derived from the count: (2 - 1) // 2 == 0, and a vote
        # nobody can lose is not held
        system = System(SystemConfig(nodes=2, recorder_node_id=90,
                                     recorder_shards=2,
                                     placement_policy="replica"))
        assert system.quorum is None
        assert all(m.coordinator is not None and m.coordinator.quorum is None
                   for m in system.recoveries)

    @pytest.mark.parametrize("overrides", [
        {"reboot_policy": "sapre"},
        {"placement_policy": "bogus"},
        {"recorder_shards": 0},
        {"recorder_shards": 2, "gossip": True},
        {"recorder_shards": 2, "placement_policy": "replica", "gossip": True},
        {"medium": "star", "recorder_shards": 2},
        {"medium": "star", "recorder_shards": 3, "placement_policy": "replica"},
        {"medium": "star", "gossip": True},
        {"medium": "star", "publishing": False},
        {"transport_window": 0},
        {"gossip_round_ms": 0.0},
        {"gossip_round_ms": -150.0},
        {"loss_rate": 1.5},
        {"corruption_rate": -0.1},
        {"gossip_loss_rate": float("nan")},
    ], ids=["reboot_policy", "placement_policy", "zero_recorders",
            "shards_with_gossip", "replicas_with_gossip", "star_with_shards",
            "star_with_replicas", "star_with_gossip",
            "star_without_publishing", "zero_window", "zero_gossip_round",
            "negative_gossip_round", "loss_above_one",
            "negative_corruption", "nan_gossip_loss"])
    def test_mistyped_layouts_and_policies_are_rejected(self, overrides):
        with pytest.raises((ConfigError, PlacementError)):
            System(SystemConfig(nodes=2, **overrides))

    def test_layout_names_are_checked_without_a_recorder_too(self):
        with pytest.raises(PlacementError):
            System(SystemConfig(nodes=2, publishing=False,
                                placement_policy="bogus"))

    @staticmethod
    def _recovers_the_workload_exactly(nodes, layout, crash,
                                       medium="broadcast"):
        from repro.chaos import (ChaosCampaign, CrashNode, CrashProcess,
                                 run_scenario)

        # pair 0's counter is the first process spawned on node 2
        action = (CrashNode(2000.0, node=2) if crash == "node"
                  else CrashProcess(2000.0, pid=(2, 1)))
        campaign = ChaosCampaign([action])
        config = SystemConfig(nodes=nodes, medium=medium,
                              checkpoint_policy="storage", **layout)
        result = run_scenario(campaign, config, pairs=2, messages=30)
        assert result.pairs[0][1] == (2, 1) and campaign.injected == 1
        system = result.system
        assert len(system.recorders) == layout.get("recorder_shards", 1)
        checks = {c.name: (c.ok, c.detail) for c in result.report.invariants}
        for name in ("workload_exact", "no_dead_letters",
                     "transports_drained"):
            assert checks[name][0], checks[name]
        assert result.ok, result.report.format()
        assert result.report.figures["recoveries_completed"] >= 1
        return system

    @pytest.mark.parametrize("crash", ["node", "process"])
    @pytest.mark.parametrize("nodes, layout", [
        (3, {}),
        (4, {"recorder_shards": 2}),
        (17, {"recorder_shards": 2}),
        (3, {"recorder_shards": 3, "placement_policy": "replica"}),
    ], ids=["one", "range_x2", "range_x2_17_nodes", "replica_x3"])
    def test_every_layout_recovers_the_workload_exactly(self, nodes, layout,
                                                        crash):
        """The layout axis of the recovery oracle: whatever lays the
        recorders out, a crashed node or process comes back and every
        counter lands on 1+2+...+n."""
        self._recovers_the_workload_exactly(nodes, layout, crash)

    @pytest.mark.parametrize("crash", ["node", "process"])
    @pytest.mark.parametrize("nodes, layout", [
        (4, {"recorder_shards": 2}),
        (3, {"recorder_shards": 3, "placement_policy": "replica"}),
    ], ids=["range_x2", "replica_x3"])
    def test_several_recorders_recover_the_workload_on_the_ring(
            self, nodes, layout, crash):
        """The same body on ``token_ring``: the slot's acknowledge field
        used to be filled by the first recorder alone — the others never
        saw the frame — so a replica could not recover a node (1 of 20
        replies)."""
        system = self._recovers_the_workload_exactly(nodes, layout, crash,
                                                     medium="token_ring")
        if layout.get("placement_policy") == "replica":
            logged = [r.messages_recorded.value for r in system.recorders]
            assert logged[0] > 0 and len(set(logged)) == 1


def test_clusters_are_built_in_system_and_nowhere_else():
    """One way to stand up a cluster: under ``src/`` the recorder, its
    recovery manager, the §6.3 coordinator and the processing node are
    constructed by ``System`` only."""
    import ast
    from pathlib import Path

    import repro

    builders = {"Recorder", "RecoveryManager", "MultiRecorderCoordinator",
                "MessageKernel"}
    calls = set()
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in builders:
                    calls.add((path.relative_to(root).as_posix(), name))
    assert calls == {("system.py", name) for name in builders}


def test_every_system_config_field_is_set_by_some_caller():
    """An option no product caller turns is an option nothing exercises:
    every field of ``SystemConfig``, of the configs it builds and of
    ``DesScenario`` is set to a value other than its default somewhere
    in ``src``, ``bench``, ``benchmarks`` or ``examples`` outside its
    defining module — tests do not count.
    Set means a keyword to the config's constructor whose value is not
    the default written as a literal; for ``SystemConfig`` also a
    keyword to ``dataclasses.replace``, a ``config.<field> =``
    assignment, and, in a module that splats a mapping into either, a
    key of a dict there or a keyword to a function of the module whose
    ``**`` parameter is what it splats."""
    import ast
    import dataclasses
    from pathlib import Path

    from repro.demos.kernel import KernelConfig
    from repro.net.transport import TransportConfig
    from repro.parallel.des import DesScenario
    from repro.publishing.gossip import GossipConfig
    from repro.publishing.recorder import RecorderConfig

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    #: config -> its defining module
    table = {SystemConfig: src / "system.py",
             TransportConfig: src / "net" / "transport.py",
             KernelConfig: src / "demos" / "kernel.py",
             RecorderConfig: src / "publishing" / "recorder.py",
             GossipConfig: src / "publishing" / "gossip.py",
             DesScenario: src / "parallel" / "des.py"}
    defaults = {cls: {f.name: f.default for f in dataclasses.fields(cls)}
                for cls in table}
    found = {cls: set() for cls in table}
    for top in ("src", "bench", "benchmarks", "examples"):
        for path in sorted((src.parents[1] / top).rglob("*.py")):
            owners = {cls.__name__: cls for cls, home in table.items()
                      if path != home}
            tree = ast.parse(path.read_text())
            splatted, dict_keys, passed = set(), set(), {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    passed.setdefault(name, set()).update(
                        k.arg for k in node.keywords if k.arg is not None)
                    if name == "replace":
                        name = "SystemConfig"
                    cls = owners.get(name)
                    if cls is not None:
                        found[cls] |= {
                            k.arg for k in node.keywords
                            if k.arg is not None and not (
                                isinstance(k.value, ast.Constant)
                                and k.value.value == defaults[cls].get(
                                    k.arg, dataclasses.MISSING))}
                        if cls is SystemConfig:
                            splatted |= {getattr(k.value, "id", None)
                                         for k in node.keywords
                                         if k.arg is None}
                    elif name == "dict":
                        dict_keys |= {k.arg for k in node.keywords} - {None}
                elif isinstance(node, ast.Dict):
                    dict_keys |= {k.value for k in node.keys
                                  if isinstance(k, ast.Constant)}
                elif (isinstance(node, (ast.Assign, ast.AugAssign))
                        and "SystemConfig" in owners):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        owner = getattr(target, "value", None)
                        if (isinstance(target, ast.Attribute) and getattr(
                                owner, "id", getattr(owner, "attr", None))
                                == "config"):
                            found[SystemConfig].add(target.attr)
            if splatted:
                found[SystemConfig] |= dict_keys
                for fn in ast.walk(tree):
                    if (isinstance(fn, ast.FunctionDef) and fn.args.kwarg
                            and fn.args.kwarg.arg in splatted):
                        found[SystemConfig] |= passed.get(fn.name, set())
    unset = {f"{cls.__name__}.{name}" for cls in table
             for name in sorted(set(defaults[cls]) - found[cls])}
    assert not unset, f"config fields no product caller sets: {sorted(unset)}"
