"""The instrumentation spine: event bus, metrics registry, determinism.

Covers the `repro.obs` primitives in isolation and the end-to-end
guarantees the spine makes: two identical runs produce bit-identical
event streams and metric snapshots, a disabled scope emits nothing, the
counters layers hold are the objects the registry snapshots, and the
whole snapshot + stream surface is pinned per medium.
"""

import ast
import hashlib
import pickle
import tracemalloc
from pathlib import Path

import pytest

import repro
from fixtures import count_calls, register_test_programs, run_counter_scenario
from repro.demos.ids import MessageId, ProcessId
from repro.obs import Event, EventBus, MetricsRegistry
from repro.system import System, SystemConfig


# ----------------------------------------------------------------------
# event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_scopes_are_cached(self):
        bus = EventBus()
        assert bus.scope("media.csma") is bus.scope("media.csma")
        assert bus.scope("media").child("csma") is bus.scope("media.csma")

    def test_emit_stamps_clock_and_orders(self):
        t = [0.0]
        bus = EventBus(lambda: t[0])
        scope = bus.scope("transport.1")
        scope.emit("retransmit", "node2", attempt=1)
        t[0] = 7.5
        scope.emit("gave_up", "node2", attempts=5)
        assert [e.time for e in bus] == [0.0, 7.5]
        assert bus.events[1].detail["attempts"] == 5
        assert bus.events[0].scope == "transport.1"

    def test_prefix_disable_covers_descendants_only(self):
        bus = EventBus()
        media = bus.scope("media.csma")
        other = bus.scope("mediator")   # shares the string prefix only
        bus.disable("media")
        assert not media.enabled
        assert not bus.scope("media").enabled
        assert other.enabled            # "mediator" is not under "media"
        media.emit("collision", "n1")
        other.emit("tick", "n1")
        assert bus.count(scope="media") == 0
        assert bus.count() == 1
        bus.enable("media")
        media.emit("collision", "n1")
        assert bus.count(scope="media") == 1

    def test_disable_applies_to_scopes_created_later(self):
        bus = EventBus()
        bus.disable("kernel")
        late = bus.scope("kernel.3")
        assert not late.enabled
        late.emit("checkpoint", "3.1")
        assert len(bus) == 0

    def test_master_switch(self):
        bus = EventBus()
        scope = bus.scope("sim")
        bus.enabled = False
        scope.emit("spare", "node1")
        assert len(bus) == 0
        bus.enabled = True
        scope.emit("spare", "node1")
        assert len(bus) == 1
        bus.clear()
        assert len(bus) == 0

    def test_select_filters(self):
        bus = EventBus()
        bus.scope("kernel.1").emit("checkpoint", "1.2")
        bus.scope("kernel.2").emit("checkpoint", "2.2")
        bus.scope("recovery").emit("recovery", "1.2", event="complete")
        assert bus.count("checkpoint") == 2
        assert bus.count(subject="1.2") == 2
        assert bus.count(scope="kernel.1") == 1
        assert bus.count("recovery", "1.2", "recovery") == 1

    def test_jsonl_round_trip(self):
        import json
        bus = EventBus(lambda: 2.0)
        bus.scope("media.csma").emit("collision", "n1", contenders=3)
        line = json.loads(bus.to_jsonl())
        assert line == {"time": 2.0, "scope": "media.csma",
                        "category": "collision", "subject": "n1",
                        "detail": {"contenders": 3}}


# ----------------------------------------------------------------------
# the record: what an event holds and how it reads
# ----------------------------------------------------------------------
class TestEventRecord:
    def test_an_event_of_ids_reads_like_one_of_their_strings(self):
        """Subject and detail are stored as handed and formatted on
        read, to the text the emit site's ``str()`` used to produce."""
        pid, mid = ProcessId(2, 1), MessageId(ProcessId(1, 1), 7)
        bus = EventBus(lambda: 3.5)
        scope = bus.scope("recorder")
        scope.emit("publish", pid, msg=mid, seq=7, path=[1, 2], ok=None)
        scope.emit("publish", str(pid), msg=str(mid), seq=7, path=[1, 2],
                   ok=None)
        objects, strings = bus.events
        for read in (lambda e: e.subject, lambda e: e.detail,
                     lambda e: e.to_dict(), str, repr):
            assert read(objects) == read(strings)
        assert objects.subject == "2.1"
        assert objects.detail == {"msg": "1.1#7", "seq": 7, "path": [1, 2],
                                  "ok": None}
        assert repr(objects) == (
            "Event(time=3.5, scope='recorder', category='publish', "
            "subject='2.1', detail={'msg': '1.1#7', 'seq': 7, "
            "'path': [1, 2], 'ok': None})")
        assert objects == strings
        assert pickle.loads(pickle.dumps(objects)) == strings
        assert bus.select(subject="2.1") == [objects, strings]
        assert bus.count("publish", "2.1", "recorder") == 2
        assert Event(3.5, "recorder", "publish", pid,
                     {"msg": mid, "seq": 7, "path": [1, 2],
                      "ok": None}) == objects

    def test_an_event_is_immutable_and_has_no_instance_dict(self):
        event = Event(1.0, "kernel.1", "checkpoint", ProcessId(1, 2),
                      {"pages": 3})
        for name in ("time", "scope", "category", "subject", "detail"):
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        assert not hasattr(event, "__dict__")
        assert Event(1.0, "sim", "tick", "n1").detail == {}

    def test_detail_keys_are_shared_per_bus(self):
        buses = [EventBus(), EventBus()]
        for bus in buses:
            for seq in range(2):
                bus.scope("recorder").emit("publish", "2.1", msg=seq)
        (a, b), (c, _) = (bus.events for bus in buses)
        assert a._keys is b._keys
        assert a._keys == c._keys and a._keys is not c._keys

    def test_jsonable_lists_exact_sequences_and_strs_the_rest(self):
        """Exact lists and tuples become lists; every other value that
        is not JSON-native — ``NamedTuple`` ids included — its ``str()``."""
        pid = ProcessId(2, 1)
        event = Event(0.0, "chaos", "crash_process", pid,
                      {"pid": (2, 1), "ids": [pid, (pid,)], "at": {3: pid},
                       "id": pid, "kinds": {"a"}})
        assert event.to_dict()["detail"] == {
            "pid": [2, 1], "ids": ["2.1", ["2.1"]], "at": {"3": "2.1"},
            "id": "2.1", "kinds": "{'a'}"}
        assert event.detail["pid"] == (2, 1) and event.detail["id"] == "2.1"

    def test_a_recorded_message_event_keeps_at_most_160_bytes(self):
        """``publish``-shaped emits of ids that already exist: the record
        keeps the handed objects, one value tuple and a shared key
        tuple — 137 B an event on CPython 3.11 (a frozen dataclass with a
        detail dict and two formatted strings kept 414 B)."""
        n = 20_000
        sender, dst = ProcessId(1, 1), ProcessId(2, 1)
        ids = [MessageId(sender, seq) for seq in range(n)]
        scope = EventBus(lambda: 1.0).scope("recorder")
        scope.emit("publish", dst, msg=ids[0])
        tracemalloc.start()
        try:
            for msg_id in ids:
                scope.emit("publish", dst, msg=msg_id)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / n <= 160, retained / n


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("transport.1.sent")
        c.inc()
        c.inc(3)
        assert reg.counter("transport.1.sent") is c
        assert reg.counter("transport.1.sent").value == 4

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_fn_rebinds(self):
        reg = MetricsRegistry()
        reg.gauge_fn("kernel.1.processes", lambda: 2)
        reg.gauge_fn("kernel.1.processes", lambda: 5)   # spare takeover
        assert reg.snapshot()["kernel.1.processes"] == 5

    def test_time_weighted_average(self):
        t = [0.0]
        reg = MetricsRegistry(lambda: t[0])
        avg = reg.timeavg("transport.1.queue_depth")
        avg.update(2)          # depth 0 held for 0 ms, now 2
        t[0] = 10.0
        avg.update(4)          # depth 2 held for 10 ms
        t[0] = 20.0            # depth 4 held for 10 ms so far
        assert avg.mean() == pytest.approx((2 * 10 + 4 * 10) / 20)
        assert avg.current == 4

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("media.frame_bytes", buckets=(64, 512))
        for size in (32, 64, 100, 4000):
            h.observe(size)
        snap = h.snapshot_value()
        assert snap["count"] == 4
        assert snap["min"] == 32 and snap["max"] == 4000
        assert snap["buckets"] == {"le_64": 2, "le_512": 1, "inf": 1}

    def test_histogram_finds_the_bucket_the_loop_found(self):
        """``observe`` bisects; the reference is the loop it replaced —
        the first bound the value does not exceed, else the overflow
        bucket — on every bound, below, between and above them."""
        from repro.net.media import FRAME_SIZE_BUCKETS as bounds
        values = [bounds[0] - 1, bounds[-1] + 1, 0, -5, 2.5, 1e9]
        for low, high in zip(bounds, bounds[1:]):
            values += [low, (low + high) / 2, high]
        h = MetricsRegistry().histogram("frame_bytes", buckets=bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            h.observe(value)
            expected[next((i for i, bound in enumerate(bounds)
                           if value <= bound), len(bounds))] += 1
        assert h.bucket_counts == expected and sum(expected) == len(values)
        bare = MetricsRegistry().histogram("no_buckets")
        bare.observe(3)
        assert bare.bucket_counts == [0] and "buckets" not in bare.snapshot_value()

    def test_snapshot_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.counter("alpha")
        reg.counter("media.1")
        assert list(reg.snapshot()) == sorted(reg.snapshot())


# ----------------------------------------------------------------------
# the spine end to end
# ----------------------------------------------------------------------
def _run_scenario(medium="broadcast", seed=1983):
    """Two nodes, a self-messaging workload, a node crash + recovery."""
    from repro.metrics.metering import SendToSelfProgram

    system = System(SystemConfig(nodes=2, medium=medium, master_seed=seed))
    system.registry.register("metrics/send_to_self", SendToSelfProgram)
    system.boot()
    system.spawn_program("metrics/send_to_self", args=(24,), node=1)
    system.run(1500)
    system.crash_node(2)
    system.run(3500)
    return system


class TestSpineDeterminism:
    @pytest.mark.parametrize("medium", ["broadcast", "csma_ethernet"])
    def test_identical_runs_identical_streams(self, medium):
        a = _run_scenario(medium)
        b = _run_scenario(medium)
        assert a.obs.bus.to_jsonl() == b.obs.bus.to_jsonl()
        assert a.metrics_snapshot() == b.metrics_snapshot()
        assert len(a.obs.bus) > 0

    def test_different_seed_still_matches_on_perfect_medium(self):
        # PerfectBroadcast consumes no randomness: the seed must not
        # leak into the event stream.
        a = _run_scenario("broadcast", seed=1)
        b = _run_scenario("broadcast", seed=2)
        assert a.obs.bus.to_jsonl() == b.obs.bus.to_jsonl()


class TestScopedSystemTracing:
    def test_layers_emit_into_their_own_scopes(self):
        system = _run_scenario()
        scopes = {e.scope for e in system.obs.bus}
        assert any(s.startswith("kernel.") for s in scopes)
        assert "recovery" in scopes
        # bus-wide reads see every layer's events
        assert system.obs.bus.count() == len(system.obs.bus)
        assert system.obs.bus.count("watchdog", "node2") >= 1

    def test_disabled_scope_emits_nothing(self):
        from repro.metrics.metering import SendToSelfProgram

        system = System(SystemConfig(nodes=2))
        system.obs.bus.disable("kernel")
        system.registry.register("metrics/send_to_self", SendToSelfProgram)
        system.boot()
        system.spawn_program("metrics/send_to_self", args=(8,), node=1)
        system.run(2000)
        assert system.obs.bus.count(scope="kernel") == 0
        assert system.obs.bus.count(scope="recorder") > 0
        # metrics keep flowing even with the events silenced
        assert system.metrics_snapshot()["kernel.1.cpu.kernel_ms"] > 0

    def test_a_disabled_spine_formats_no_id(self):
        """Emit sites hand over the ids themselves and a disabled scope
        returns at once, so with the bus off no pid or message id is
        ever formatted for it."""
        system = System(SystemConfig(nodes=2))
        system.obs.bus.enabled = False
        register_test_programs(system)
        system.boot()
        formats = count_calls(lambda: run_counter_scenario(system, n=10),
                              within=(ProcessId.__str__, MessageId.__str__))
        assert system.recorder.messages_recorded.value > 0
        assert len(system.obs.bus) == 0
        assert formats == 0


class TestLegacyStatsAreRegistryViews:
    def test_all_layers_share_one_registry(self):
        system = _run_scenario()
        snap = system.metrics_snapshot()
        medium = system.medium
        assert snap[f"media.{medium.kind}.frames_delivered"] == \
            medium.stats.frames_delivered.value
        assert snap["recorder.messages_recorded"] == \
            system.recorder.messages_recorded.value
        t1 = system.nodes[1].kernel.transport
        assert snap["transport.1.sent"] == t1.stats.sent.value
        assert snap["kernel.1.cpu.kernel_ms"] == \
            system.nodes[1].kernel.cpu.kernel_ms.value
        assert snap["recovery.recoveries_completed"] == \
            system.recovery.stats.recoveries_completed
        assert snap["sim.events_fired"] == system.engine.events_fired

    def test_standalone_components_default_to_medium_obs(self):
        from repro.net.media import PerfectBroadcast
        from repro.net.transport import Transport, TransportConfig
        from repro.sim.engine import Engine

        engine = Engine()
        medium = PerfectBroadcast(engine)
        transport = Transport(engine, medium, 1, lambda m, s: None,
                              TransportConfig())
        assert transport.obs is medium.obs
        assert "transport.1.sent" in medium.obs.registry.snapshot()



# ----------------------------------------------------------------------
# the observable surface, pinned
# ----------------------------------------------------------------------
#: sha256(canonical_json(metrics_snapshot()) + event_stream()) of the
#: seed-1983 `chaos --scenario demo` run per (medium, gossip): pins every
#: snapshot key, value and first-appearance point and every event on
#: every medium (the committed perf digests only cover the snapshot on
#: broadcast federations).
SURFACE_PINS = {
    ("broadcast", False):
        "db4e3f45c5c93666979a70591c378e3088b2a89c00e9c5c9decf0afc4a783804",
    ("csma_ethernet", False):
        "984c6054d550ea5db1eb1d3fc25d10a38c1b3ef9a340d4a3e16b8c2f281488e7",
    ("acking_ethernet", False):
        "db0911ef00da3cb4d6b964755359997b741dffc673c4d32577960dbd494ba0bb",
    ("token_ring", False):
        "164f294d00884230b304cc1367cb77a6bf9c211237cfa58437acb529643eb4f9",
    ("star", False):
        "520444f8e4fc070853d95aa108ce241067c00ef1cd9b7140e9dc9ffec6ef0f8a",
    ("csma_ethernet", True):
        "25ffde037ac35aaf004e488935fe086af5735cb9dbb491d080f53f00289958a0",
    # the ring's gossip hooks were inert before the media shared one rule
    ("token_ring", True):
        "9525a129f50efeb65b9345da80da091f0b884b28ddfcec872e796b9f9a994f72",
}


def test_snapshot_and_stream_surface_is_pinned():
    from repro.__main__ import _build_demo_campaign
    from repro.chaos import run_scenario
    from repro.digest import canonical_json

    moved = []
    for (medium, gossip), pinned in sorted(SURFACE_PINS.items()):
        result = run_scenario(
            _build_demo_campaign(3),
            SystemConfig(nodes=3, master_seed=1983, medium=medium,
                         checkpoint_policy="storage", gossip=gossip))
        assert result.ok, (medium, gossip)
        surface = (canonical_json(result.system.metrics_snapshot())
                   + result.event_stream())
        if hashlib.sha256(surface.encode()).hexdigest() != pinned:
            moved.append((medium, gossip))
    assert not moved


def _wraps_a_counter(function: ast.FunctionDef) -> bool:
    """``@property`` whose body is ``return self.<attr>.value``."""
    if not any(isinstance(d, ast.Name) and d.id == "property"
               for d in function.decorator_list):
        return False
    body = [stmt for stmt in function.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]   # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    value = body[0].value
    return (isinstance(value, ast.Attribute) and value.attr == "value"
            and isinstance(value.value, ast.Attribute)
            and isinstance(value.value.value, ast.Name)
            and value.value.value.id == "self")


def test_no_counter_backed_properties():
    """One way to count: a layer holds its ``Counter`` and readers take
    ``.value`` — no ``@property`` returning ``self.<attr>.value``, and
    nothing imports the deleted ``repro.sim.trace``."""
    offenders = []
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and _wraps_a_counter(node):
                offenders.append(f"{path.relative_to(root)}:{node.lineno} "
                                 f"property {node.name} wraps a counter")
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if "repro.sim.trace" in imported:
                offenders.append(f"{path.relative_to(root)}:{node.lineno} "
                                 f"imports repro.sim.trace")
    assert not offenders, "\n".join(offenders)


def test_emit_sites_hand_over_objects_not_text():
    """Among the arguments of ``.emit(...)`` calls in the package the one
    ``str()`` is the recovery manager's ``error=str(exc)``: the event
    must not keep the exception, and its traceback, alive."""
    found = []
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                continue
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                if (isinstance(arg, ast.Call)
                        and isinstance(arg.func, ast.Name)
                        and arg.func.id == "str"):
                    found.append((path.relative_to(root).as_posix(),
                                  ast.unparse(arg)))
    assert found == [("publishing/recovery_manager.py", "str(exc)")]
