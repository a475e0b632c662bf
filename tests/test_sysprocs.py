"""Tests for the system processes: named-link server, process manager,
memory scheduler — the full §4.2.3 control chain."""

import pytest

from repro import GeneratorProgram, Program, Recv, System, SystemConfig
from repro.demos.ids import ProcessId

from conftest import register_test_programs


class ServiceProgram(Program):
    """Registers itself under a name and answers queries."""

    def __init__(self, name="svc"):
        super().__init__()
        self.name = name
        self.queries = 0

    def setup(self, ctx):
        service_link = ctx.create_link(channel=0)
        ctx.send(1, ("register", self.name), pass_link_id=service_link)

    def on_message(self, ctx, m):
        if isinstance(m.body, tuple) and m.body and m.body[0] == "query":
            self.queries += 1
            if m.passed_link_id is not None:
                ctx.send(m.passed_link_id, ("answer", self.queries))


class ClientProgram(GeneratorProgram):
    """Looks up a service by name and queries it."""

    def __init__(self, name="svc", queries=3):
        super().__init__()
        self.name = name
        self.queries = queries
        self.answers = []

    def run(self, ctx):
        reply = ctx.create_link(channel=7)
        ctx.send(1, ("lookup", self.name), pass_link_id=reply)
        m = yield Recv.on(7)
        assert m.body == ("link", self.name)
        service = m.passed_link_id
        for _ in range(self.queries):
            r = ctx.create_link(channel=8)
            ctx.send(service, ("query",), pass_link_id=r)
            m = yield Recv.on(8)
            self.answers.append(m.body[1])


class SpawnerProgram(GeneratorProgram):
    """Creates children through the full PM → MS → kernel-process chain."""

    def __init__(self, count=3, node_hint=None):
        super().__init__()
        self.count = count
        self.node_hint = node_hint
        self.children = []
        self.failures = []

    def run(self, ctx):
        lk = ctx.create_link(channel=3)
        ctx.send(1, ("lookup", "process_manager"), pass_link_id=lk)
        m = yield Recv.on(3)
        pm = m.passed_link_id
        for _ in range(self.count):
            reply = ctx.create_link(channel=4)
            ctx.send(pm, ("create", "test/counter", (), self.node_hint,
                          True, 2), pass_link_id=reply)
            m = yield Recv.on(4)
            if m.body[0] == "created":
                self.children.append(tuple(m.body[1]))
            else:
                self.failures.append(m.body)


@pytest.fixture
def system():
    sys_ = System(SystemConfig(nodes=2))
    register_test_programs(sys_)
    sys_.registry.register("test/service", ServiceProgram)
    sys_.registry.register("test/client", ClientProgram)
    sys_.registry.register("test/spawner", SpawnerProgram)
    sys_.boot()
    return sys_


class TestNamedLinkServer:
    def test_register_then_lookup(self, system):
        system.spawn_program("test/service", node=1)
        system.run(1000)
        client_pid = system.spawn_program("test/client", node=2)
        system.run(8000)
        assert system.program_of(client_pid).answers == [1, 2, 3]

    def test_lookup_parks_until_registration(self, system):
        # Client first, service later: the lookup must wait.
        client_pid = system.spawn_program("test/client", node=2)
        system.run(1000)
        assert system.program_of(client_pid).answers == []
        system.spawn_program("test/service", node=1)
        system.run(10000)
        assert system.program_of(client_pid).answers == [1, 2, 3]

    def test_multiple_clients_share_service(self, system):
        system.spawn_program("test/service", node=1)
        a = system.spawn_program("test/client", node=1)
        b = system.spawn_program("test/client", node=2)
        system.run(15000)
        assert system.program_of(a).answers == [1, 2, 3] or \
            system.program_of(a).answers == [2, 4, 6][:3] or \
            len(system.program_of(a).answers) == 3
        assert len(system.program_of(b).answers) == 3


class TestProcessManagerChain:
    def test_create_on_requesters_node_by_default(self, system):
        pid = system.spawn_program("test/spawner", node=2)
        system.run(20000)
        program = system.program_of(pid)
        assert len(program.children) == 3
        assert all(ProcessId(*c).node == 2 for c in program.children)
        for child in program.children:
            assert system.process_state(ProcessId(*child)) == "running"

    def test_node_hint_places_process(self, system):
        pid = system.spawn_program("test/spawner", args=(2, 1), node=2)
        system.run(20000)
        program = system.program_of(pid)
        assert len(program.children) == 2
        assert all(ProcessId(*c).node == 1 for c in program.children)

    def test_job_limit_enforced(self):
        sys_ = System(SystemConfig(nodes=1))
        register_test_programs(sys_)
        sys_.registry.register("test/spawner", SpawnerProgram)
        sys_.boot()
        # Shrink the PM's job limit directly.
        services = sys_.config.first_node_id
        pm_pid = ProcessId(services, 2)
        sys_.nodes[services].processes[pm_pid].program.job_limit = 2
        pid = sys_.spawn_program("test/spawner", args=(4,), node=1)
        sys_.run(30000)
        program = sys_.program_of(pid)
        assert len(program.children) == 2
        assert len(program.failures) == 2
        assert all(f[0] == "create_failed" for f in program.failures)

    def test_unknown_node_hint_falls_back(self, system):
        pid = system.spawn_program("test/spawner", args=(1, 77), node=1)
        system.run(20000)
        program = system.program_of(pid)
        assert len(program.children) == 1   # placed on a managed node
        assert ProcessId(*program.children[0]).node in system.nodes


class TestRecorderIntegration:
    def test_chain_created_children_are_recorded(self, system):
        pid = system.spawn_program("test/spawner", node=1)
        system.run(20000)
        for child in system.program_of(pid).children:
            record = system.recorder.db.get(ProcessId(*child))
            assert record is not None
            assert record.image == "test/counter"
