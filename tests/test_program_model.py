"""Unit tests for the program model: registry, styles, misuse errors."""

import pytest

from repro import GeneratorProgram, Program, ProgramRegistry, Recv
from repro.demos.messages import Control, DeliveredMessage, ProcessCreated
from repro.demos.ids import ProcessId
from repro.demos.process import ProgramBase
from repro.errors import ProcessError
from repro.sim import Engine


class _Ctx:
    """A minimal context for driving programs directly."""

    def __init__(self):
        self.exited = False
        self.sent = []

    def exit(self):
        self.exited = True

    def send(self, *args, **kwargs):
        self.sent.append(args)
        return True

    def create_link(self, channel=0, code=0):
        return 1


def delivered(body, channel=0):
    return DeliveredMessage(code=0, channel=channel, body=body,
                            src=ProcessId(1, 1))


class TestRegistry:
    def test_register_and_instantiate(self):
        registry = ProgramRegistry()
        registry.register("x", Program)
        assert isinstance(registry.instantiate("x"), Program)
        assert registry.known("x") and not registry.known("y")

    def test_decorator_form(self):
        registry = ProgramRegistry()

        @registry.register("y")
        class Y(Program):
            pass

        assert registry.known("y")
        assert isinstance(registry.instantiate("y"), Y)

    def test_args_passed_to_factory(self):
        registry = ProgramRegistry()

        class Z(Program):
            def __init__(self, a, b):
                super().__init__()
                self.pair = (a, b)

        registry.register("z", Z)
        assert registry.instantiate("z", (1, 2)).pair == (1, 2)

    def test_unknown_image_raises(self):
        with pytest.raises(ProcessError):
            ProgramRegistry().instantiate("ghost")


class TestActorProgram:
    def test_snapshot_excludes_ctx_attrs(self):
        program = Program()
        program.state = 5
        program._ctx_kernel = object()     # unpicklable backdoor
        snapshot = program.snapshot()
        assert snapshot["state"] == 5
        assert "_ctx_kernel" not in snapshot

    def test_restore_round_trip(self):
        a = Program()
        a.counter = 7
        a.items = [1, 2]
        snapshot = a.snapshot()
        a.items.append(3)                  # mutate after snapshot
        b = Program()
        b.restore(snapshot)
        assert b.counter == 7
        assert b.items == [1, 2]           # deep copy: isolated

    def test_default_wants_everything(self):
        ready, channels = Program().wants()
        assert ready and channels is None


class TestGeneratorProgram:
    def test_function_form(self):
        log = []

        def run(ctx):
            m = yield Recv()
            log.append(m.body)

        program = GeneratorProgram(run)
        ctx = _Ctx()
        program.start(ctx)
        ready, channels = program.wants()
        assert ready and channels is None
        program.deliver(ctx, delivered("hi"))
        assert log == ["hi"]
        assert ctx.exited                   # generator finished

    def test_recv_on_restricts_channels(self):
        def run(ctx):
            yield Recv.on(3, 7)

        program = GeneratorProgram(run)
        program.start(_Ctx())
        ready, channels = program.wants()
        assert ready and set(channels) == {3, 7}

    def test_deliver_when_not_waiting_raises(self):
        def run(ctx):
            yield Recv()

        program = GeneratorProgram(run)
        ctx = _Ctx()
        program.start(ctx)
        program.deliver(ctx, delivered("a"))
        with pytest.raises(ProcessError):
            program.deliver(ctx, delivered("b"))

    def test_bad_yield_rejected(self):
        def run(ctx):
            yield "not a Recv"

        program = GeneratorProgram(run)
        with pytest.raises(ProcessError):
            program.start(_Ctx())

    def test_no_run_function_raises(self):
        with pytest.raises(NotImplementedError):
            GeneratorProgram().start(_Ctx())

    def test_not_checkpointable(self):
        def run(ctx):
            yield Recv()

        program = GeneratorProgram(run)
        assert program.snapshot() is None
        with pytest.raises(NotImplementedError):
            program.restore({})


class TestBaseClassContracts:
    def test_program_base_is_abstract(self):
        base = ProgramBase()
        with pytest.raises(NotImplementedError):
            base.start(_Ctx())
        with pytest.raises(NotImplementedError):
            base.deliver(_Ctx(), delivered("x"))
        with pytest.raises(NotImplementedError):
            base.wants()
        assert base.snapshot() is None


class TestControl:
    def test_field_access(self):
        control = ProcessCreated(ProcessId(1, 2), 1, "test/counter", ())
        assert isinstance(control, Control)
        assert control.pid == ProcessId(1, 2) and control.image == "test/counter"
        assert (control.initial_links, control.recoverable,
                control.state_pages) == ((), True, 4)
        with pytest.raises(AttributeError):
            control.pid = ProcessId(1, 3)


class TestEngineIntrospection:
    def test_peek_time(self):
        engine = Engine()
        assert engine.peek_time() is None
        handle = engine.schedule(5.0, lambda: None)
        engine.schedule(9.0, lambda: None)
        assert engine.peek_time() == 5.0
        handle.cancel()
        assert engine.peek_time() == 9.0
