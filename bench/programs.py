"""Benchmark-owned traffic: a closed-loop client/server pair and the
tally that watches them from outside.

Both programs keep **O(1) state** (running total, count, rolling hash,
next sequence number) so a checkpoint costs the same after the ten
thousandth message as after the first. The request plan and every
sample live in the :class:`Tally`, which the program classes *close
over*: it is not an attribute of any program instance, so checkpoints
do not carry it and ``restore`` does not lose it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import Link, ProcessId, Program

CLIENT_IMAGE = "bench/client"
SERVER_IMAGE = "bench/server"

HASH_MULTIPLIER = 1_000_003
HASH_MODULUS = (1 << 61) - 1

#: one planned request: (value, request bytes, reply bytes)
Request = Tuple[int, int, int]


def fold(state: Tuple[int, int, int], value: int) -> Tuple[int, int, int]:
    """One step of the server's state function: (total, count, hash)."""
    total, count, digest = state
    return (total + value, count + 1,
            (digest * HASH_MULTIPLIER + value) % HASH_MODULUS)


class Tally:
    """Plans in, samples out; the only thing the programs talk to.

    ``plans[k]`` is client *k*'s request list; client *k* drives server
    *k*. Expected replies are recomputed here from the plans, so no
    expected value is baked into the benchmark. A replayed delivery
    repeats a sighting the tally already has and is ignored.
    """

    def __init__(self, clock: Callable[[], float],
                 plans: Sequence[Sequence[Request]]):
        self.clock = clock
        self.plans = plans
        self.expected: List[List[Tuple[int, int, int]]] = []
        for plan in plans:
            state, states = (0, 0, 0), []
            for value, _, _ in plan:
                state = fold(state, value)
                states.append(state)
            self.expected.append(states)
        self.sent_at: List[Dict[int, float]] = [{} for _ in plans]
        #: simulated ms, request sent -> reply delivered, first sighting
        self.latencies: List[float] = []
        self.replies = [0] * len(plans)
        self.bad_replies = 0
        #: highest request count each server has reached
        self.served = [0] * len(plans)
        self.last_progress = clock()
        #: server index -> (count to reach again, crash time)
        self.watching: Dict[int, Tuple[int, float]] = {}
        #: (server, simulated ms from its crash until it re-consumed its
        #: last pre-crash message), in completion order
        self.catch_ups: List[Tuple[int, float]] = []

    # -- called by the programs ------------------------------------------
    def request(self, client: int, seq: int) -> Optional[Request]:
        plan = self.plans[client]
        return plan[seq] if seq < len(plan) else None

    def sent(self, client: int, seq: int) -> None:
        self.sent_at[client].setdefault(seq, self.clock())

    def replied(self, client: int, body: Tuple) -> None:
        seq = body[1]
        if seq != self.replies[client]:
            return                      # replayed delivery
        self.replies[client] += 1
        now = self.clock()
        self.last_progress = now
        self.latencies.append(now - self.sent_at[client][seq])
        if tuple(body[2:]) != self.expected[client][seq]:
            self.bad_replies += 1

    def consumed(self, server: int, count: int) -> None:
        now = self.last_progress = self.clock()     # replays count too
        if count > self.served[server]:
            self.served[server] = count
        watch = self.watching.get(server)
        if watch is not None and count >= watch[0]:
            del self.watching[server]
            self.catch_ups.append((server, now - watch[1]))

    # -- called by the driver ----------------------------------------------
    def watch(self, server: int) -> None:
        """A crash of ``server`` is about to be injected: time how long
        it takes to re-consume the last message it has consumed."""
        self.watching[server] = (self.served[server], self.clock())

    @property
    def done(self) -> bool:
        return all(got == len(plan)
                   for got, plan in zip(self.replies, self.plans))

    @property
    def messages(self) -> int:
        """Application messages delivered: requests plus replies."""
        return sum(self.served) + sum(self.replies)


def make_programs(tally: Tally):
    """The client and server classes for one pass, bound to ``tally``."""

    class Server(Program):
        def __init__(self, index: int):
            super().__init__()
            self.index = index
            self.total = 0
            self.count = 0
            self.digest = 0

        def on_message(self, ctx, m):
            _, seq, value, reply_bytes = m.body
            self.total, self.count, self.digest = fold(
                (self.total, self.count, self.digest), value)
            tally.consumed(self.index, self.count)
            ctx.send(m.passed_link_id,
                     ("rep", seq, self.total, self.count, self.digest),
                     size_bytes=reply_bytes)
            ctx.destroy_link(m.passed_link_id)

    class Client(Program):
        def __init__(self, index: int, server: Tuple[int, int]):
            super().__init__()
            self.index = index
            self.server = tuple(server)
            self.seq = 0
            self.link: Optional[int] = None

        def attach_kernel(self, kernel):
            self._ctx_kernel = kernel

        def setup(self, ctx):
            pcb = self._ctx_kernel.processes[ctx.pid]
            self.link = self._ctx_kernel.forge_link(
                pcb, Link(dst=ProcessId(*self.server)))
            self._next(ctx)

        def _next(self, ctx):
            request = tally.request(self.index, self.seq)
            if request is None:
                return
            value, request_bytes, reply_bytes = request
            reply = ctx.create_link(code=1)
            ctx.send(self.link, ("req", self.seq, value, reply_bytes),
                     pass_link_id=reply, size_bytes=request_bytes)
            tally.sent(self.index, self.seq)
            self.seq += 1

        def on_message(self, ctx, m):
            tally.replied(self.index, m.body)
            self._next(ctx)

    return Client, Server
