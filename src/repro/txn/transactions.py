"""Atomic transactions over published communications (§6.4).

"With publishing, the transaction semantics remain the same. However,
there is no need to store intentions and transaction state in stable
store. When a crashed process recovers, its intentions and transaction
state will be rebuilt along with the rest of the process state. This
means that each processor need not have reliable storage for the
processes taking part in transactions. Only one reliable store is
needed, the publishing storage."

This module implements two-phase commit exactly that way: the
coordinator's transaction-state table and each resource manager's
intention lists are ordinary actor state — no stable storage calls
anywhere. Crash any participant at any phase and publishing rebuilds it,
after which the protocol proceeds as if nothing happened.

Protocol messages (all tuples, all on channel 0 unless noted):

* client → coordinator: ``('txn', txn_name, ops)`` + reply link, where
  ``ops`` is a tuple of ``(resource_index, op, key, value)``;
* coordinator → RM: ``('prepare', txn_id, ops_for_rm)`` + reply link;
* RM → coordinator: ``('vote', txn_id, 'yes'|'no')``;
* coordinator → RM: ``('commit', txn_id)`` or ``('abort', txn_id)``;
* RM → coordinator: ``('done', txn_id)``;
* coordinator → client: ``('committed', txn_id)`` / ``('aborted', txn_id)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.demos.messages import DeliveredMessage
from repro.demos.process import Program

COORDINATOR_IMAGE = "txn/coordinator"
RESOURCE_IMAGE = "txn/resource"

#: Channels used by the protocol.
CLIENT_CHANNEL = 0      # client requests at the coordinator
VOTE_CHANNEL = 1        # RM votes and done-acks at the coordinator
RM_CHANNEL = 0          # everything at the resource manager


class TransactionCoordinator(Program):
    """Two-phase-commit coordinator whose state is entirely rebuildable
    from its published message stream.

    ``resource_pids`` fixes the set of resource managers at creation
    (the capability links to them are forged from pids at setup — in a
    fully dynamic system they would arrive via the named-link server).
    """

    handler_cpu_ms = 0.5

    def __init__(self, resource_pids: Tuple = ()):
        super().__init__()
        self.resource_pids = tuple(tuple(p) for p in resource_pids)
        self.next_txn = 1
        #: txn_id -> {"ops", "votes", "decision", "done", "reply_link"}
        self.transactions: Dict[int, Dict[str, Any]] = {}
        self.rm_links: List[int] = []
        self.committed = 0
        self.aborted = 0

    def attach_kernel(self, kernel) -> None:
        self._ctx_kernel = kernel

    def setup(self, ctx) -> None:
        from repro.demos.ids import ProcessId
        from repro.demos.links import Link
        kernel = self._ctx_kernel
        pcb = kernel.processes[ctx.pid]
        for pid in self.resource_pids:
            link = Link(dst=ProcessId(*pid), channel=RM_CHANNEL)
            self.rm_links.append(kernel.forge_link(pcb, link))

    # ------------------------------------------------------------------
    def on_message(self, ctx, message: DeliveredMessage) -> None:
        body = message.body
        if not isinstance(body, tuple) or not body:
            return
        if message.channel == CLIENT_CHANNEL and body[0] == "txn":
            self._begin(ctx, message, body)
        elif message.channel == VOTE_CHANNEL and body[0] == "vote":
            self._vote(ctx, body)
        elif message.channel == VOTE_CHANNEL and body[0] == "done":
            self._done(ctx, body)

    def _begin(self, ctx, message: DeliveredMessage, body: tuple) -> None:
        _, name, ops = body
        txn_id = self.next_txn
        self.next_txn += 1
        by_rm: Dict[int, List[tuple]] = {}
        for rm_index, op, key, value in ops:
            by_rm.setdefault(rm_index, []).append((op, key, value))
        self.transactions[txn_id] = {
            "name": name,
            "ops": {k: tuple(v) for k, v in by_rm.items()},
            "votes": {},
            "decision": None,
            "done": [],
            "reply_link": message.passed_link_id,
        }
        for rm_index, rm_ops in sorted(by_rm.items()):
            vote_link = ctx.create_link(channel=VOTE_CHANNEL, code=txn_id)
            ctx.send(self.rm_links[rm_index],
                     ("prepare", txn_id, tuple(rm_ops)),
                     pass_link_id=vote_link)

    def _vote(self, ctx, body: tuple) -> None:
        _, txn_id, vote = body
        txn = self.transactions.get(txn_id)
        if txn is None or txn["decision"] is not None:
            return
        txn["votes"][len(txn["votes"])] = vote
        if vote == "no":
            self._decide(ctx, txn_id, "abort")
        elif len(txn["votes"]) == len(txn["ops"]):
            self._decide(ctx, txn_id, "commit")

    def _decide(self, ctx, txn_id: int, decision: str) -> None:
        txn = self.transactions[txn_id]
        txn["decision"] = decision
        for rm_index in sorted(txn["ops"]):
            done_link = ctx.create_link(channel=VOTE_CHANNEL, code=txn_id)
            ctx.send(self.rm_links[rm_index], (decision, txn_id),
                     pass_link_id=done_link)

    def _done(self, ctx, body: tuple) -> None:
        _, txn_id = body
        txn = self.transactions.get(txn_id)
        if txn is None or txn["decision"] is None:
            return
        txn["done"].append(txn_id)
        if len(txn["done"]) < len(txn["ops"]):
            return
        outcome = "committed" if txn["decision"] == "commit" else "aborted"
        if txn["decision"] == "commit":
            self.committed += 1
        else:
            self.aborted += 1
        if txn["reply_link"] is not None:
            ctx.send(txn["reply_link"], (outcome, txn_id))
            ctx.destroy_link(txn["reply_link"])
        del self.transactions[txn_id]


class ResourceManager(Program):
    """A key-value resource with tentative intentions (§6.4).

    "Early phases obtain information, work on it, and store ...
    intentions of updates to be performed should the transaction commit"
    — here the intentions dict is plain process state, recoverable by
    replay rather than by stable storage.
    """

    handler_cpu_ms = 0.5

    def __init__(self, initial: Tuple = ()):
        super().__init__()
        self.data: Dict[str, Any] = {k: v for k, v in initial}
        self.intentions: Dict[int, Tuple] = {}
        self.prepared = 0
        self.committed = 0
        self.aborted = 0

    def on_message(self, ctx, message: DeliveredMessage) -> None:
        body = message.body
        if not isinstance(body, tuple) or not body:
            return
        op = body[0]
        if op == "prepare":
            self._prepare(ctx, message, body)
        elif op in ("commit", "abort"):
            self._finish(ctx, message, body)

    def _prepare(self, ctx, message: DeliveredMessage, body: tuple) -> None:
        _, txn_id, ops = body
        vote = "yes"
        for op, key, value in ops:
            if op == "debit" and self.data.get(key, 0) < value:
                vote = "no"       # insufficient funds: refuse
                break
            if op not in ("debit", "credit", "put"):
                vote = "no"
                break
        if vote == "yes":
            self.intentions[txn_id] = tuple(ops)
            self.prepared += 1
        if message.passed_link_id is not None:
            ctx.send(message.passed_link_id, ("vote", txn_id, vote))
            ctx.destroy_link(message.passed_link_id)

    def _finish(self, ctx, message: DeliveredMessage, body: tuple) -> None:
        decision, txn_id = body[0], body[1]
        ops = self.intentions.pop(txn_id, None)
        if decision == "commit" and ops is not None:
            for op, key, value in ops:
                if op == "debit":
                    self.data[key] = self.data.get(key, 0) - value
                elif op == "credit":
                    self.data[key] = self.data.get(key, 0) + value
                elif op == "put":
                    self.data[key] = value
            self.committed += 1
        elif decision == "abort":
            self.aborted += 1
        if message.passed_link_id is not None:
            ctx.send(message.passed_link_id, ("done", txn_id))
            ctx.destroy_link(message.passed_link_id)


class TxnClient(Program):
    """Submits a scripted sequence of transactions and records outcomes."""

    handler_cpu_ms = 0.5

    def __init__(self, coordinator_pid: Tuple, script: Tuple = ()):
        super().__init__()
        self.coordinator_pid = tuple(coordinator_pid)
        self.script = tuple(script)       # tuple of (name, ops)
        self.index = 0
        self.outcomes: List[Tuple[str, int]] = []
        self.coord_link: Optional[int] = None

    def attach_kernel(self, kernel) -> None:
        self._ctx_kernel = kernel

    def setup(self, ctx) -> None:
        from repro.demos.ids import ProcessId
        from repro.demos.links import Link
        kernel = self._ctx_kernel
        pcb = kernel.processes[ctx.pid]
        self.coord_link = kernel.forge_link(
            pcb, Link(dst=ProcessId(*self.coordinator_pid),
                      channel=CLIENT_CHANNEL))
        self._submit_next(ctx)

    def _submit_next(self, ctx) -> None:
        if self.index >= len(self.script):
            return
        name, ops = self.script[self.index]
        self.index += 1
        reply = ctx.create_link(channel=2)
        ctx.send(self.coord_link, ("txn", name, tuple(ops)),
                 pass_link_id=reply)

    def on_message(self, ctx, message: DeliveredMessage) -> None:
        body = message.body
        if isinstance(body, tuple) and body and body[0] in ("committed", "aborted"):
            self.outcomes.append((body[0], body[1]))
            self._submit_next(ctx)
