"""docs/PROTOCOLS.md's "Control datagrams" table is the protocol
surface: one row per control record class, its fields in order, and the
sender and handler that exist in the code."""

import os
import re

from repro.demos.kernel import MessageKernel
from repro.demos.messages import Control
from repro.publishing.gossip import GossipCoordinator
from repro.publishing.multi_recorder import MultiRecorderCoordinator
from repro.publishing.recorder import Recorder
from repro.publishing.recovery_manager import RecoveryManager
from repro.publishing.watchdog import Watchdog

DOC = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                   "PROTOCOLS.md")
OWNERS = {cls.__name__: cls for cls in (
    MessageKernel, GossipCoordinator, MultiRecorderCoordinator,
    Recorder, RecoveryManager, Watchdog)}


def table_rows():
    """(record, fields, sender -> handler) of every table row."""
    text = open(DOC, encoding="utf-8").read()
    section = text.split("## 9. Control datagrams", 1)[1]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        fields = () if cells[1] == "—" else tuple(
            name.strip("` ") for name in cells[1].split(","))
        rows.append((cells[0].strip("`"), fields, cells[2]))
    return rows


def test_one_row_per_record_with_its_fields_in_order():
    rows = table_rows()
    assert [name for name, _, _ in rows] == [cls.__name__ for cls in Control]
    assert {name: fields for name, fields, _ in rows} == {
        cls.__name__: cls._fields for cls in Control}


def test_every_sender_and_handler_exists():
    for name, _, route in table_rows():
        ends = re.findall(r"`(\w+)\.(\w+)`", route)
        assert len(ends) == 2, (name, route)
        for owner, method in ends:
            assert callable(getattr(OWNERS[owner], method)), (name, owner)
