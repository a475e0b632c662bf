"""Replay debugging from published histories (§6.5)."""

from repro.debugger.replay import ReplayDebugger, ReplayStep

__all__ = ["ReplayDebugger", "ReplayStep"]
