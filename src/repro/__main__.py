"""Command-line front end: ``python -m repro <command>`` (``--help``
lists the commands).

* Plain commands, declared here: ``demo``, ``example3_1``, ``trace`` /
  ``metrics`` (one small crash/recovery scenario's event stream /
  metrics snapshot) and ``perf`` (the clock-free determinism gate).
* Rigs: one subcommand per entry of :data:`repro.rigs.RIGS`,
  plus ``sweep --kind <rig>``, which shards a rig's grid over worker
  processes. This module knows the report protocol, not the rigs: a
  rig's flags come from its declaration, and ``--json`` / ``--output``
  / ``--verify-determinism`` / ``--check`` and the exit code are
  handled once, below (``docs/PERFORMANCE.md``, "Rigs").
"""

from __future__ import annotations

import argparse
import json
import sys

# repro.rigs (the rig table: every subsystem a rig measures, the process
# pools of repro.parallel) and repro.chaos load in the commands that use
# them, so ``example3_1`` or ``trace`` start as fast as ``import repro``.
from repro import System, SystemConfig
from repro.metrics.metering import SendToSelfProgram
from repro.net import MEDIA
from repro.perf.harness import main as perf_main
from repro.perf.workloads import WORKLOADS
from repro.publishing.recovery_time import figure_3_1_example


def _build_demo_campaign(nodes: int):
    """``chaos --scenario demo``'s campaign (tests import this name)."""
    from repro.chaos.campaign import demo_campaign
    return demo_campaign(nodes)


def _cmd_demo(args: argparse.Namespace) -> int:
    # the counter/driver request-reply pair the chaos campaigns break
    from repro.chaos import workload as chaos

    system = System(SystemConfig(nodes=2, medium=args.medium))
    chaos.register_chaos_programs(system)
    system.boot()
    server = system.spawn_program(chaos.CHAOS_COUNTER_IMAGE, node=2)
    client = system.spawn_program(chaos.CHAOS_DRIVER_IMAGE,
                                  args=(tuple(server), 30), node=1)
    system.run(1200)
    print(f"[t={system.engine.now:7.0f} ms] workload running "
          f"({len(system.program_of(client).replies)} replies in)")
    system.crash_process(server)
    print(f"[t={system.engine.now:7.0f} ms] server CRASHED")
    while len(system.program_of(client).replies) < 30:
        system.run(1000)
    replies = system.program_of(client).replies
    ok = replies == [sum(range(1, k + 1)) for k in range(1, 31)]
    print(f"[t={system.engine.now:7.0f} ms] workload complete")
    print(f"replies exactly match the crash-free run: {ok}")
    print(f"recoveries: {system.recovery.stats.recoveries_completed}, "
          f"messages replayed: {system.recovery.stats.messages_replayed}")
    return 0 if ok else 1


def _cmd_example3_1(args: argparse.Namespace) -> int:
    example = figure_3_1_example()
    print(f"after 4-page checkpoint : {example['after_checkpoint_ms']:.0f} ms")
    print(f"after 100 ms of compute : {example['after_compute_ms']:.0f} ms")
    print(f"after one 200 B message : {example['after_message_ms']:.0f} ms")
    return 0


def _run_observed_scenario(medium: str, duration_ms: float, crash: bool):
    """A small deterministic workload that exercises every layer of the
    instrumentation spine: two nodes, a send-to-self measurement program,
    and (optionally) a node crash with transparent recovery."""
    system = System(SystemConfig(nodes=2, medium=medium))
    system.registry.register("metrics/send_to_self", SendToSelfProgram)
    system.boot()
    system.spawn_program("metrics/send_to_self", args=(64,), node=1)
    system.run(duration_ms / 2)
    if crash:
        system.crash_node(2)
    system.run(duration_ms / 2)
    return system


def _write_or_print(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_trace(args: argparse.Namespace) -> int:
    system = _run_observed_scenario(args.medium, args.duration,
                                    not args.no_crash)
    events = system.obs.bus.select(scope=args.scope) if args.scope \
        else list(system.obs.bus)
    text = "\n".join(json.dumps(e.to_dict(), sort_keys=True) for e in events)
    _write_or_print(text, args.output)
    print(f"# {len(events)} events", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    system = _run_observed_scenario(args.medium, args.duration,
                                    not args.no_crash)
    _write_or_print(system.obs.registry.to_json(), args.output)
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    return perf_main(seed=args.seed, smoke=args.smoke, output=args.output,
                     only=args.workload or None, compare=args.compare)


# ----------------------------------------------------------------------
# the report protocol: what the rig drivers do with a payload
# ----------------------------------------------------------------------
def _emit(report, text: str, ok: bool, args: argparse.Namespace) -> int:
    """``--output F`` gets the JSON report, verdict included; stdout gets
    it under ``--json`` and the text otherwise; exit code 0 iff ``ok``."""
    blob = json.dumps(dict(report, ok=ok), indent=2, sort_keys=True)
    if args.output:
        _write_or_print(blob, args.output)
    print(blob if args.json else text)
    return 0 if ok else 1


def _given(args: argparse.Namespace, params) -> dict:
    """The rig parameters the command line set (a bool flag always is);
    the rest keep the rig's, or its grid builder's, declared default."""
    values = ((p.name, getattr(args, p.name, None)) for p in params)
    return {name: value for name, value in values if value is not None}


def _cmd_rig(args: argparse.Namespace) -> int:
    """The CLI driver: run the rig, re-prove determinism if asked."""
    from repro.digest import digest_of
    from repro.rigs import RIGS

    rig = RIGS[args.command]
    params = _given(args, rig.params)
    report = rig(**params)
    text = rig.render(report)
    ok = rig.ok(report)
    if getattr(args, "verify_determinism", False):
        identical = digest_of(rig(**params)) == digest_of(report)
        report["replay_identical"] = identical
        text += ("\n  replay: second run "
                 + ("bit-identical" if identical else "DIVERGED"))
        ok = ok and identical
    return _emit(report, text, ok, args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """The sweep driver: shard the rig's grid, re-run serially under
    ``--check``, pass iff every shard's payload does."""
    from repro.rigs import RIGS, run_sweep

    rig = RIGS[args.kind]
    merged = run_sweep(args.kind, max_workers=args.parallel,
                       check=args.check, **_given(args, rig.params))
    ok = all(rig.ok(shard["payload"]) for shard in merged["shards"])
    lines = [f"sweep {args.kind}: {merged['count']} shards, "
             f"workers={merged['workers'] or 'auto'}, "
             f"digest {merged['digest'][:16]}"]
    if args.check:
        check = merged["serial_check"]
        ok = ok and check["matches"]
        lines.append("serial check: "
                     + ("MATCH" if check["matches"] else "MISMATCH"))
        lines += [f"  - {line}" for line in check["mismatches"]]
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return _emit(merged, "\n".join(lines), ok, args)


# ----------------------------------------------------------------------
# the parser
# ----------------------------------------------------------------------
def _add_params(parser, params, face: str) -> None:
    """Declare the flags of one face (``"run"`` or ``"grid"``) of a
    rig's parameters. No value flag carries an argparse default: absent
    is ``None``, which ``_given`` leaves to the declaration."""
    for p in params:
        if p.on not in ("both", face):
            continue
        kwargs = {"dest": p.name, "help": p.help or None}
        if isinstance(p.default, bool):
            kwargs["action"] = "store_true"
        else:
            kwargs.update(choices=p.choices, type=p.parse or (
                str if p.default is None else type(p.default)))
            if p.repeat:
                kwargs.update(action="append", metavar="N")
        parser.add_argument(p.flag or "--" + p.name.replace("_", "-"),
                            **kwargs)


def build_parser(argv) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of Presotto's PUBLISHING (SOSP 1983)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="crash + transparent recovery demo")
    demo.add_argument("--medium", default="broadcast", choices=tuple(MEDIA))
    demo.set_defaults(fn=_cmd_demo)

    f31 = sub.add_parser("example3_1", help="Figure 3.1 worked example")
    f31.set_defaults(fn=_cmd_example3_1)

    for name, fn, help_text in (
            ("trace", _cmd_trace,
             "dump the scenario's event stream as JSON lines"),
            ("metrics", _cmd_metrics,
             "dump the scenario's metrics snapshot as JSON")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--medium", default="broadcast", choices=tuple(MEDIA))
        cmd.add_argument("--duration", type=float, default=5000.0,
                         help="simulated milliseconds to run")
        cmd.add_argument("--no-crash", action="store_true",
                         help="skip the mid-run node crash")
        cmd.add_argument("--output", default=None,
                         help="write to this file instead of stdout")
        if name == "trace":
            cmd.add_argument("--scope", default=None,
                             help="only events whose scope matches this "
                                  "prefix (e.g. 'transport', 'kernel.1')")
        cmd.set_defaults(fn=fn)

    perf = sub.add_parser(
        "perf", help="run the determinism workloads, compare them "
                     "exactly against BENCH_publishing.json")
    perf.add_argument("--smoke", action="store_true",
                      help="small workload sizes (seconds, for CI)")
    perf.add_argument("--seed", type=int, default=1983,
                      help="master seed for every workload")
    # choices= is deliberately not used: the harness validates names
    # itself (exit 2 with the full list), which keeps the repeatable
    # flag's error identical however the workload set grows.
    perf.add_argument("--workload", action="append", default=None,
                      metavar="NAME",
                      help="run only this workload (repeatable); "
                           "default: all of " + ", ".join(WORKLOADS))
    perf.add_argument("--output", default=None,
                      help="write the report to this path")
    perf.add_argument("--compare", default=None, metavar="COMMITTED.json",
                      help="fail (exit 1) naming every fact that differs "
                           "from this earlier report")
    perf.set_defaults(fn=_cmd_perf)

    if argv and argv[0] in sub.choices:
        return parser       # a plain command: no rig, no table import
    from repro.rigs import RIGS

    # the report protocol's flags, declared once for every rig and sweep
    protocol = argparse.ArgumentParser(add_help=False)
    protocol.add_argument("--json", action="store_true",
                          help="print the report as JSON instead of text")
    protocol.add_argument("--output", default=None, metavar="FILE",
                          help="also write the JSON report to this file")
    for rig in RIGS.values():
        if rig.render is None:
            continue
        cmd = sub.add_parser(rig.name, help=rig.help, parents=[protocol])
        _add_params(cmd, rig.params, "run")
        if rig.replay:
            cmd.add_argument("--verify-determinism", action="store_true",
                             help="run twice and require identical payload "
                                  "digests (event stream's sha-256 included)")
        cmd.set_defaults(fn=_cmd_rig)

    # sweep accepts exactly the flags of its --kind, so the parser that
    # declares --kind reads it off argv before sweep's own is built
    kind = argparse.ArgumentParser(prog="python -m repro sweep",
                                   add_help=False)
    kind.add_argument("--kind", default="chaos", choices=sorted(
        name for name, rig in RIGS.items() if rig.grid))
    sweep = sub.add_parser(
        "sweep", parents=[protocol, kind],
        help="shard a rig's grid over worker processes and merge the "
             "results deterministically")
    sweep.add_argument("--parallel", type=int, default=None, metavar="N",
                       help="worker processes (default: one per core; "
                            "results are identical either way)")
    sweep.add_argument("--check", action="store_true",
                       help="also run serially and fail on any shard "
                            "digest mismatch")
    _add_params(sweep, RIGS[kind.parse_known_args(argv)[0].kind].params,
                "grid")
    sweep.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); die quietly.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
