"""Command-line entry points: run scenarios, dump tables, dump topology.

Exit codes: 0 success, 1 scenario validation error, 2 runtime or usage error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .metrics import summarize
from .scenario import HUS_PER_SECOND, ScenarioError, parse_scenario, sec_to_hus
from .simkernel import Engine

# ``trace.ndjson.part`` is written through a buffer this large: at the default
# 8 KiB a bulk run's trace of several MB costs hundreds of writes, and a larger
# buffer saves no more.
TRACE_BUFFER_BYTES = 256 * 1024

CSV_HEADER = ["msg_id", "src", "dst", "bytes", "outcome", "hops", "latency_us", "retries"]

# Trace lines are byte-for-byte ``json.dumps(record, separators=(",", ":"))``.
# The common kinds are written from their fields with an f-string: keys in
# emission order, ``t_us`` and ``latency_us`` (int or half-us float) via repr,
# hex and vocabulary strings unescaped because they never need escaping, and
# int lists via ``str`` without its spaces.
# A new or changed detail layout must update this table; any other kind goes
# through the shared encoder.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _optional(d: dict, key: str) -> str:
    """The trailing integer ``key`` of a detail, or nothing when the record omits it."""
    return f',"{key}":{d[key]}' if key in d else ""


TRACE_DETAIL = {
    "ctrl_sent": lambda d: f'{{"to":{d["to"]},"ctrl":"{d["ctrl"]}"{_optional(d, "channel")}}}',
    "ctrl_rx": lambda d: f'{{"from":{d["from"]},"ctrl":"{d["ctrl"]}"{_optional(d, "target")}}}',
    "data_tx": lambda d: (
        f'{{"to":{d["to"]},"msg_id":{d["msg_id"]},"fragment":{d["fragment"]},'
        f'"slots":{d["slots"]}{_optional(d, "channel")}}}'
    ),
    "data_rx": lambda d: (
        f'{{"from":{d["from"]},"msg_id":{d["msg_id"]},"fragment":{d["fragment"]},'
        f'"payload":"{d["payload"]}","hop_trace":{str(d["hop_trace"]).replace(" ", "")}}}'
    ),
    "ack_tx": lambda d: f'{{"to":{d["to"]},"msg_id":{d["msg_id"]}{_optional(d, "channel")}}}',
    "ack_rx": lambda d: f'{{"msg_id":{d["msg_id"]},"from":{d["from"]}}}',
    "msg_send": lambda d: (
        f'{{"msg_id":{d["msg_id"]},"dst":{d["dst"]},"bytes":{d["bytes"]},'
        f'"fragments":{d["fragments"]},"plaintext":"{d["plaintext"]}"}}'
    ),
    "delivery": lambda d: (
        f'{{"msg_id":{d["msg_id"]},"src":{d["src"]},"bytes":{d["bytes"]},"hops":{d["hops"]},'
        f'"latency_us":{d["latency_us"]!r},"retries":{d["retries"]},'
        f'"plaintext":"{d["plaintext"]}"}}'
    ),
    "ack_timeout": lambda d: f'{{"msg_id":{d["msg_id"]},"retries_left":{d["retries_left"]}}}',
    "discovery": lambda d: f'{{"target":{d["target"]}}}',
    "drop": lambda d: (
        f'{{"msg_id":{d["msg_id"]},"fragment":{d["fragment"]},"class":"{d["class"]}"}}'
    ),
    "adv_timer": lambda d: "{}",
    "motion": lambda d: "{}",
}


def trace_line(record: dict) -> str:
    """One NDJSON line of the trace: the compact ``json.dumps`` of ``record``."""
    detail = TRACE_DETAIL.get(record["kind"])
    if detail is None:
        return _encode(record) + "\n"
    node = record["node"]
    return (
        f'{{"t_us":{record["t_us"]!r},"seq":{record["seq"]},"kind":"{record["kind"]}",'
        f'"node":{"null" if node is None else node},"detail":{detail(record["detail"])}}}\n'
    )


class _TraceWriter:
    """The engine's trace sink for ``bluehop run``: each record becomes its
    trace line in ``fh`` as it is emitted, and none is kept."""

    def __init__(self, fh) -> None:
        self._write = fh.write

    def append(self, record: dict) -> None:
        self._write(trace_line(record))


def _write_outputs(out_dir: Path, engine: Engine) -> None:
    """``report.json`` and ``deliveries.csv``, both from the run's online metrics."""
    report = summarize(engine.metrics)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with open(out_dir / "deliveries.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(engine.metrics.rows.values())


def _sim_seconds(text: str) -> float:
    """Argument type of ``--at``: simulated seconds >= 0 whose half-microsecond count is finite."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value * HUS_PER_SECOND) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected seconds >= 0 with a finite half-microsecond count, got {text!r}")
    return value


def _cmd_run(args) -> int:
    """One run into ``--out``. The trace streams to a temporary name that
    becomes ``trace.ndjson`` only once the run and the other artifacts are
    written, so a run that fails leaves no partial trace behind."""
    config = parse_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / "trace.ndjson.part"
    try:
        with open(partial, "w", encoding="utf-8", buffering=TRACE_BUFFER_BYTES) as fh:
            engine = Engine(config, args.seed, _TraceWriter(fh))
            engine.run()
        _write_outputs(out_dir, engine)
        os.replace(partial, out_dir / "trace.ndjson")
    finally:
        partial.unlink(missing_ok=True)
    return 0


def _cmd_dump(args) -> int:
    """Print a state dump at ``--at``. The seed chooses only payloads, seals
    and hop channels, none of which a dump shows, so the engine runs at 0."""
    engine = Engine(parse_scenario(args.scenario), 0)
    engine.run(until=sec_to_hus(args.at))
    print(json.dumps(args.dump(engine), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bluehop",
        description="Multi-hop range-extension simulator for short-range radios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write report, trace, deliveries")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=0, help="engine seed (default 0)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_tables = sub.add_parser("tables", help="dump every routing table at a simulated time")
    p_tables.add_argument("scenario")
    p_tables.add_argument("--at", type=_sim_seconds, required=True, help="simulated seconds")
    p_tables.set_defaults(func=_cmd_dump, dump=Engine.routing_tables_json)

    p_topo = sub.add_parser("topo", help="dump the adjacency (and scatternet) at t=0")
    p_topo.add_argument("scenario")
    p_topo.set_defaults(func=_cmd_dump, dump=Engine.topo_json, at=0.0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
