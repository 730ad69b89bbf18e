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
from collections import deque
from pathlib import Path

from .metrics import summarize
from .scenario import HUS_PER_SECOND, NODE_ID_MAX, ScenarioError, parse_scenario, sec_to_hus
from .simkernel import Engine

# ``trace.ndjson.part`` is written through a buffer this large: at the default
# 8 KiB a bulk run's trace of several MB costs hundreds of writes, and a larger
# buffer saves no more.
TRACE_BUFFER_BYTES = 256 * 1024

CSV_HEADER = ["msg_id", "src", "dst", "bytes", "outcome", "hops", "latency_us", "retries"]

# Trace lines are byte-for-byte ``json.dumps(record, separators=(",", ":"))``.
# Each common kind has one function that writes its whole line from the
# record's fields with an f-string: keys in emission order, ``t_us`` and
# ``latency_us`` (int or half-us float) via repr, node ids and hop lists
# through ``_id_text``, other ints via ``format``, and hex and vocabulary
# strings unescaped because they never need escaping.
# A new or changed detail layout must update this table; any other kind goes
# through the shared encoder.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _IdText(dict):
    """The JSON text of a node id: made once for every id a scenario may use
    (and for None), and on each use for any other int."""

    def __missing__(self, key: int) -> str:
        return str(key)


_id_text = _IdText({None: "null"} | {i: str(i) for i in range(NODE_ID_MAX + 1)}).__getitem__


def _ctrl_sent(r: dict) -> str:
    d = r["detail"]
    channel = f',"channel":{d["channel"]}' if "channel" in d else ""
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"ctrl_sent",'
            f'"node":{_id_text(r["node"])},"detail":{{"to":{_id_text(d["to"])},'
            f'"ctrl":"{d["ctrl"]}"{channel}}}}}\n')


def _ctrl_rx(r: dict) -> str:
    d = r["detail"]
    target = f',"target":{d["target"]}' if "target" in d else ""
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"ctrl_rx",'
            f'"node":{_id_text(r["node"])},"detail":{{"from":{_id_text(d["from"])},'
            f'"ctrl":"{d["ctrl"]}"{target}}}}}\n')


def _data_tx(r: dict) -> str:
    d = r["detail"]
    channel = f',"channel":{d["channel"]}' if "channel" in d else ""
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"data_tx",'
            f'"node":{_id_text(r["node"])},"detail":{{"to":{_id_text(d["to"])},'
            f'"msg_id":{d["msg_id"]},"fragment":{d["fragment"]},'
            f'"slots":{d["slots"]}{channel}}}}}\n')


def _data_rx(r: dict) -> str:
    d = r["detail"]
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"data_rx",'
            f'"node":{_id_text(r["node"])},"detail":{{"from":{_id_text(d["from"])},'
            f'"msg_id":{d["msg_id"]},"fragment":{d["fragment"]},"payload":"{d["payload"]}",'
            f'"hop_trace":[{",".join(map(_id_text, d["hop_trace"]))}]}}}}\n')


def _ack_tx(r: dict) -> str:
    d = r["detail"]
    channel = f',"channel":{d["channel"]}' if "channel" in d else ""
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"ack_tx",'
            f'"node":{_id_text(r["node"])},"detail":{{"to":{_id_text(d["to"])},'
            f'"msg_id":{d["msg_id"]}{channel}}}}}\n')


def _ack_rx(r: dict) -> str:
    d = r["detail"]
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"ack_rx",'
            f'"node":{_id_text(r["node"])},"detail":{{"msg_id":{d["msg_id"]},'
            f'"from":{_id_text(d["from"])}}}}}\n')


def _msg_send(r: dict) -> str:
    d = r["detail"]
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"msg_send",'
            f'"node":{_id_text(r["node"])},"detail":{{"msg_id":{d["msg_id"]},'
            f'"dst":{_id_text(d["dst"])},"bytes":{d["bytes"]},"fragments":{d["fragments"]},'
            f'"plaintext":"{d["plaintext"]}"}}}}\n')


def _delivery(r: dict) -> str:
    d = r["detail"]
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"delivery",'
            f'"node":{_id_text(r["node"])},"detail":{{"msg_id":{d["msg_id"]},'
            f'"src":{_id_text(d["src"])},"bytes":{d["bytes"]},"hops":{d["hops"]},'
            f'"latency_us":{d["latency_us"]!r},"retries":{d["retries"]},'
            f'"plaintext":"{d["plaintext"]}"}}}}\n')


def _ack_timeout(r: dict) -> str:
    d = r["detail"]
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"ack_timeout",'
            f'"node":{_id_text(r["node"])},"detail":{{"msg_id":{d["msg_id"]},'
            f'"retries_left":{d["retries_left"]}}}}}\n')


def _discovery(r: dict) -> str:
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"discovery",'
            f'"node":{_id_text(r["node"])},'
            f'"detail":{{"target":{_id_text(r["detail"]["target"])}}}}}\n')


def _drop(r: dict) -> str:
    d = r["detail"]
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"drop",'
            f'"node":{_id_text(r["node"])},"detail":{{"msg_id":{d["msg_id"]},'
            f'"fragment":{d["fragment"]},"class":"{d["class"]}"}}}}\n')


def _no_detail(r: dict) -> str:
    """``adv_timer`` and ``motion``, whose detail is always empty."""
    return (f'{{"t_us":{r["t_us"]!r},"seq":{r["seq"]},"kind":"{r["kind"]}",'
            f'"node":{_id_text(r["node"])},"detail":{{}}}}\n')


TRACE_FORMATTERS = {
    "ctrl_sent": _ctrl_sent,
    "ctrl_rx": _ctrl_rx,
    "data_tx": _data_tx,
    "data_rx": _data_rx,
    "ack_tx": _ack_tx,
    "ack_rx": _ack_rx,
    "msg_send": _msg_send,
    "delivery": _delivery,
    "ack_timeout": _ack_timeout,
    "discovery": _discovery,
    "drop": _drop,
    "adv_timer": _no_detail,
    "motion": _no_detail,
}


def _encoded_line(record: dict) -> str:
    return _encode(record) + "\n"


def trace_line(record: dict) -> str:
    """One NDJSON line of the trace: the compact ``json.dumps`` of ``record``."""
    return TRACE_FORMATTERS.get(record["kind"], _encoded_line)(record)


class _TraceWriter:
    """The engine's trace sink for ``bluehop run``: each record becomes its
    trace line in ``fh`` as it is emitted, and none is kept."""

    def __init__(self, fh) -> None:
        self._write = fh.write

    def append(self, record: dict) -> None:
        # trace_line, inlined: one call per record.
        self._write(TRACE_FORMATTERS.get(record["kind"], _encoded_line)(record))


def _write_outputs(out_dir: Path, engine: Engine) -> None:
    """``report.json`` and ``deliveries.csv``, both from the run's online metrics."""
    report = summarize(engine.metrics)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with open(out_dir / "deliveries.csv", "w", encoding="utf-8", newline="") as fh:
        # Each row's values are in CSV_HEADER order (metrics.record_event builds them).
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(row.values() for row in engine.metrics.rows.values())


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
    and hop channels, none of which a dump shows, so the engine runs at 0.
    No dump reads the trace, so its sink keeps no record."""
    engine = Engine(parse_scenario(args.scenario), 0, deque(maxlen=0))
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
        # Some exceptions carry no text, MemoryError() among them: name the type.
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
