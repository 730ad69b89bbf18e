"""Scale probe: one large random geometric run, timed end to end.

    python3 tools/geo_probe.py --nodes 100 --side 40 [--mobile] [--scatternet]
                               [--seconds 10]

N class-3 nodes are placed uniformly in an S x S m square by
``random.Random(1)``; the engine seed is 0. ``--mobile`` gives every node one
waypoint leg to a uniform point that it reaches at the horizon. Traffic is 20
flows 0.5 s apart from t = 1 s, each 10 x 200 B 0.05 s apart; flows that would
start after the horizon are dropped. Waypoints and flows come from the same
generator as the placement.

Prints the wall time of the run, the trace record count, the ``ctrl_sent`` and
``data_tx`` counts, the delivery ratio, the process's peak RSS, the number of
events queued at the run's midpoint and the sha256 of the trace as
``bluehop run`` writes it. The run stops once at the midpoint to count its
queue, then resumes to the horizon: the queue holds only events that can
still run, so at the horizon it is empty. The trace streams, as under
``bluehop run``: each record is formatted, hashed and counted as it is
emitted and none is kept, so the peak RSS is the run's own and the wall time
includes formatting and hashing the trace. It is evidence for scale, not a benchmark gate: one run, on
whatever host it runs on.
"""
from __future__ import annotations

import argparse
import hashlib
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bluehop.cli import trace_line  # noqa: E402
from bluehop.scenario import validate_scenario  # noqa: E402
from bluehop.simkernel import Engine  # noqa: E402


def geo_scenario(nodes: int, side: float, horizon: float, mobile: bool, scatternet: bool) -> dict:
    rng = random.Random(1)
    specs = [
        {"id": i, "x": rng.uniform(0, side), "y": rng.uniform(0, side), "class": 3}
        for i in range(nodes)
    ]
    if mobile:
        for spec in specs:
            spec["waypoints"] = [[horizon, rng.uniform(0, side), rng.uniform(0, side)]]
    traffic = []
    for k in range(20):
        start = 1.0 + 0.5 * k
        src, dst = rng.sample(range(nodes), 2)
        if start <= horizon:
            traffic.append(
                {"time": start, "src": src, "dst": dst, "payload_bytes": 200,
                 "count": 10, "interval": 0.05}
            )
    return {
        "link_mode": "scatternet" if scatternet else "geometric",
        "horizon": horizon,
        "nodes": specs,
        "traffic": traffic,
    }


class DigestSink:
    """A trace sink that keeps the sha256 of the trace lines and the count of each kind."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.kinds: Counter[str] = Counter()

    def append(self, record: dict) -> None:
        self.digest.update(trace_line(record).encode())
        self.kinds[record["kind"]] += 1


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=100)
    ap.add_argument("--side", type=float, default=40.0)
    ap.add_argument("--seconds", type=float, default=10.0, help="simulated horizon")
    ap.add_argument("--mobile", action="store_true")
    ap.add_argument("--scatternet", action="store_true")
    args = ap.parse_args(argv)

    config = validate_scenario(
        geo_scenario(args.nodes, args.side, args.seconds, args.mobile, args.scatternet)
    )
    t0 = time.perf_counter()
    engine = Engine(config, 0, DigestSink())
    engine.run(until=config.horizon_hus // 2)
    queued = len(engine.queue)
    m, sink = engine.run()
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ratio = m.delivered / m.messages_sent if m.messages_sent else 0.0
    print(
        f"geo{args.nodes}/{args.side:g}{' mobile' if args.mobile else ' static'}"
        f"{' scatternet' if args.scatternet else ''} {args.seconds:g}s:"
        f" wall {wall:.2f} s, {sink.kinds.total()} records, ctrl_sent {sink.kinds['ctrl_sent']},"
        f" data_tx {sink.kinds['data_tx']}, delivery {ratio:.2f}, peak RSS {rss_mb:.0f} MB,"
        f" queued {queued}, trace sha256 {sink.digest.hexdigest()}"
    )


if __name__ == "__main__":
    main()
