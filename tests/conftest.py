"""Shared oracle helpers, kept independent of the code paths they check."""
from __future__ import annotations

import importlib.util
import math
import random
from collections import deque
from pathlib import Path

from bluehop.routing import INF, ChangeRecord, ControlMessage, MessageKind, Vector
from bluehop.scenario import validate_scenario


def bfs_distances(adjacency: dict[int, set[int]], src: int) -> dict[int, int]:
    """Plain breadth-first hop distances; the routing oracle."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def advert(origin: int, entries) -> ControlMessage:
    """An advertisement from ``origin`` carrying any (destination, cost) pairs.

    Its vector's record has no parent, so the next different vector from
    ``origin`` takes the full relaxation pass, as one that reaches back no
    further would.
    """
    msg = ControlMessage(MessageKind.ADVERTISEMENT, origin)
    msg.vector = Vector(INF, dict(entries), ChangeRecord((), None))
    return msg


def geometric_adjacency(
    positions: dict[int, tuple[float, float]], radius: float = 10.0
) -> dict[int, set[int]]:
    """In-range graph computed directly from coordinates."""
    return {
        i: {
            j
            for j in positions
            if j != i and math.dist(positions[i], positions[j]) <= radius
        }
        for i in positions
    }


def random_positions(seed: int, span: float = 40.0, n_range=(5, 25)):
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    return {i: (rng.uniform(0, span), rng.uniform(0, span)) for i in range(n)}


def geometric_scenario(positions, horizon=0.5, **extra):
    """Scenario config over class-3 nodes at the given coordinates."""
    data = {
        "link_mode": "geometric",
        "horizon": horizon,
        "nodes": [
            {"id": i, "x": float(x), "y": float(y), "class": 3}
            for i, (x, y) in sorted(positions.items())
        ],
    }
    data.update(extra)
    return validate_scenario(data)


def load_workloads():
    """bench/workloads.py, imported without putting bench/ on sys.path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
