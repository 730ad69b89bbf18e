"""Seeded scenario generators for the benchmark workloads.

Each generator turns a ``random.Random`` into one scenario dict in the
public scenario-file schema; the simulator only ever sees that dict (or the
same dict written to a JSON file). Every node is a class-3 radio (10 m).
"""
from __future__ import annotations

import random


def _node(nid: int, x: float, y: float, **extra) -> dict:
    return {"id": nid, "x": round(x, 3), "y": round(y, 3), "class": 3, **extra}


def _flows(rng: random.Random, ids: list[int], n: int, start: float, gap: float,
           count: int, interval: float, nbytes: int) -> list[dict]:
    flows = []
    for i in range(n):
        src, dst = rng.sample(ids, 2)
        flows.append({
            "time": round(start + i * gap, 6), "src": src, "dst": dst,
            "payload_bytes": nbytes, "count": count, "interval": interval,
        })
    return flows


def mobile_mesh(rng: random.Random) -> dict:
    """16 nodes on a 4x4 lattice at 5 m, each walking one straight leg until the horizon.

    Each node walks to a uniform point within 4 m of its lattice point, so
    the mesh stays dense (5 to 10 of the 15 peers in range at the start)
    but links keep breaking under routes. Lost transfers flood discovery
    requests that the mesh answers with advertisements, and routing relaxes
    tables continuously: the distance-vector relaxation storm. Scenarios
    are small so that a pool of many averages out how strongly one draw
    storms.
    """
    cells, step, walk, horizon = 4, 5.0, 4.0, 1.5
    side = (cells - 1) * step
    nodes = []
    for i in range(cells * cells):
        x, y = (i % cells) * step, (i // cells) * step
        to_x = min(side, max(0.0, x + rng.uniform(-walk, walk)))
        to_y = min(side, max(0.0, y + rng.uniform(-walk, walk)))
        nodes.append(_node(i, x, y, waypoints=[[horizon, round(to_x, 3), round(to_y, 3)]]))
    return {
        "link_mode": "geometric",
        "horizon": horizon,
        "nodes": nodes,
        "traffic": _flows(rng, list(range(len(nodes))), 20, 0.3, 0.04, 3, 0.05, 200),
    }


def static_bulk(rng: random.Random) -> dict:
    """A static 10x6 lattice at 8 m spacing carrying six-fragment messages.

    Only 4-neighbour links exist (diagonals are 11.3 m), so the diameter is
    14 hops, under the cost cap of 16. Traffic starts once routing has
    converged and the ack timer covers the longest path, so routing only
    refreshes; sealing, fragmentation, transmit queues and trace volume
    dominate.
    """
    cols, rows, step = 10, 6, 8.0
    nodes = [_node(r * cols + c, c * step, r * step) for r in range(rows) for c in range(cols)]
    return {
        "link_mode": "geometric",
        "horizon": 2.5,
        "protocol": {"t_ack": 0.3},
        "nodes": nodes,
        "traffic": _flows(rng, list(range(cols * rows)), 30, 1.0, 0.04, 5, 0.1, 2000),
    }


def scatternet_churn(rng: random.Random) -> dict:
    """A 5x5 lattice at 7 m spacing in scatternet mode under motion and churn.

    A fifth of the nodes walk out to a random point and back, and two
    nodes either power cycle or withdraw and later rejoin, so piconets
    re-form, routes are withdrawn, expire and are poisoned, and senders
    flood discovery requests.
    """
    side, step, horizon = 5, 7.0, 3.0
    ids = list(range(side * side))
    nodes = [_node(r * side + c, c * step, r * step) for r in range(side) for c in range(side)]
    extent = (side - 1) * step
    for n in rng.sample(ids, len(ids) // 5):
        node = nodes[n]
        node["waypoints"] = [
            [round(rng.uniform(1.0, horizon / 2), 3),
             round(rng.uniform(0, extent), 3), round(rng.uniform(0, extent), 3)],
            [horizon, node["x"], node["y"]],
        ]
    actions = []
    for n in rng.sample(ids, 2):
        t_off = round(rng.uniform(0.5, horizon - 1.5), 3)
        t_on = round(t_off + rng.uniform(0.5, 1.0), 3)
        if rng.random() < 0.5:
            actions.append({"time": t_off, "node": n, "action": "set_state", "state": "off"})
        else:
            actions.append({"time": t_off, "node": n, "action": "withdraw"})
        actions.append({"time": t_on, "node": n, "action": "set_state", "state": "active"})
    actions.sort(key=lambda a: (a["time"], a["node"]))
    return {
        "link_mode": "scatternet",
        "horizon": horizon,
        "nodes": nodes,
        "traffic": _flows(rng, ids, 40, 0.5, 0.04, 2, 0.1, 300),
        "actions": actions,
    }


# Workload name -> (generator, scenarios per pool). One seed yields a pool
# of independent scenarios so that a run's figures average over several
# placements and traffic draws instead of hanging on one of them.
POOLS = {
    "mobile_mesh": (mobile_mesh, 48),
    "static_bulk": (static_bulk, 12),
    "scatternet_churn": (scatternet_churn, 40),
}


def scenarios(workload: str, seed: int) -> list[dict]:
    """The pool of scenario dicts for ``workload`` under ``seed``."""
    generate, count = POOLS[workload]
    return [generate(random.Random(f"{workload}:{seed}:{i}")) for i in range(count)]
