"""Node placement, lifecycle state, motion, and the in-range graph.

Every link in the simulator derives from this module's adjacency rule: two
nodes are linked only when each sits inside the other's radio range and both
are in the active state. Distances are plain euclidean metres on a 2-D plane.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum


class NodeState(Enum):
    ACTIVE = "active"
    IDLE = "idle"
    PARKED = "parked"
    SNIFFING = "sniffing"
    OFF = "off"


# Read per pair on every relink; EnumType's ``__getattr__`` makes a class read slow.
_ACTIVE = NodeState.ACTIVE


Position = namedtuple("Position", "x y")


class Node:
    def __init__(self, position: Position, range_m: float, state: NodeState = NodeState.ACTIVE,
                 path: list[tuple[int, Position]] | None = None):
        self.position = position
        self.range_m = range_m
        self.state = state
        # Motion path as (time_hus, Position), strictly increasing in time and
        # starting at t=0; empty for a node that never moves.
        self.path = [] if path is None else path


def in_range(a: Node, b: Node) -> bool:
    """True when a and b can hear each other right now.

    The link rule is bidirectional: the distance must fall inside both radios'
    ranges, and both nodes must be active.
    """
    if a.state is not _ACTIVE or b.state is not _ACTIVE:
        return False
    d = math.dist(a.position, b.position)
    return d <= a.range_m and d <= b.range_m


def position_at(node: Node, t_hus: int) -> Position:
    """Position of ``node`` at time ``t_hus`` under piecewise-linear motion.

    The position is clamped to the path's first point before it and to its
    last point afterwards. Nodes without a path never move.
    """
    path = node.path
    if not path:
        return node.position
    if t_hus <= path[0][0]:
        return path[0][1]
    if t_hus >= path[-1][0]:
        return path[-1][1]
    for (t0, p0), (t1, p1) in zip(path, path[1:]):
        if t0 <= t_hus <= t1:
            f = (t_hus - t0) / (t1 - t0)
            return Position(p0.x + f * (p1.x - p0.x), p0.y + f * (p1.y - p0.y))
    return path[-1][1]


def apply_motion(world: dict[int, Node], t_hus: int) -> None:
    """Move every node to its waypoint-interpolated position at time t."""
    for node in world.values():
        if node.path:
            node.position = position_at(node, t_hus)
