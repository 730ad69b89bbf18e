"""Node placement, radio classes, lifecycle state, motion, and the in-range graph.

Every link in the simulator derives from this module's adjacency rule: two
nodes are linked only when each sits inside the other's radio range and both
are in the active state. Distances are plain euclidean metres on a 2-D plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

MAX_NODES = 255
NODE_ID_MAX = 254

# Default range in metres per device class. A scenario may override the
# range inside the class band below.
CLASS_DEFAULT_RANGE = {1: 100.0, 2: 30.0, 3: 10.0}
CLASS_RANGE_BANDS = {
    1: (40.0, 100.0),
    2: (15.0, 30.0),
    3: (5.0, 10.0),
}


class NodeState(Enum):
    ACTIVE = "active"
    IDLE = "idle"
    PARKED = "parked"
    SNIFFING = "sniffing"
    OFF = "off"


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RadioClass:
    class_id: int
    range_m: float

    @classmethod
    def for_class(cls, class_id: int, range_m: float | None = None) -> "RadioClass":
        r = CLASS_DEFAULT_RANGE[class_id] if range_m is None else range_m
        lo, hi = CLASS_RANGE_BANDS[class_id]
        if not (lo <= r <= hi):
            raise ValueError(
                f"class {class_id} range {r} m outside the {lo}-{hi} m band"
            )
        return cls(class_id, r)


@dataclass
class Node:
    id: int
    position: Position
    radio: RadioClass
    state: NodeState = NodeState.ACTIVE
    # Motion waypoints as (time_hus, Position), strictly increasing in time.
    waypoints: list[tuple[int, Position]] = field(default_factory=list)
    initial_position: Position | None = None

    def __post_init__(self) -> None:
        if self.initial_position is None:
            self.initial_position = self.position
        times = [t for t, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"node {self.id}: waypoint times must be strictly increasing")


def in_range(a: Node, b: Node) -> bool:
    """True when a and b can hear each other right now.

    The link rule is bidirectional: the distance must fall inside both radios'
    ranges, and both nodes must be active.
    """
    if a.state is not NodeState.ACTIVE or b.state is not NodeState.ACTIVE:
        return False
    d = a.position.distance_to(b.position)
    return d <= a.radio.range_m and d <= b.radio.range_m


def position_at(node: Node, t_hus: int) -> Position:
    """Position of ``node`` at time ``t_hus`` under piecewise-linear motion.

    The path starts at the node's initial position at t=0 and is clamped to
    the last waypoint afterwards. Nodes without waypoints never move.
    """
    if not node.waypoints:
        return node.initial_position
    path = list(node.waypoints)
    if path[0][0] != 0:
        path.insert(0, (0, node.initial_position))
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
        if node.waypoints:
            node.position = position_at(node, t_hus)


def set_node_state(world: dict[int, Node], n: int, state: NodeState) -> None:
    """Switch node ``n`` into ``state``.

    Leaving the active state silently invalidates the node's links; no
    protocol message is implied (a withdraw is a separate, voluntary action).
    Raises KeyError for an unknown node id.
    """
    world[n].state = state
