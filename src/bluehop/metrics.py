"""Run metrics: delivery, hops, latency, and control overhead.

Counters and the per-message rows of ``deliveries.csv`` are fed one trace
record at a time; replaying a run's trace must reproduce the online metrics
exactly, making the trace the ground truth.
The overhead figure is a packet-count ratio: control packets sent per data
packet forwarded.
"""
from __future__ import annotations

FAILURE_CLASSES = (
    "forward-failure", "ttl-drop", "frame-lost", "no-route", "retry-exhausted", "rejected"
)

# Trace kinds that carry no counter updates but are legal in a trace.
_PASSIVE_KINDS = frozenset(
    {
        "motion",
        "state_change",
        "scatternet",
        "adv_timer",
        "ack_timeout",
        "neighbor_expiry",
        "ctrl_rx",
        "data_rx",
        "ack_rx",
        "withdraw_action",
        "late_delivery",
    }
)


class Metrics:
    """A run's counters and rows; two are equal when every one of them is, so a
    trace's replay can be checked against the run that wrote it."""

    def __init__(self) -> None:
        # One deliveries.csv row per message, in msg_id order (ids are sent in order).
        self.rows: dict[int, dict] = {}
        self.delivered = 0
        self.failed: dict[str, int] = {}
        self.delivered_bytes = 0
        self.hop_counts: list[int] = []
        self.latencies_us: list[float] = []
        self.control_packets: dict[str, int] = {}
        self.data_packets_forwarded = 0
        self.discoveries_triggered = 0
        self.stale_control = 0
        self.lost_packets = 0
        self.packet_drops: dict[str, int] = {}

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def messages_sent(self) -> int:
        return len(self.rows)

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    @property
    def control_total(self) -> int:
        return sum(self.control_packets.values())


def record_event(m: Metrics, record: dict) -> None:
    """Fold one trace record into the metrics.

    Exactly one counter family updates per record, and a message's record
    also sets its row; unknown kinds are rejected so schema drift cannot
    silently skew results.
    """
    kind = record["kind"]
    detail = record["detail"]
    # The most frequent kinds are tested first.
    if kind == "ctrl_sent":
        ck = detail["ctrl"]
        m.control_packets[ck] = m.control_packets.get(ck, 0) + 1
    elif kind in _PASSIVE_KINDS:
        pass
    elif kind in ("data_tx", "ack_tx"):
        m.data_packets_forwarded += 1
    elif kind in ("msg_send", "msg_rejected"):
        outcome = "pending" if kind == "msg_send" else "rejected"
        m.rows[detail["msg_id"]] = dict(
            msg_id=detail["msg_id"], src=record["node"], dst=detail["dst"], bytes=detail["bytes"],
            outcome=outcome, hops="", latency_us="", retries=0,
        )
        if outcome == "rejected":
            m.failed["rejected"] = m.failed.get("rejected", 0) + 1
    elif kind == "msg_failed":
        cls = detail["class"]
        if cls not in FAILURE_CLASSES:
            raise ValueError(f"unknown failure class: {cls}")
        m.failed[cls] = m.failed.get(cls, 0) + 1
        m.rows[detail["msg_id"]].update(outcome=cls, retries=detail["retries"])
    elif kind == "delivery":
        m.delivered += 1
        m.delivered_bytes += detail["bytes"]
        m.hop_counts.append(detail["hops"])
        m.latencies_us.append(detail["latency_us"])
        m.rows[detail["msg_id"]].update(
            outcome="delivered",
            hops=detail["hops"],
            latency_us=detail["latency_us"],
            retries=detail["retries"],
        )
    elif kind == "discovery":
        m.discoveries_triggered += 1
    elif kind == "stale_ctrl":
        m.stale_control += 1
    elif kind == "packet_lost":
        m.lost_packets += 1
    elif kind == "drop":
        cls = detail["class"]
        m.packet_drops[cls] = m.packet_drops.get(cls, 0) + 1
    else:
        raise ValueError(f"unknown trace record kind: {kind}")


def replay(trace: list[dict]) -> Metrics:
    """Recompute metrics from a full trace."""
    m = Metrics()
    for record in trace:
        record_event(m, record)
    return m


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile over a non-empty value list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(n * pct / 100)
    return ordered[int(rank) - 1]


def summarize(m: Metrics) -> dict:
    """JSON-ready report of the quantities the protocol is judged on."""
    pending = m.messages_sent - m.delivered - m.failed_total
    report = {
        "messages_sent": m.messages_sent,
        "delivered": m.delivered,
        "failed": {k: m.failed[k] for k in sorted(m.failed)},
        "pending": pending,
        "delivery_ratio": (m.delivered / m.messages_sent) if m.messages_sent else None,
        "delivered_payload_bytes": m.delivered_bytes,
        "hops": {
            "mean": (sum(m.hop_counts) / len(m.hop_counts)) if m.hop_counts else None,
            "max": max(m.hop_counts) if m.hop_counts else None,
            "histogram": {
                str(h): m.hop_counts.count(h) for h in sorted(set(m.hop_counts))
            },
        },
        "latency_us": {
            "p50": _percentile(m.latencies_us, 50) if m.latencies_us else None,
            "p95": _percentile(m.latencies_us, 95) if m.latencies_us else None,
            "max": max(m.latencies_us) if m.latencies_us else None,
        },
        "control_packets": {
            **{k: m.control_packets[k] for k in sorted(m.control_packets)},
            "total": m.control_total,
        },
        "data_packets_forwarded": m.data_packets_forwarded,
        "discoveries_triggered": m.discoveries_triggered,
        "stale_control": m.stale_control,
        "lost_packets": m.lost_packets,
        "packet_drops": {k: m.packet_drops[k] for k in sorted(m.packet_drops)},
        "control_overhead_ratio": m.control_total / max(1, m.data_packets_forwarded),
    }
    return report


def deliveries_from_trace(trace: list[dict]) -> list[dict]:
    """Per-message delivery rows (msg_id, src, dst, bytes, outcome, ...)."""
    return list(replay(trace).rows.values())
