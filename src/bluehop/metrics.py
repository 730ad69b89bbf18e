"""Run metrics: delivery, hops, latency, and control overhead.

Counters and the per-message rows of ``deliveries.csv`` are fed one trace
record at a time; replaying a run's trace must reproduce the online metrics
exactly, making the trace the ground truth.
The overhead figure is a packet-count ratio: control packets sent per data
packet forwarded.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class Metrics:
    # One deliveries.csv row per message, in msg_id order (ids are sent in order).
    rows: dict[int, dict] = field(default_factory=dict)
    delivered: int = 0
    failed: dict[str, int] = field(default_factory=dict)
    delivered_bytes: int = 0
    hop_counts: list[int] = field(default_factory=list)
    latencies_us: list[float] = field(default_factory=list)
    control_packets: dict[str, int] = field(default_factory=dict)
    data_packets_forwarded: int = 0
    discoveries_triggered: int = 0
    stale_control: int = 0
    lost_packets: int = 0
    packet_drops: dict[str, int] = field(default_factory=dict)

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
