import pytest

from bluehop import scenario_path
from bluehop.metrics import (
    Metrics,
    deliveries_from_trace,
    record_event,
    replay,
    summarize,
)
from bluehop.scenario import parse_scenario
from bluehop.simkernel import run_scenario


def rec(kind, node=0, **detail):
    return {"t_us": 0, "seq": 0, "kind": kind, "node": node, "detail": detail}


class TestRecordEvent:
    def test_delivery_updates_counters_and_histograms(self):
        m = Metrics()
        record_event(m, rec("msg_send", msg_id=0, dst=1, bytes=10, fragments=1))
        record_event(
            m, rec("delivery", node=1, msg_id=0, src=0, bytes=10, hops=2, latency_us=1250, retries=0)
        )
        assert m.messages_sent == 1 and m.delivered == 1
        assert m.hop_counts == [2] and m.latencies_us == [1250]

    def test_control_packet_counted_by_kind(self):
        m = Metrics()
        record_event(m, rec("ctrl_sent", to=1, ctrl="advertisement"))
        record_event(m, rec("ctrl_sent", to=1, ctrl="withdraw"))
        assert m.control_packets == {"advertisement": 1, "withdraw": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record_event(Metrics(), rec("brand_new_kind"))

    def test_unknown_failure_class_rejected(self):
        with pytest.raises(ValueError):
            record_event(Metrics(), rec("msg_failed", msg_id=0, **{"class": "mystery"}))

    def test_rejection_counts_as_sent_and_failed(self):
        m = Metrics()
        record_event(m, rec("msg_rejected", msg_id=0, dst=1, bytes=4, reason="x"))
        assert m.messages_sent == 1
        assert m.failed == {"rejected": 1}


class TestReplay:
    @pytest.mark.parametrize(
        "name", ["figure4.json", "figure4_norelay.json", "line5.json", "diamond_failover.json"]
    )
    def test_replaying_trace_reproduces_online_metrics(self, name):
        config = parse_scenario(scenario_path(name))
        online, trace = run_scenario(config, 11)
        assert replay(trace) == online


class TestSummarize:
    def test_zero_messages_reports_null_ratio(self):
        report = summarize(Metrics())
        assert report["delivery_ratio"] is None
        assert report["hops"]["mean"] is None
        assert report["latency_us"]["p50"] is None

    def test_all_delivered_is_ratio_one(self):
        config = parse_scenario(scenario_path("figure4.json"))
        m, _ = run_scenario(config, 0)
        assert summarize(m)["delivery_ratio"] == 1.0

    def test_five_node_line_mean_hops(self):
        config = parse_scenario(scenario_path("line5.json"))
        m, _ = run_scenario(config, 0)
        report = summarize(m)
        assert report["hops"]["mean"] == 4  # bfs distance end to end
        assert report["hops"]["histogram"] == {"4": 1}

    def test_outcome_partition_adds_up(self):
        for name in ("figure4.json", "figure4_norelay.json", "diamond_failover.json"):
            m, _ = run_scenario(parse_scenario(scenario_path(name)), 5)
            report = summarize(m)
            assert (
                report["delivered"] + sum(report["failed"].values()) + report["pending"]
                == report["messages_sent"]
            )

    def test_overhead_ratio_uses_packet_counts(self):
        m = Metrics()
        record_event(m, rec("ctrl_sent", to=1, ctrl="advertisement"))
        record_event(m, rec("ctrl_sent", to=1, ctrl="advertisement"))
        record_event(m, rec("data_tx", to=1, msg_id=0, fragment=0, slots=1))
        assert summarize(m)["control_overhead_ratio"] == 2.0

    def test_overhead_ratio_defined_without_data(self):
        m = Metrics()
        record_event(m, rec("ctrl_sent", to=1, ctrl="advertisement"))
        assert summarize(m)["control_overhead_ratio"] == 1.0


class TestDeliveriesRows:
    def test_rows_for_mixed_outcomes(self):
        config = parse_scenario(scenario_path("diamond_failover.json"))
        _, trace = run_scenario(config, 0)
        rows = deliveries_from_trace(trace)
        assert len(rows) == 1
        row = rows[0]
        assert row["outcome"] == "delivered"
        assert row["retries"] >= 1
        assert row["hops"] == 2

    def test_rows_follow_each_message_outcome(self):
        trace = [
            rec("msg_send", node=0, msg_id=0, dst=3, bytes=10, fragments=1),
            rec("msg_rejected", node=1, msg_id=1, dst=2, bytes=4, reason="src not active"),
            rec("msg_send", node=2, msg_id=2, dst=0, bytes=20, fragments=1),
            rec("msg_send", node=3, msg_id=3, dst=1, bytes=30, fragments=1),
            rec("msg_failed", node=2, msg_id=2, retries=3, **{"class": "retry-exhausted"}),
            rec("late_delivery", node=0, msg_id=2),
            rec("delivery", node=1, msg_id=3, src=3, bytes=30, hops=2, latency_us=812.5, retries=1),
        ]
        def row(msg_id, src, dst, nbytes, outcome, hops="", latency_us="", retries=0):
            return dict(msg_id=msg_id, src=src, dst=dst, bytes=nbytes, outcome=outcome,
                        hops=hops, latency_us=latency_us, retries=retries)

        assert deliveries_from_trace(trace) == [
            row(0, 0, 3, 10, "pending"),
            row(1, 1, 2, 4, "rejected"),
            row(2, 2, 0, 20, "retry-exhausted", retries=3),  # the late delivery changes nothing
            row(3, 3, 1, 30, "delivered", hops=2, latency_us=812.5, retries=1),
        ]
        m = replay(trace)
        assert list(m.rows.values()) == deliveries_from_trace(trace)
        assert summarize(m)["pending"] == 1

    def test_failed_row_has_blank_hops(self):
        config = parse_scenario(scenario_path("figure4_norelay.json"))
        _, trace = run_scenario(config, 0)
        row = deliveries_from_trace(trace)[0]
        assert row["outcome"] == "no-route"
        assert row["hops"] == "" and row["latency_us"] == ""
