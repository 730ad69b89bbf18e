"""bluehop benchmark: host time, memory and simulated outcome per workload.

Run from the repository root:

    python3 bench/run.py --workload mobile_mesh --seed 1 --seconds 40 --trace 0

A workload is a pool of scenarios generated from ``--seed``. With
``--trace 0`` a fresh child process first runs the pool once through the
CLI for peak RSS; then, after a warm-up on the first scenario, rounds drive
every scenario of the pool through ``validate_scenario`` + ``Engine`` and
through ``cli.main(["run", ...])`` until ``--seconds`` have passed (at
least one round). With ``--trace 1`` a round also runs each scenario
through the CLI with every layer's public functions wrapped by a span
recorder, which yields the per-layer split and the tracing overhead. Every
repetition is checked; the last line printed is the JSON result with the
metrics BENCHMARK.json names.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

# One child process runs the whole pool through the CLI and reports its own
# peak resident set size (Linux reports ru_maxrss in KiB).
RSS_CHILD = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from bluehop import cli
for scenario, out in zip(sys.argv[2::2], sys.argv[3::2]):
    code = cli.main(["run", scenario, "--out", out])
    if code:
        sys.exit(code)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Host times are scaled by REFERENCE_S / (time of reference_seconds() around
# the measurement), i.e. reported as seconds on a host that runs the
# reference loop in REFERENCE_S. Other tenants of a shared host slow the
# program and the loop alike, so scaled times stay put while raw times can
# swing by a factor of two within minutes.
REFERENCE_S = 0.02
CHUNK_S = 0.5  # engine-path seconds between two reference measurements

EVENT_KINDS = (
    "neighbor_expiry", "advertisement_timer", "packet_arrival",
    "motion_update", "ack_timer", "scenario_action",
)


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def engine_digests(report: dict, trace: list[dict]) -> tuple[str, str]:
    """Digests of report.json and trace.ndjson as ``bluehop run`` writes them."""
    rep = hashlib.sha256((json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
    lines = map(json.JSONEncoder(separators=(",", ":")).encode, trace)
    tr = hashlib.sha256(("".join(line + "\n" for line in lines)).encode())
    return rep.hexdigest(), tr.hexdigest()


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, the rule report.json uses."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def reference_seconds() -> float:
    """Host time of a fixed pure-Python loop of heap, dict and small-object work."""
    gc.collect()
    t0 = time.perf_counter()
    heap = [((i * 0.618034) % 1.0, i, {"node": i % 50}) for i in range(200)]
    heapq.heapify(heap)
    table: dict[int, dict[int, int]] = {}
    for seq in range(200, 16200):
        t, _, event = heapq.heappop(heap)
        row = table.setdefault(event["node"], {})
        row[seq % 37] = min(row.get(seq % 37, 99), int(t * 16) % 99)
        heapq.heappush(heap, (t + (seq * 0.618034) % 1.0, seq, {"node": (event["node"] * 7 + 3) % 50}))
    return time.perf_counter() - t0


class Bench:
    """One benchmark run: the generated pool, its files, checks and counters."""

    def __init__(self, workload: str, seed: int, seconds: float):
        from bluehop import cli, metrics, scenario, simkernel
        self.cli, self.metrics, self.scenario, self.simkernel = cli, metrics, scenario, simkernel
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + seconds
        self.pool = workloads.scenarios(workload, seed)
        self.run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.paths = []
        for i, data in enumerate(self.pool):
            path = self.run_dir / f"scenario-{i}.json"
            path.write_text(json.dumps(data, indent=1), encoding="utf-8")
            self.paths.append(path)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[dict | None] = [None] * len(self.pool)
        self.outcomes: list = [None] * len(self.pool)
        self.loop_times: list[float] = []
        self.last_spans: SpanRecorder | None = None

    # ----------------------------------------------------------- operations

    def attempt(self, label: str, fn, *args):
        """Run one repetition; an exception or a failed check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def expect(self, i: int, key: str, digest: str) -> None:
        ref = self.digests[i] = self.digests[i] or {}
        if key not in ref:
            ref[key] = digest
        check(ref[key] == digest, f"scenario {i}: {key} digest differs between repetitions or paths")

    def engine_pass(self, i: int) -> dict:
        """validate + Engine + run(until=0) as set-up, then run to the horizon."""
        gc.collect()
        t0 = time.perf_counter()
        engine = self.simkernel.Engine(self.scenario.validate_scenario(self.pool[i]), 0)
        engine.run(until=0)
        t1 = time.perf_counter()
        queued = len(engine.queue)
        engine.run()
        t2 = time.perf_counter()
        m = engine.metrics
        check(self.metrics.replay(engine.trace) == m, "replay(trace) != engine.metrics")
        report = self.metrics.summarize(m)
        failed = sum(report["failed"].values())
        check(report["pending"] >= 0, "negative pending count")
        check(report["messages_sent"] == report["delivered"] + failed + report["pending"],
              "messages_sent != delivered + failed + pending")
        rep, tr = engine_digests(report, engine.trace)
        if self.outcomes[i] is None:
            self.outcomes[i] = (m.messages_sent, m.delivered, m.control_total,
                                m.data_packets_forwarded, list(m.latencies_us))
        self.expect(i, "report", rep)
        self.expect(i, "trace", tr)
        return {"setup": t1 - t0, "run": t2 - t1, "queued": queued}

    def cli_pass(self, i: int, tag: str) -> dict:
        out = self.run_dir / f"out-{tag}-{i}"
        gc.collect()
        t0 = time.perf_counter()
        code = self.cli.main(["run", str(self.paths[i]), "--out", str(out)])
        t1 = time.perf_counter()
        check(code == 0, f"bluehop run exited with {code}")
        return {"cli": t1 - t0, **self.check_outputs(i, out)}

    def check_outputs(self, i: int, out: Path) -> dict:
        self.expect(i, "report", sha256_file(out / "report.json"))
        self.expect(i, "trace", sha256_file(out / "trace.ndjson"))
        self.expect(i, "deliveries", sha256_file(out / "deliveries.csv"))
        trace_bytes = (out / "trace.ndjson").stat().st_size
        shutil.rmtree(out)
        return {"trace_bytes": trace_bytes}

    def traced_cli_pass(self, i: int) -> dict:
        rec = SpanRecorder()
        with rec.tracing(*trace_targets()):
            result = self.cli_pass(i, "traced")
        leftover = SpanRecorder.leftover(*trace_targets())
        check(not leftover, f"wrappers outlived the traced run: {leftover}")
        self.last_spans = rec
        return {**result, "calls": rec.calls(), "self": rec.self_times(),
                "counts": dict(rec.counts), "spans": len(rec.start)}

    # --------------------------------------------------------------- rounds

    def rounds(self, one_round) -> list[list[dict]]:
        """Warm-up, then measured rounds until the deadline.

        The warm-up runs the first scenario through both paths unmeasured,
        so imports, code caches and the allocator are warm before timing.
        A round is one pass over the pool. Another round starts only when
        the longest round so far still fits before the deadline.
        """
        self.attempt("warm-up engine", self.engine_pass, 0)
        self.attempt("warm-up cli", self.cli_pass, 0, "plain")
        done: list[list[dict]] = []
        longest = 0.0
        while not done or time.perf_counter() + longest < self.deadline:
            t0 = time.perf_counter()
            done.append(one_round())
            longest = max(longest, time.perf_counter() - t0)
        return done

    def measure_end_to_end(self) -> dict:
        def one_round():
            row: list[dict | None] = [None] * len(self.pool)
            todo = list(range(len(self.pool)))
            ref_before = reference_seconds()
            while todo:
                chunk = []
                t0 = time.perf_counter()
                while todo and (not chunk or time.perf_counter() - t0 < CHUNK_S):
                    i = todo.pop(0)
                    chunk.append((i, self.attempt(f"engine {i}", self.engine_pass, i)))
                ref_mid = reference_seconds()
                cli = [self.attempt(f"cli {i}", self.cli_pass, i, "plain") for i, _ in chunk]
                ref_after = reference_seconds()
                e_scale = REFERENCE_S / ((ref_before + ref_mid) / 2)
                c_scale = REFERENCE_S / ((ref_mid + ref_after) / 2)
                for (i, e), c in zip(chunk, cli):
                    if e is not None and c is not None:
                        row[i] = {"setup": e["setup"] * e_scale, "run": e["run"] * e_scale,
                                  "cli": c["cli"] * c_scale, "raw_run": e["run"]}
                self.loop_times += [ref_before, ref_mid]
                ref_before = ref_after
            return row

        rss = self.attempt("rss child", self.peak_rss_mb)
        samples = self.rounds(one_round)
        k = len(self.pool)
        horizon = sum(d["horizon"] for d in self.pool)
        setup = per_scenario(samples, "setup")
        run = per_scenario(samples, "run")
        cli = per_scenario(samples, "cli")
        raw_run = per_scenario(samples, "raw_run")
        sent, delivered, control, forwarded, latencies = self.pooled_outcomes()
        ref = statistics.median(self.loop_times)
        print(f"rounds {len(samples)} x {k} scenarios; reference loop median {ref * 1e3:.2f} ms "
              f"over {len(self.loop_times)} samples; unscaled sim_speed {horizon / sum(raw_run):.4f}")
        return {
            "setup_s": sum(setup) / k,
            "sim_speed": horizon / sum(run),
            "cli_run_s": sum(cli) / k,
            "peak_rss_mb": rss,
            "sim_delivery_ratio": delivered / sent,
            "sim_control_overhead": control / forwarded,
            "sim_latency_p95_ms": percentile(latencies, 95) / 1000,
        }

    def pooled_outcomes(self):
        outs = [o for o in self.outcomes if o is not None]
        check(len(outs) == len(self.pool), "a scenario never completed")
        return (
            sum(o[0] for o in outs), sum(o[1] for o in outs), sum(o[2] for o in outs),
            sum(o[3] for o in outs), [x for o in outs for x in o[4]],
        )

    def peak_rss_mb(self) -> float:
        args = []
        for i, path in enumerate(self.paths):
            args += [str(path), str(self.run_dir / f"out-child-{i}")]
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, str(SRC), *args],
            capture_output=True, text=True, timeout=150, check=False,
        )
        check(proc.returncode == 0, f"child exited with {proc.returncode}: {proc.stderr[-300:]}")
        for i in range(len(self.paths)):
            self.check_outputs(i, self.run_dir / f"out-child-{i}")
        return int(proc.stdout.split()[-1]) / 1024

    def measure_layers(self) -> dict:
        def one_round():
            row = []
            for i in range(len(self.pool)):
                e = self.attempt(f"engine {i}", self.engine_pass, i)
                c = self.attempt(f"cli {i}", self.cli_pass, i, "plain")
                t = self.attempt(f"traced cli {i}", self.traced_cli_pass, i)
                row.append(None if None in (e, c, t) else {**e, **c, "traced": t})
            return row

        samples = self.rounds(one_round)
        per_round = [layer_values(row) for row in samples if None not in row]
        check(bool(per_round), "no complete traced round")
        first = per_round[0]
        timed = {k for k in first if k.endswith("_s") or k == "simkernel.us_per_event"}
        for r in per_round[1:]:
            check(all(r[k] == first[k] for k in r if k not in timed),
                  "per-layer counts differ between rounds")
        out = {k: statistics.median(r[k] for r in per_round) if k in timed else v
               for k, v in first.items()}
        out["tracing.overhead_ratio"] = out["tracing.traced_cli_s"] / out["tracing.untraced_cli_s"] - 1
        spans_file = OUT / f"spans-{self.workload}.tsv"
        self.last_spans.dump(spans_file)
        print(f"rounds {len(per_round)} x {len(self.pool)} scenarios; spans of the last traced "
              f"scenario written to {spans_file.relative_to(ROOT)}")
        return out

    def print_digests(self) -> None:
        combined = hashlib.sha256()
        for i, ref in enumerate(self.digests):
            if ref is None:
                continue
            print(f"digest {self.workload} seed={self.seed} scenario={i} "
                  f"report={ref.get('report')} trace={ref.get('trace')}")
            combined.update(f"{ref.get('report')}{ref.get('trace')}".encode())
        print(f"digest {self.workload} seed={self.seed} pool={combined.hexdigest()}")

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def per_scenario(samples: list[list[dict | None]], key: str) -> list[float]:
    """Median over rounds of each scenario's time; failed repetitions are skipped."""
    out = []
    for i in range(len(samples[0])):
        values = [row[i][key] for row in samples if row[i] is not None]
        check(bool(values), f"scenario {i} never completed")
        out.append(statistics.median(values))
    return out


# ------------------------------------------------------------------ tracing

def _on_pop(rec, args, event):
    rec.count("simkernel.events")
    rec.count("simkernel.events." + event.kind.value)


def _on_schedule(rec, args, event):
    rec.peak("simkernel.heap_peak", len(args[0]))


def _on_process_advertisement(rec, args, changed):
    rec.count("routing.process_advertisement.changed", int(bool(changed)))


def _on_make_advertisement(rec, args, adv):
    rec.count("routing.adv_entries", len(adv.entries))


def _on_seal(rec, args, sealed):
    rec.count("transport.seal_payload.bytes", len(args[0]))


def _on_fragment(rec, args, pieces):
    rec.count("transport.fragments", len(pieces))


def _on_record(rec, args, _):
    kind = args[1]["kind"]
    if kind == "ack_timeout":
        rec.count("transport.ack_timeouts")
    elif kind == "neighbor_expiry":
        rec.count("simkernel.expiry_useful")


BASEBAND = ("next_tx_start_hus", "hop_channel", "tx_duration_hus", "slots_for_payload")


def trace_targets():
    """(owner, attribute, span name, observer) for every wrapped entry point."""
    from bluehop import (baseband, cli, metrics, routing, scatternet, scenario,
                         simkernel, topology, transport)
    targets = [
        (scenario, "validate_scenario", "scenario.validate_scenario", None),
        (simkernel.Engine, "__init__", "simkernel.Engine", None),
        (simkernel.Engine, "run", "simkernel.Engine", None),
        (simkernel.EventQueue, "schedule", "simkernel.queue", _on_schedule),
        (simkernel.EventQueue, "pop", "simkernel.queue", _on_pop),
        (routing, "init_routing", "routing.init_routing", None),
        (routing, "make_advertisement", "routing.make_advertisement", _on_make_advertisement),
        (routing, "process_advertisement", "routing.process_advertisement",
         _on_process_advertisement),
        (routing, "handle_withdraw", "routing.handle_withdraw", None),
        (routing, "trigger_discovery", "routing.trigger_discovery", None),
        (routing, "select_next_hop", "routing.select_next_hop", None),
        (scatternet, "link_allowed", "scatternet.link_allowed", None),
        (scatternet, "form_scatternet", "scatternet.form_scatternet", None),
        (scatternet.Scatternet, "link_piconet", "scatternet.link_piconet", None),
        (topology, "apply_motion", "topology.apply_motion", None),
        *[(baseband, name, "baseband", None) for name in BASEBAND],
        (transport, "make_payload", "transport.make_payload", None),
        (transport, "seal_payload", "transport.seal_payload", _on_seal),
        (transport, "fragment_sealed", "transport.fragment_sealed", _on_fragment),
        (transport, "open_payload_at", "transport.open_payload_at", None),
        (transport, "choose_first_hop", "transport.choose_first_hop", None),
        (metrics, "record_event", "metrics.record_event", _on_record),
        (metrics, "summarize", "metrics.summarize", None),
        (metrics, "deliveries_from_trace", "metrics.deliveries_from_trace", None),
        (cli, "main", "cli.main", None),
    ]
    modules = [baseband, cli, metrics, routing, scatternet, scenario, simkernel, topology,
               transport]
    return targets, modules


def layer_values(row: list[dict]) -> dict:
    """Per-layer metrics of one round, summed over the pool."""
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    spans = 0
    for r in row:
        traced = r["traced"]
        spans += traced["spans"]
        for k, v in traced["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in traced["self"].items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in traced["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k == "simkernel.heap_peak" else counts.get(k, 0) + v
    events = counts.get("simkernel.events", 0)
    untraced_run = sum(r["run"] for r in row)
    layer_s = lambda prefix: sum(v for k, v in selfs.items() if k.startswith(prefix))  # noqa: E731
    out = {
        "simkernel.events": events,
        **{f"simkernel.events.{k}": counts.get(f"simkernel.events.{k}", 0) for k in EVENT_KINDS},
        "simkernel.scheduled_at_setup": sum(r["queued"] for r in row),
        "simkernel.heap_peak": counts.get("simkernel.heap_peak", 0),
        "simkernel.queue_s": selfs["simkernel.queue"],
        "simkernel.self_s": selfs["simkernel.Engine"],
        "simkernel.expiry_useful_ratio": ratio(counts.get("simkernel.expiry_useful", 0),
                                               counts.get("simkernel.events.neighbor_expiry", 0)),
        "simkernel.us_per_event": untraced_run / events * 1e6 if events else 0.0,
        "routing.self_s": layer_s("routing."),
        "routing.process_advertisement.changed_ratio": ratio(
            counts.get("routing.process_advertisement.changed", 0),
            calls["routing.process_advertisement"]),
        "routing.adv_entries": counts.get("routing.adv_entries", 0),
        "scatternet.self_s": layer_s("scatternet."),
        "baseband.calls": calls["baseband"],
        "baseband.self_s": selfs["baseband"],
        "transport.self_s": layer_s("transport."),
        "transport.seal_payload.bytes": counts.get("transport.seal_payload.bytes", 0),
        "transport.fragments": counts.get("transport.fragments", 0),
        "transport.ack_timeouts": counts.get("transport.ack_timeouts", 0),
        "metrics.self_s": layer_s("metrics."),
        "cli.trace_bytes": sum(r["trace_bytes"] for r in row),
        "tracing.spans": spans,
        "tracing.untraced_cli_s": sum(r["cli"] for r in row),
        "tracing.traced_cli_s": sum(r["traced"]["cli"] for r in row),
    }
    for name in ("routing.process_advertisement", "routing.make_advertisement",
                 "scatternet.link_allowed", "scatternet.form_scatternet",
                 "scatternet.link_piconet", "topology.apply_motion",
                 "transport.seal_payload", "metrics.record_event"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = selfs[name]
    for name in ("routing.handle_withdraw", "routing.trigger_discovery",
                 "routing.select_next_hop"):
        out[f"{name}.calls"] = calls[name]
    for name in ("transport.make_payload", "transport.open_payload_at", "metrics.summarize",
                 "metrics.deliveries_from_trace", "cli.main", "scenario.validate_scenario"):
        out[f"{name}.self_s"] = selfs[name]
    return out


def ratio(num: int, base: int) -> float:
    return num / base if base else 0.0


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bluehop" / "__init__.py").is_file():
        print(f"error: no bluehop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        try:
            values = bench.measure_layers() if args.trace else bench.measure_end_to_end()
        except CheckFailed as exc:
            bench.failed += 1
            bench.errors.append(str(exc))
            values = None
        bench.print_digests()
    finally:
        bench.close()
    for line in bench.errors:
        print(f"failed: {line}", file=sys.stderr)
    if values is None or any(values.get(m["name"]) is None for m in wanted):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
