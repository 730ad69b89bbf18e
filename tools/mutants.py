"""Mutation check: every named mutant of the package must fail its tests.

    python3 tools/mutants.py

A mutant is one exact text edit to one module of ``src/bluehop``, together
with the tests expected to kill it. For each mutant this script copies
``src/`` to a temporary directory, applies the edit to the copy and runs the
mutant's tests against it in one pytest process, with Hypothesis's example
database off, so a kill is never replayed from an earlier failure. Mutants run
one at a time; the repository itself is never edited, and Hypothesis's files
(the patches it writes for failing examples) stay in the temporary directory.
For each mutant it prints pytest's last line and, under it, the node id of
the test that killed it (pytest stops at the first failure), so the log shows
which property each kill rests on.

It exits 1, before running any mutant, when a mutant's old text does not
occur exactly once in its module (the code moved on and the mutant must be
rewritten) or a test it names is not defined in its test file (read with
``ast``, without running pytest); and it exits 1 when a mutant survives
(every one of its tests passes).
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/bluehop
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


LINKS_PROPERTY = "tests/test_simkernel.py::test_links_match_the_link_rule_after_every_change"
TIMERS = "tests/test_simkernel.py::TestPeriodicTimers"
QUEUE = "tests/test_simkernel.py::TestEventQueue"
GOLDEN_GALLERY = "tests/test_golden.py::test_gallery_artifacts_match_pinned_digests"
FUZZ = "tests/test_fuzz.py::test_bounded_random_runs_keep_their_invariants"
ROWS = "tests/test_metrics.py::TestDeliveriesRows"
EXPIRY = "tests/test_simkernel.py::TestExpiryChecks"
COUNTS = "tests/test_fuzz.py::test_queue_counts_and_cached_next_hops_match_a_recomputation"
WORK_NODES = ("tests/test_simkernel.py::TestWorkGrowsWithContent::"
              "test_lines_per_record_stay_flat[nodes]")
VANISHED = ("tests/test_routing.py::TestProcessAdvertisement::"
            "test_missing_destination_via_advertiser_is_poisoned")

MUTANTS = (
    # The in-range graph is re-tested for every pair a change touches.
    Mutant(
        "relink-skips-state-change", "simkernel.py",
        "        self._relink([n])\n        if state is _ACTIVE and not was_active:\n",
        "        if state is _ACTIVE and not was_active:\n",
        (LINKS_PROPERTY,),
    ),
    Mutant(
        "relink-skips-first-mover", "simkernel.py",
        "        for a in changed:\n            node, near = world[a], near_of[a]\n",
        "        for a in changed[1:]:\n            node, near = world[a], near_of[a]\n",
        (LINKS_PROPERTY,),
    ),
    Mutant(
        "relink-skips-last-mover", "simkernel.py",
        "        for a in changed:\n            node, near = world[a], near_of[a]\n",
        "        for a in changed[:-1]:\n            node, near = world[a], near_of[a]\n",
        (LINKS_PROPERTY,),
    ),
    # Only pairs in one 3 x 3 block of cells are tested, so a cell must be wider
    # than the largest range by more than math.dist's rounding.
    Mutant(
        "grid-cell-without-margin", "simkernel.py",
        "        self._cell_w = max_range * (1 + 1e-9) + extent * 2**-50\n",
        "        self._cell_w = max_range\n",
        ("tests/test_simkernel.py::test_a_pair_at_the_edge_of_a_cell_is_linked",),
    ),
    Mutant(
        "grid-cell-without-extent", "simkernel.py",
        "        self._cell_w = max_range * (1 + 1e-9) + extent * 2**-50\n",
        "        self._cell_w = max_range * (1 + 1e-9)\n",
        ("tests/test_simkernel.py::test_a_pair_at_the_edge_of_a_cell_is_linked",),
    ),
    Mutant(
        "relink-ignores-grid", "simkernel.py",
        "            for cell in blocks[cell_of[a]]:\n", "            for cell in (world,):\n",
        (WORK_NODES,),
    ),
    # The same all-pairs relink with the pair test written inline makes no
    # calls; the guard counts the lines it runs.
    Mutant(
        "relink-inline-all-pairs", "simkernel.py",
        "        in_range, done = topology.in_range, set()\n"
        "        for a in changed:\n"
        "            node, near = world[a], near_of[a]\n"
        "            done.add(a)\n"
        "            for cell in blocks[cell_of[a]]:\n"
        "                for b, other in cell.items():\n"
        "                    if b not in done and in_range(node, other) is not (b in near):\n",
        "        dist, done = topology.math.dist, set()\n"
        "        for a in changed:\n"
        "            node, near = world[a], near_of[a]\n"
        "            done.add(a)\n"
        "            for b, other in world.items():\n"
        "                if b not in done:\n"
        "                    d = dist(node.position, other.position)\n"
        "                    linked = (node.state is _ACTIVE and other.state is _ACTIVE\n"
        "                              and d <= node.range_m and d <= other.range_m)\n"
        "                    if linked is not (b in near):\n",
        (WORK_NODES,),
    ),
    # A node moved to a nan cell (its position overflowed) leaves every neighbour.
    Mutant(
        "relink-keeps-neighbours-of-a-nan-cell", "simkernel.py",
        "                if abs(bx - cx) <= 1 and abs(by - cy) <= 1:  # false for a nan cell\n",
        "                if not (abs(bx - cx) > 1 or abs(by - cy) > 1):\n",
        ("tests/test_simkernel.py::test_links_follow_the_rule_where_motion_overflows",),
    ),
    # Every node whose in-range set changed gets a new links tuple, not only the changed ones.
    Mutant(
        "links-rebuilt-only-for-changed", "simkernel.py",
        "        for n in touched:\n", "        for n in changed:\n",
        (LINKS_PROPERTY,),
    ),
    # In scatternet mode a node links only the in-range neighbours it holds a grant for.
    Mutant(
        "scatternet-links-ignore-grants", "simkernel.py",
        "[m for m in near_of[n] if (n, m) in granted]", "near_of[n]",
        (LINKS_PROPERTY,),
    ),
    # The periodic timers re-arm under the two numbers reserved at set-up.
    Mutant(
        "timers-rearm-through-schedule", "simkernel.py",
        "        self.queue.schedule(self.now, self.now + period, kind, *args, sequence=sequence)\n",
        "        self.queue.schedule(self.now, self.now + period, kind, *args)\n",
        (TIMERS,),
    ),
    Mutant(
        "timers-round-in-descending-id", "simkernel.py",
        "        for n in self._ids:\n            if self.world[n].state is _ACTIVE:\n"
        '                self._emit("adv_timer", n, {})\n',
        "        for n in reversed(self._ids):\n            if self.world[n].state is _ACTIVE:\n"
        '                self._emit("adv_timer", n, {})\n',
        (GOLDEN_GALLERY,),
    ),
    Mutant(
        "timers-reserved-numbers-swapped", "simkernel.py",
        "self._motion_seq, self._round_seq = self.queue.reserve(), self.queue.reserve()",
        "self._round_seq, self._motion_seq = self.queue.reserve(), self.queue.reserve()",
        (TIMERS,),
    ),
    # The queue holds every event that can still run, and only those.
    Mutant(
        "timers-stop-before-the-horizon", "simkernel.py",
        "        if time > self.horizon:\n",
        "        if time >= self.horizon:\n",
        (QUEUE,),
    ),
    Mutant(
        "queue-keeps-events-past-horizon", "simkernel.py",
        "        if time > self.horizon:\n            return\n",
        "",
        (QUEUE, f"{EXPIRY}::test_no_check_is_queued_when_the_horizon_is_shorter_than_the_budget"),
    ),
    # Each message's delivery row follows its trace records.
    Mutant(
        "rows-failed-keeps-no-retries", "metrics.py",
        'm.rows[detail["msg_id"]].update(outcome=cls, retries=detail["retries"])',
        'm.rows[detail["msg_id"]].update(outcome=cls)',
        (ROWS, FUZZ),
    ),
    Mutant(
        "rows-rejected-starts-pending", "metrics.py",
        '            outcome=outcome, hops="", latency_us="", retries=0,\n',
        '            outcome="pending", hops="", latency_us="", retries=0,\n',
        (ROWS, FUZZ),
    ),
    # Delta relaxation offers a superset of what changed since the last vector.
    Mutant(
        "routing-delta-ignores-poisoned-difference", "routing.py",
        "        dests = set(poisoned)\n        dests ^= seen.poisoned\n",
        "        dests = set()\n",
        ("tests/test_routing.py::test_delta_relaxation_matches_full_pass",),
    ),
    Mutant(
        "routing-rise-chain-rooted-at-none", "routing.py",
        "    risen: ChangeRecord = field(default=_NO_RISES, init=False)\n",
        "    risen: ChangeRecord = field(default=None, init=False)\n",
        ("tests/test_routing.py::TestProcessAdvertisement::test_repeated_vector_relaxes_after_many_rises",),
    ),
    # A destination missing from the advertiser's vector is relaxed at INF.
    Mutant(
        "routing-vanished-not-offered", "routing.py",
        "        offered = costs.keys() | mine\n", "        offered = costs.keys()\n",
        (VANISHED,),
    ),
    Mutant(
        "routing-missing-cost-skipped", "routing.py",
        "        cost = inf if dest in poisoned else costs.get(dest, inf)\n",
        "        if dest not in poisoned and dest not in costs:\n            continue\n"
        "        cost = inf if dest in poisoned else costs.get(dest, inf)\n",
        (VANISHED,
         "tests/test_routing.py::test_every_small_graph_reconverges_after_each_failure"),
    ),
    Mutant(
        "next-hops-ignore-poisoned", "routing.py",
        "            cost = inf if dest in adv.poisoned else adv.vector.costs.get(dest, inf)\n",
        "            cost = adv.vector.costs.get(dest, inf)\n",
        ("tests/test_routing.py::TestNextHops::test_poisoned_cost_names_no_next_hop",),
    ),
    # One live expiry check per (node, neighbour) pair.
    Mutant(
        "expiry-never-rearmed", "simkernel.py",
        "            self.queue.schedule(self.now, due, _EXPIRY, n, neighbor, sequence=seq)\n"
        "            return\n",
        "            return\n",
        (EXPIRY, "tests/test_simkernel.py::TestChurnReactions"),
    ),
    # Every refresh re-stamps its pair. Two refreshes of one pair share an
    # instant only when a node powers on at the instant it heard that
    # neighbour, so this re-stamps the pairs at power-on.
    Mutant(
        "liveness-restamped-at-power-on", "simkernel.py",
        "        if live is None or live[0] != now:\n", "        if True:\n",
        (f"{EXPIRY}::test_reboot_at_the_instant_of_a_refresh_keeps_the_expiry_order",),
    ),
    # A pair's record lives exactly while its check is queued.
    Mutant(
        "liveness-kept-when-check-dropped", "simkernel.py",
        "        del pairs[neighbor]  # the next refresh arms a new check\n",
        "        if live:\n            del pairs[neighbor]\n",
        (f"{EXPIRY}::test_a_dropped_check_leaves_the_next_refresh_to_arm_one",),
    ),
    # A check that finds its pair forgotten or off at the instant the pair was
    # heard stays queued, so a refresh later at that instant keeps its number.
    Mutant(
        "liveness-dropped-at-the-instant-of-a-refresh", "simkernel.py",
        "        if heard == self.now or live and due > self.now:\n",
        "        if live and due > self.now:\n",
        (f"{EXPIRY}::test_a_check_due_at_the_instant_of_a_refresh_keeps_the_expiry_order",),
    ),
    Mutant(
        "liveness-reset-at-power-on", "simkernel.py",
        "        self.radios.setdefault(n, Radio())",
        "        self.liveness[n] = {}\n        self.radios.setdefault(n, Radio())",
        (f"{EXPIRY}::test_each_pair_has_a_record_while_its_one_check_is_queued",
         f"{EXPIRY}::test_reboot_at_the_instant_of_a_refresh_keeps_the_expiry_order"),
    ),
    # A radio is serviced only when it can send.
    Mutant(
        "radio-arrival-services-busy-sender", "simkernel.py",
        "        if radio.txq and radio.busy_until <= self.now:\n",
        "        if radio.txq:\n",
        (GOLDEN_GALLERY,),
    ),
    # One queued advertisement per neighbour, read off the radio's counts.
    Mutant(
        "advertisements-not-coalesced", "simkernel.py",
        "        if to not in self.radios[n].advs:\n", "        if True:\n",
        (GOLDEN_GALLERY,),
    ),
    # Equal-cost next hops break ties by the frames queued to each.
    Mutant(
        "route-candidates-ignore-queue-depth", "simkernel.py",
        "        return [(depth.get(m, 0), m) for m in hops]\n",
        "        return [(0, m) for m in hops]\n",
        ("tests/test_simkernel.py::TestDeliveryPaths::test_first_hop_prefers_the_shorter_queue",
         "tests/test_golden.py::test_benchmark_pool_artifacts_match_pinned_digests"),
    ),
    # A relay left with one next hop queues to it directly; only a tie reads
    # the queue depths.
    Mutant(
        "forward-shortcut-ignores-queue-depth", "simkernel.py",
        "        if len(hops) == 1:  # no tie to break\n",
        "        if hops:  # no tie to break\n",
        ("tests/test_simkernel.py::TestDeliveryPaths::test_relay_prefers_the_shorter_queue",
         "tests/test_golden.py::test_benchmark_pool_artifacts_match_pinned_digests"),
    ),
    Mutant(
        "next-hop-key-swapped", "routing.py",
        "    best = min(candidates, default=None)\n",
        "    best = min(candidates, key=lambda c: c[::-1], default=None)\n",
        ("tests/test_routing.py::TestSelectNextHop::test_prefers_shallow_queue",
         "tests/test_simkernel.py::TestDeliveryPaths::test_first_hop_prefers_the_shorter_queue"),
    ),
    # A forwarding decision costs O(candidates), not O(queue): the same
    # answers from a scan of the transmit queue make the run quadratic.
    Mutant(
        "route-candidates-scan-queue", "simkernel.py",
        "        return [(depth.get(m, 0), m) for m in hops]\n",
        "        return [(sum(to == m for to, _ in self.radios[n].txq), m) for m in hops]\n",
        ("tests/test_simkernel.py::TestWorkGrowsWithContent",),
    ),
    # The radio's counts follow every frame queued and popped, advertisements included.
    Mutant(
        "queue-depth-never-decremented", "simkernel.py",
        "            radio.depth[to] -= 1\n", "",
        (COUNTS,),
    ),
    Mutant(
        "queue-depth-skips-advertisements", "simkernel.py",
        "        radio.depth[to] = radio.depth.get(to, 0) + 1\n",
        "        if body is not None:\n            radio.depth[to] = radio.depth.get(to, 0) + 1\n",
        (COUNTS,),
    ),
    # A table's cached next hops are emptied whenever its entries or vectors change.
    Mutant(
        "next-hops-stale-after-withdraw", "routing.py",
        "    table.heard.pop(leaving, None)\n    table.hops.clear()\n",
        "    table.heard.pop(leaving, None)\n",
        ("tests/test_routing.py::test_delta_relaxation_matches_full_pass",),
    ),
    Mutant(
        "next-hops-stale-after-relaxation", "routing.py",
        "    table.hops.clear()\n    if offered is None:\n",
        "    if offered is None:\n",
        (COUNTS,),
    ),
    # The engine numbers its records from 0, whatever sink it appends them to.
    Mutant(
        "record-numbers-start-at-one", "simkernel.py",
        "        self._record_seq = count()\n", "        self._record_seq = count(1)\n",
        (GOLDEN_GALLERY,
         "tests/test_simkernel.py::TestKernelBasics::test_an_append_only_sink_gets_the_default_trace"),
    ),
    # `bluehop run` streams the trace, and a run that fails leaves none behind.
    Mutant(
        "partial-trace-kept-on-failure", "cli.py",
        "        partial.unlink(missing_ok=True)\n", "        pass\n",
        ("tests/test_cli.py::TestExitCodes::test_runtime_error_mid_run_leaves_no_trace",),
    ),
    # Each formatted kind writes exactly json.dumps's line, optional fields included.
    Mutant(
        "data-tx-line-drops-channel", "cli.py",
        '"slots":{d["slots"]}{channel}', '"slots":{d["slots"]}',
        ("tests/test_cli.py::TestTraceLine::test_formatted_kinds_encode_like_json_dumps",),
    ),
    # A run holds the cyclic collector off, which is safe only while it makes
    # no reference cycle, and it gives the caller back its setting.
    Mutant(
        "run-keeps-its-handlers-on-the-queue", "simkernel.py",
        "            handlers = {\n", "            self.queue.handlers = handlers = {\n",
        ("tests/test_simkernel.py::TestCollectorHoldOff::test_a_gallery_run_leaves_no_cycle",),
    ),
    Mutant(
        "run-leaves-the-collector-on", "simkernel.py",
        "            if enabled:\n                gc.enable()\n",
        "            gc.enable()\n",
        ("tests/test_simkernel.py::TestCollectorHoldOff::"
         "test_a_run_whose_handler_raises_restores_the_setting",),
    ),
    # Every seeded byte depends on the seed, whatever its sign or width.
    Mutant(
        "seeded-label-drops-seed", "transport.py",
        '    return random.Random(f"{label}:{seed}")\n', "    return random.Random(label)\n",
        ("tests/test_transport.py::test_every_seed_draws_its_own_payloads_seals_and_channels",),
    ),
    # Power-off loses the queued frames at once, not when the airtime ends.
    Mutant(
        "power-off-keeps-queue", "simkernel.py",
        "        for to, body in radio.txq:\n"
        '            self._lost(n, "to", to, body, "sender_inactive")\n'
        "        radio.txq.clear()\n        radio.advs.clear()\n        radio.depth.clear()\n",
        "",
        ("tests/test_simkernel.py::TestRebootFaults::"
         "test_frame_on_air_is_lost_when_its_sender_powers_off",),
    ),
    # Validation tests each item's fields as a set before it formats any
    # diagnostic, and the test must still report every unknown field.
    Mutant(
        "validation-skips-unknown-item-fields", "scenario.py",
        "            if not raw.keys() <= fields:\n"
        "                unknown(f\"{key}[{i}].\", raw, fields)\n",
        "",
        ("tests/test_scenario.py::TestRejects::test_unknown_node_field",
         "tests/test_scenario.py::TestExactDiagnostics::test_every_section"),
    ),
    # States are read through a table by name, which must hold every state.
    Mutant(
        "state-table-misses-parked", "scenario.py",
        "_STATES = {state.value: state for state in NodeState}\n",
        "_STATES = {state.value: state for state in NodeState if state is not NodeState.PARKED}\n",
        ("tests/test_scenario.py::TestSpecRecords::test_every_state_is_read_by_its_name",),
    ),
    # An int too large for a float is a diagnostic, not an OverflowError.
    Mutant(
        "number-check-back-to-isfinite", "scenario.py",
        "        and -_FLOAT_MAX <= v <= _FLOAT_MAX\n",
        "        and __import__(\"math\").isfinite(v)\n",
        ("tests/test_scenario.py::TestNonFinite::test_rejected",
         "tests/test_cli.py::TestExitCodes::test_integer_beyond_float_range_is_exit_one"),
    ),
    Mutant(
        "seconds-rounded-past-float-range", "scenario.py",
        "    return round(hus) if -_FLOAT_MAX <= hus <= _FLOAT_MAX else None\n",
        "    return round(hus)\n",
        ("tests/test_scenario.py::TestNonFinite::test_rejected",),
    ),
)

# Runs in the pytest process. Before any test module builds its settings, it
# loads a Hypothesis profile with no example database, no shrinking (a kill
# needs only the failure) and derandomized generation, so every run draws the
# same examples and a kill never rests on luck. It also checks that the
# mutated copy is the package under test.
_BOOT = """
import sys
import pytest

class Mutant:
    def pytest_configure(self, config):
        from hypothesis import Phase, settings
        settings.register_profile(
            "mutant", database=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
        settings.load_profile("mutant")
        import bluehop
        if not bluehop.__file__.startswith(sys.argv[1]):
            raise pytest.UsageError(f"imported {bluehop.__file__}, not the mutated copy")

sys.exit(pytest.main(["-q", "-x", "-rf", "-p", "no:cacheprovider", *sys.argv[2:]],
                     plugins=[Mutant()]))
"""


def text_errors() -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    errors = []
    for m in MUTANTS:
        count = (ROOT / "src" / "bluehop" / m.module).read_text().count(m.old)
        if count != 1:
            errors.append(f"{m.name}: old text occurs {count} times in {m.module}")
    return errors


def _defines(path: Path, names: list[str]) -> bool:
    """Whether ``path`` is a file that defines the nested classes or functions ``names``."""
    if not path.is_file():
        return False
    body = ast.parse(path.read_text()).body
    for name in names:
        name = name.partition("[")[0]  # a parametrized id names its function
        found = next((d for d in body if isinstance(d, (ast.ClassDef, ast.FunctionDef))
                      and d.name == name), None)
        if found is None:
            return False
        body = found.body
    return True


def missing_tests() -> list[str]:
    """One line per named test whose file, class or function does not exist."""
    return [
        f"{m.name}: no test {test}"
        for m in MUTANTS
        for test in m.tests
        if not _defines(ROOT / test.split("::")[0], test.split("::")[1:])
    ]


def run_mutant(m: Mutant) -> tuple[bool, str, list[str]]:
    """(killed, pytest's last line, the node ids of the tests that failed) for
    one mutant, run against a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="bluehop-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "bluehop" / m.module
        path.write_text(path.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / ".hypothesis"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _BOOT, str(src), *m.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
        )
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    last = lines[-1] if lines else ""
    if proc.returncode not in (0, 1):  # collection error, bad node id, crash
        raise RuntimeError(f"{m.name}: pytest exited {proc.returncode}: {last}")
    # pytest's -rf summary: "FAILED <node id> - <message>".
    failed = [line[len("FAILED "):].partition(" - ")[0]
              for line in lines if line.startswith("FAILED ")]
    return proc.returncode == 1, last, failed


def main() -> int:
    errors = text_errors() + missing_tests()
    for line in errors:
        print(f"stale: {line}")
    if errors:
        return 1
    survivors = []
    start = time.perf_counter()
    for m in MUTANTS:
        t0 = time.perf_counter()
        killed, last, failed = run_mutant(m)
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name} ({time.perf_counter() - t0:.1f} s): {last}")
        for test in failed:
            print(f"    failed {test}")
        if not killed:
            survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
