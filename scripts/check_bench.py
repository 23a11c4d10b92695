#!/usr/bin/env python3
"""Perf guard over the committed BENCH_*.json artifacts.

Run after `bench_evaluators [--smoke]`:

    python3 scripts/check_bench.py BENCH_evaluators.json

after `bench_serving [--smoke]`:

    python3 scripts/check_bench.py --serving BENCH_serving.json

after `bench_scenarios [--smoke]`:

    python3 scripts/check_bench.py --scenarios BENCH_scenarios.json

or after `bench_parallelism [--smoke] [--no-time]`:

    python3 scripts/check_bench.py --parallelism BENCH_parallelism.json

Parallelism gates (--parallelism; guard the intra-query parallel
traversal driver and the joint (cores x frequency) frontier):
  - the file must carry a non-empty 'sweep' (evaluator x cores cells),
    a 'config' with a 'timed' bool, and a 'frontier' list with rows
    for isn_cores 1 and 4 per scenario — anything else is BAD INPUT;
  - determinism: within an evaluator, 'topk_checksum' must be
    IDENTICAL across every core count. The merged top-K is required
    to be bit-identical at any gang width; one flipped score bit
    anywhere in the sweep trips this;
  - work sanity: docs_scored at 4 cores must be >= docs_scored at
    1 core for each pruning evaluator (slices start with a cold
    threshold, so a parallel traversal can only prune less, never
    more — fewer docs at 4 cores means the slices are not covering
    the full doc range);
  - frontier: the isn_cores=4 build must beat isn_cores=1 on at
    least one preset, either on energy at no-worse p99 or on p99 at
    no-worse energy ("no worse" = within 1%). A (cores x frequency)
    grid that cannot beat frequency-only anywhere is a regression;
  - wall clock (armed only when the file says "timed": true, or
    forced with --require-time): ns_per_query at 4 cores must be
    strictly below 1 core for wand and bmw. A --no-time file zeroes
    every wall-clock field, so requesting --require-time on one is
    BAD INPUT (exit 2), not a pass. The committed smoke artifact is
    produced with --no-time (byte-stable across machines); CI's
    multi-core timed run regenerates with timing and arms this gate.

Scenario gates (--scenarios; guard the multi-tenant SLO scenarios):
  - the file must carry a non-empty 'scenarios' list whose cells each
    hold a per-tenant rollup ('tenants') — anything else is BAD INPUT;
  - every tenant's latency percentile ladder must be monotone
    (p50 <= p95 <= p99 <= p99.9 <= max) with shed_rate in [0, 1];
  - at least one hostile scenario must carry both 'cottage' and
    'slo-dvfs' (BAD INPUT otherwise — the comparison cannot run);
  - --require-policies names policies (comma-separated, may repeat)
    that EVERY scenario must carry; a missing cell is BAD INPUT.
    CI passes cottage,slo-dvfs,rank-s,taily so the committed file
    always holds the full policy grid, including the quality-cut
    (rank-s) and resource-selection (taily) baselines;
  - cottage must beat slo-dvfs on at least one hostile shape, on at
    least one axis: lower run p99 latency, lower shed rate, or higher
    mean per-tenant SLO attainment. Coordinated budgets that lose to a
    fixed a-priori deadline on EVERY hostile shape are a regression.

Serving gates (--serving; guard the serving front-end's QPS sweep):
  - the file must carry a 'serving' section with a non-empty 'points'
    ladder and a 'saturation_qps' field (anything else is BAD INPUT);
  - saturation_qps must be > 0 (a sweep that cannot sustain any load
    means admission control is shedding everything — a regression);
  - the LOWEST QPS rung must shed nothing (shed_rate == 0): an
    unloaded cluster that sheds has a broken admission ladder;
  - offered_qps must rise strictly along the ladder (the sweep must
    actually sweep).

Work gates (always run between evaluators that are present):
  - bmw must score STRICTLY fewer documents than wand at the bench's
    k on the wikipedia-flavor trace (the whole point of the shallow
    per-block bound check);
  - the block-skip machinery must actually engage (blocks_skipped > 0);
  - every evaluator must agree on queries run (same trace replayed).

Time gates (ns_per_query; opt-in via an explicit --require): wall time
is machine- and load-dependent, so the time comparisons only run for a
pair when BOTH members are named in an explicit --require list:
  - wand,bmw -> bmw must beat wand on ns_per_query (strictly).
CI runs the work gates on every bench file and the wand/bmw time gate
on the full (non-smoke) run, which bench_evaluators measures as an
interleaved min-of-N (see --repeats there). A file produced with
--no-time has every ns_per_query zeroed; requesting a time gate on one
is BAD INPUT (exit 2), not a pass.

Exit codes are distinct on purpose so CI logs are unambiguous:
  0  all guards pass
  1  a perf guard tripped (a real regression)
  2  the input is unusable — file missing/corrupt, an evaluator named
     by --require absent (e.g. a smoke run that skipped it), a sweep
     entry missing an expected field, or a time gate requested on a
     --no-time file

--require names the evaluators that must be present, comma-separated
or repeated (default: exhaustive,maxscore,wand,bmw — the full CI
sweep). Comparisons are only run between evaluators that are present,
so a trimmed smoke file can still be checked with a narrower
--require list instead of dying on a KeyError.

--self-test exercises every gate and exit code on synthetic bench
files and exits 0 only if all behave; ctest runs it so the guard's own
logic is pinned alongside the code it guards.
"""

import argparse
import json
import os
import sys
import tempfile

DEFAULT_REQUIRED = ["exhaustive", "maxscore", "wand", "bmw"]

# Fields every totals row must carry for the guards to run.
ROW_FIELDS = ["queries", "docs_scored", "blocks_skipped", "ns_per_query"]

# Fields every serving sweep point must carry.
POINT_FIELDS = [
    "offered_qps",
    "achieved_qps",
    "shed_rate",
    "p95_latency_s",
    "result_cache_hit_rate",
    "stats_cache_hit_rate",
]

# Fields every per-tenant scenario rollup must carry.
TENANT_FIELDS = [
    "tenant",
    "offered",
    "shed_rate",
    "p50_latency_s",
    "p95_latency_s",
    "p99_latency_s",
    "p999_latency_s",
    "max_latency_s",
    "slo_attainment",
    "avg_ndcg",
    "energy_j",
]


def fail(message: str) -> None:
    """A perf guard tripped: exit 1."""
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def unusable(message: str) -> None:
    """The input cannot be checked at all: exit 2."""
    print(f"check_bench: BAD INPUT: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Guard BENCH_evaluators.json against perf regressions"
    )
    parser.add_argument(
        "path",
        nargs="?",
        default="BENCH_evaluators.json",
        help="bench output to check (default: %(default)s)",
    )
    parser.add_argument(
        "--require",
        action="append",
        metavar="EVALUATORS",
        help=(
            "evaluator(s) that must be present, comma-separated; may be "
            "repeated (default: %s). Passing the flag explicitly also "
            "arms the ns_per_query gates for fully-covered pairs"
            % ",".join(DEFAULT_REQUIRED)
        ),
    )
    parser.add_argument(
        "--serving",
        action="store_true",
        help=(
            "treat the input as bench_serving output and run the "
            "serving gates instead of the evaluator gates"
        ),
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help=(
            "treat the input as bench_scenarios output and run the "
            "multi-tenant scenario gates"
        ),
    )
    parser.add_argument(
        "--require-policies",
        action="append",
        metavar="POLICIES",
        help=(
            "with --scenarios: policies every scenario must carry, "
            "comma-separated, may be repeated (default: "
            "cottage,slo-dvfs). A scenario missing one is BAD INPUT"
        ),
    )
    parser.add_argument(
        "--parallelism",
        action="store_true",
        help=(
            "treat the input as bench_parallelism output and run the "
            "determinism/work/frontier gates (plus the wall-clock "
            "gate when the file is timed)"
        ),
    )
    parser.add_argument(
        "--require-time",
        action="store_true",
        help=(
            "with --parallelism: force the 4-cores-beats-1 wall-clock "
            "gate even if the file says timed=false (BAD INPUT on a "
            "--no-time file)"
        ),
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the checker itself on synthetic inputs and exit",
    )
    return parser.parse_args(argv)


def load_totals(path: str, required):
    try:
        with open(path) as handle:
            bench = json.load(handle)
    except FileNotFoundError:
        unusable(f"{path} not found: run bench_evaluators first")
    except json.JSONDecodeError as err:
        unusable(f"{path} is not valid JSON ({err})")

    totals = bench.get("totals")
    if not isinstance(totals, dict) or not totals:
        unusable(f"{path} has no 'totals' section: not a bench output?")

    missing = [name for name in required if name not in totals]
    if missing:
        unusable(
            f"{path} is missing required evaluator(s) {missing} "
            f"(present: {sorted(totals)}); was this a smoke run with a "
            "reduced sweep? Re-run bench_evaluators or narrow --require"
        )

    for name, row in totals.items():
        absent = [f for f in ROW_FIELDS if f not in row]
        if absent:
            unusable(
                f"{path}: totals entry '{name}' lacks field(s) {absent}; "
                "bench output from an incompatible bench_evaluators "
                "version"
            )
    return totals


def check(path: str, required, time_gated) -> str:
    """Run every armed gate; exits via fail()/unusable() on violation.

    Returns the one-line OK summary.
    """
    totals = load_totals(path, required)

    queries = {name: row["queries"] for name, row in totals.items()}
    if len(set(queries.values())) != 1:
        fail(f"evaluators replayed different query counts: {queries}")

    def row(name):
        return totals.get(name)

    wand, bmw = row("wand"), row("bmw")

    if bmw and wand and bmw["docs_scored"] >= wand["docs_scored"]:
        fail(
            "bmw scored "
            f"{bmw['docs_scored']} docs, wand {wand['docs_scored']}: "
            "block-max pruning must beat flat WAND strictly"
        )
    if bmw and bmw["blocks_skipped"] == 0:
        fail("bmw skipped zero blocks: skip layer never engaged")

    def timed(name):
        entry = row(name)
        if entry is None:
            unusable(f"time gate needs evaluator '{name}'")
        if entry["ns_per_query"] == 0:
            unusable(
                f"time gate on '{name}' but its ns_per_query is 0: "
                "bench ran with --no-time (or never measured); time "
                "gates need a timed run"
            )
        return entry

    summary = []
    if {"wand", "bmw"} <= time_gated:
        w, b = timed("wand"), timed("bmw")
        if b["ns_per_query"] >= w["ns_per_query"]:
            fail(
                f"bmw took {b['ns_per_query']} ns/query, wand "
                f"{w['ns_per_query']}: block-max decode+prune must beat "
                "flat WAND on wall time, not only on docs scored"
            )
        speedup = 1.0 - b["ns_per_query"] / w["ns_per_query"]
        summary.append(
            f"bmw {b['ns_per_query']} ns/query vs wand "
            f"{w['ns_per_query']} ({speedup:.1%} faster)"
        )

    if bmw and wand:
        saved = 1.0 - bmw["docs_scored"] / wand["docs_scored"]
        summary.append(
            f"bmw scores {bmw['docs_scored']} docs vs wand "
            f"{wand['docs_scored']} ({saved:.1%} fewer)"
        )
    return "; ".join(summary) if summary else "no pruning pairs present"


def check_serving(path: str) -> str:
    """Run the serving-sweep gates; exits via fail()/unusable().

    Returns the one-line OK summary.
    """
    try:
        with open(path) as handle:
            bench = json.load(handle)
    except FileNotFoundError:
        unusable(f"{path} not found: run bench_serving first")
    except json.JSONDecodeError as err:
        unusable(f"{path} is not valid JSON ({err})")

    serving = bench.get("serving")
    if not isinstance(serving, dict):
        unusable(
            f"{path} has no 'serving' section: not bench_serving "
            "output? (--serving checks BENCH_serving.json only)"
        )
    points = serving.get("points")
    if not isinstance(points, list) or not points:
        unusable(f"{path}: 'serving.points' missing or empty")
    if "saturation_qps" not in serving:
        unusable(f"{path}: 'serving' section lacks 'saturation_qps'")

    for i, point in enumerate(points):
        absent = [f for f in POINT_FIELDS if f not in point]
        if absent:
            unusable(
                f"{path}: serving point {i} lacks field(s) {absent}; "
                "output from an incompatible bench_serving version"
            )

    saturation = serving["saturation_qps"]
    if not saturation or saturation <= 0:
        fail(
            f"saturation_qps is {saturation}: the sweep sustained no "
            "load at all — admission control is shedding everything"
        )
    lowest = points[0]
    if lowest["shed_rate"] != 0:
        fail(
            f"lowest rung (offered_qps={lowest['offered_qps']}) shed "
            f"{lowest['shed_rate']:.3f} of its queries: an unloaded "
            "cluster must shed nothing"
        )
    offered = [p["offered_qps"] for p in points]
    if any(b <= a for a, b in zip(offered, offered[1:])):
        fail(f"offered_qps ladder is not strictly rising: {offered}")

    return (
        f"{len(points)} rungs, saturation_qps={saturation}, lowest "
        f"rung shed_rate=0, p95 {lowest['p95_latency_s'] * 1e3:.2f} -> "
        f"{points[-1]['p95_latency_s'] * 1e3:.2f} ms"
    )


# Fields every parallelism sweep cell must carry.
SWEEP_FIELDS = [
    "evaluator",
    "cores",
    "ns_per_query",
    "docs_scored",
    "topk_checksum",
]

# Fields every frontier row must carry.
FRONTIER_FIELDS = [
    "scenario",
    "isn_cores",
    "p99_latency_s",
    "energy_j",
    "avg_ndcg",
]

# The evaluators whose wall-clock must improve at 4 cores when the
# wall-clock gate is armed (timed run or --require-time).
TIME_GATED_EVALUATORS = ["wand", "bmw"]

# "No worse" tolerance for the frontier domination test: a 1% slip on
# the held-equal axis still counts as equal.
FRONTIER_TOLERANCE = 1.01


def check_parallelism(path: str, require_time: bool) -> str:
    """Run the intra-query parallelism gates; exits via fail()/unusable().

    Returns the one-line OK summary.
    """
    try:
        with open(path) as handle:
            bench = json.load(handle)
    except FileNotFoundError:
        unusable(f"{path} not found: run bench_parallelism first")
    except json.JSONDecodeError as err:
        unusable(f"{path} is not valid JSON ({err})")

    config = bench.get("config")
    if not isinstance(config, dict) or "timed" not in config:
        unusable(
            f"{path} has no 'config.timed': not bench_parallelism "
            "output? (--parallelism checks BENCH_parallelism.json only)"
        )
    sweep = bench.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        unusable(f"{path}: 'sweep' list missing or empty")
    frontier = bench.get("frontier")
    if not isinstance(frontier, list) or not frontier:
        unusable(f"{path}: 'frontier' list missing or empty")

    for i, cell in enumerate(sweep):
        absent = [f for f in SWEEP_FIELDS if f not in cell]
        if absent:
            unusable(
                f"{path}: sweep cell {i} lacks field(s) {absent}; "
                "output from an incompatible bench_parallelism version"
            )
    for i, row in enumerate(frontier):
        absent = [f for f in FRONTIER_FIELDS if f not in row]
        if absent:
            unusable(
                f"{path}: frontier row {i} lacks field(s) {absent}; "
                "output from an incompatible bench_parallelism version"
            )

    # Group the sweep by evaluator, cells keyed by core count.
    by_evaluator = {}
    for cell in sweep:
        by_evaluator.setdefault(cell["evaluator"], {})[cell["cores"]] = cell

    # Determinism gate: the merged top-K's bitwise fingerprint must not
    # depend on the gang width. This is the rank-safety contract of the
    # parallel driver — one flipped score bit anywhere trips it.
    for name, cells in by_evaluator.items():
        checksums = {c: cell["topk_checksum"] for c, cell in cells.items()}
        if len(set(checksums.values())) != 1:
            fail(
                f"'{name}' top-K checksum differs across core counts: "
                f"{checksums} — the parallel traversal is not "
                "bit-identical to the sequential one"
            )

    # Work gate: parallel slices start with a cold top-K threshold, so
    # a correct range-partitioned traversal scores AT LEAST as many
    # docs at 4 cores as at 1. Fewer means slices skipped real work.
    for name, cells in by_evaluator.items():
        if 1 not in cells or 4 not in cells:
            unusable(
                f"{path}: evaluator '{name}' lacks the cores=1 and "
                "cores=4 cells the gates compare"
            )
        if cells[4]["docs_scored"] < cells[1]["docs_scored"]:
            fail(
                f"'{name}' scored {cells[4]['docs_scored']} docs at 4 "
                f"cores but {cells[1]['docs_scored']} at 1: a slice is "
                "dropping part of the doc range"
            )

    # Wall-clock gate: only meaningful on a timed run on multi-core
    # hardware; a --no-time artifact zeroes ns_per_query on purpose.
    timed = bool(config["timed"])
    summary = []
    if timed or require_time:
        for name in TIME_GATED_EVALUATORS:
            cells = by_evaluator.get(name)
            if cells is None:
                unusable(f"wall-clock gate needs evaluator '{name}'")
            one, four = cells[1]["ns_per_query"], cells[4]["ns_per_query"]
            if one == 0 or four == 0:
                unusable(
                    f"wall-clock gate on '{name}' but ns_per_query is "
                    "0: the file was produced with --no-time; the gate "
                    "needs a timed run"
                )
            if four >= one:
                fail(
                    f"'{name}' took {four:.0f} ns/query at 4 cores vs "
                    f"{one:.0f} at 1: the parallel driver must deliver "
                    "wall-clock speedup on timed multi-core runs"
                )
            summary.append(f"{name} {one / four:.2f}x at 4 cores")
    else:
        summary.append("untimed artifact (wall-clock gate not armed)")

    # Frontier gate: the joint (cores x frequency) grid must dominate
    # frequency-only somewhere — better energy at no-worse p99, or
    # better p99 at no-worse energy, on at least one preset.
    by_scenario = {}
    for row in frontier:
        by_scenario.setdefault(row["scenario"], {})[row["isn_cores"]] = row
    comparable = {
        name: rows
        for name, rows in by_scenario.items()
        if {1, 4} <= set(rows)
    }
    if not comparable:
        unusable(
            f"{path}: no frontier preset carries both isn_cores=1 and "
            "isn_cores=4; the domination gate cannot run"
        )
    wins = []
    for name, rows in sorted(comparable.items()):
        one, four = rows[1], rows[4]
        axes = []
        if (four["energy_j"] < one["energy_j"]
                and four["p99_latency_s"]
                <= one["p99_latency_s"] * FRONTIER_TOLERANCE):
            axes.append(
                f"energy {four['energy_j']:.2f}J vs "
                f"{one['energy_j']:.2f}J"
            )
        if (four["p99_latency_s"] < one["p99_latency_s"]
                and four["energy_j"]
                <= one["energy_j"] * FRONTIER_TOLERANCE):
            axes.append(
                f"p99 {four['p99_latency_s'] * 1e3:.2f}ms vs "
                f"{one['p99_latency_s'] * 1e3:.2f}ms"
            )
        if axes:
            wins.append(f"{name} ({'; '.join(axes)})")
    if not wins:
        fail(
            "the isn_cores=4 build beat frequency-only on NO preset "
            f"(checked: {sorted(comparable)}): the joint (cores x "
            "frequency) grid must win on energy at no-worse p99 or "
            "p99 at no-worse energy somewhere"
        )

    summary.append(
        f"{len(by_evaluator)} evaluators bit-identical across cores; "
        f"frontier wins: {', '.join(wins)}"
    )
    return "; ".join(summary)


DEFAULT_REQUIRED_POLICIES = ["cottage", "slo-dvfs"]


def check_scenarios(path: str, required_policies) -> str:
    """Run the multi-tenant scenario gates; exits via fail()/unusable().

    Returns the one-line OK summary.
    """
    try:
        with open(path) as handle:
            bench = json.load(handle)
    except FileNotFoundError:
        unusable(f"{path} not found: run bench_scenarios first")
    except json.JSONDecodeError as err:
        unusable(f"{path} is not valid JSON ({err})")

    scenarios = bench.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        unusable(
            f"{path} has no 'scenarios' list: not bench_scenarios "
            "output? (--scenarios checks BENCH_scenarios.json only)"
        )

    hostile_cells = []  # (scenario_name, {policy: summary})
    tenants_checked = 0
    for i, scenario in enumerate(scenarios):
        name = scenario.get("name")
        cells = scenario.get("policies")
        if not name or not isinstance(cells, list) or not cells:
            unusable(f"{path}: scenario {i} lacks 'name'/'policies'")
        by_policy = {}
        for cell in cells:
            summary = cell.get("summary")
            if "policy" not in cell or not isinstance(summary, dict):
                unusable(
                    f"{path}: scenario '{name}' has a cell without "
                    "'policy'/'summary'"
                )
            tenants = summary.get("tenants")
            if not isinstance(tenants, list) or not tenants:
                unusable(
                    f"{path}: scenario '{name}' policy "
                    f"'{cell['policy']}' carries no per-tenant rollups"
                )
            for tenant in tenants:
                absent = [f for f in TENANT_FIELDS if f not in tenant]
                if absent:
                    unusable(
                        f"{path}: scenario '{name}' tenant rollup "
                        f"lacks field(s) {absent}; output from an "
                        "incompatible bench_scenarios version"
                    )
                label = (
                    f"scenario '{name}' / {cell['policy']} / tenant "
                    f"'{tenant['tenant']}'"
                )
                ladder = [
                    tenant["p50_latency_s"],
                    tenant["p95_latency_s"],
                    tenant["p99_latency_s"],
                    tenant["p999_latency_s"],
                    tenant["max_latency_s"],
                ]
                if any(b < a for a, b in zip(ladder, ladder[1:])):
                    fail(
                        f"{label}: latency percentile ladder is not "
                        f"monotone: {ladder}"
                    )
                if not 0.0 <= tenant["shed_rate"] <= 1.0:
                    fail(
                        f"{label}: shed_rate {tenant['shed_rate']} "
                        "outside [0, 1]"
                    )
                tenants_checked += 1
            by_policy[cell["policy"]] = summary
        missing_policies = [
            p for p in required_policies if p not in by_policy
        ]
        if missing_policies:
            unusable(
                f"{path}: scenario '{name}' lacks required policy "
                f"cell(s) {missing_policies} (present: "
                f"{sorted(by_policy)}); re-run bench_scenarios with "
                "the full --policies grid or narrow --require-policies"
            )
        if scenario.get("hostile"):
            hostile_cells.append((name, by_policy))

    comparable = [
        (name, cells)
        for name, cells in hostile_cells
        if {"cottage", "slo-dvfs"} <= set(cells)
    ]
    if not comparable:
        unusable(
            f"{path}: no hostile scenario carries both 'cottage' and "
            "'slo-dvfs'; the Cottage-vs-SLO gate cannot run"
        )

    def mean_attainment(summary):
        tenants = summary["tenants"]
        return sum(t["slo_attainment"] for t in tenants) / len(tenants)

    wins = []
    for name, cells in comparable:
        cottage, slo = cells["cottage"], cells["slo-dvfs"]
        axes = []
        if cottage["p99_latency_s"] < slo["p99_latency_s"]:
            axes.append("p99")
        if cottage["shed_rate"] < slo["shed_rate"]:
            axes.append("shed_rate")
        if mean_attainment(cottage) > mean_attainment(slo):
            axes.append("slo_attainment")
        if axes:
            wins.append(f"{name} ({'/'.join(axes)})")
    if not wins:
        fail(
            "cottage beat slo-dvfs on NO hostile scenario (checked: "
            f"{[name for name, _ in comparable]}): coordinated budget "
            "assignment must outperform a fixed a-priori deadline "
            "under at least one hostile shape"
        )

    return (
        f"{len(scenarios)} scenarios, {tenants_checked} tenant rollups "
        f"monotone; cottage beats slo-dvfs on {', '.join(wins)}"
    )


# ---------------------------------------------------------------------
# Self-test: pin the checker's own behaviour (gates, arming rules, exit
# codes) on synthetic bench files.


def _synthetic_totals(**overrides):
    """A healthy full-sweep totals section; overrides patch fields as
    {evaluator: {field: value}}."""
    base = {
        "exhaustive": {"queries": 100, "docs_scored": 5000,
                       "blocks_skipped": 0, "ns_per_query": 9000},
        "maxscore": {"queries": 100, "docs_scored": 3000,
                     "blocks_skipped": 0, "ns_per_query": 6000},
        "wand": {"queries": 100, "docs_scored": 2500,
                 "blocks_skipped": 0, "ns_per_query": 8000},
        "bmw": {"queries": 100, "docs_scored": 2000,
                "blocks_skipped": 40, "ns_per_query": 7000},
    }
    for name, fields in overrides.items():
        base[name].update(fields)
    return base


def _run_case(tag, argv, expect_exit):
    """Run main() on argv; assert the exit code (0 encoded as None)."""
    code = 0
    try:
        main(argv)
    except SystemExit as err:
        code = err.code or 0
    if code != expect_exit:
        print(
            f"check_bench self-test: case '{tag}' exited {code}, "
            f"expected {expect_exit}",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"check_bench self-test: case '{tag}' ok (exit {expect_exit})")


def self_test() -> None:
    with tempfile.TemporaryDirectory(prefix="check_bench_") as tmp:

        def bench_file(name, totals):
            path = os.path.join(tmp, name)
            with open(path, "w") as handle:
                json.dump({"bench": "evaluators", "totals": totals},
                          handle)
            return path

        healthy = bench_file("healthy.json", _synthetic_totals())
        _run_case("healthy default gates", [healthy], 0)
        _run_case(
            "healthy armed time gates",
            [healthy, "--require=exhaustive,maxscore,wand,bmw"],
            0,
        )

        # Work gates trip regardless of --require.
        docs_regressed = bench_file(
            "docs.json", _synthetic_totals(bmw={"docs_scored": 2500})
        )
        _run_case("bmw docs regression", [docs_regressed], 1)
        no_skips = bench_file(
            "skips.json", _synthetic_totals(bmw={"blocks_skipped": 0})
        )
        _run_case("bmw never skipped", [no_skips], 1)
        drifted = bench_file(
            "drift.json", _synthetic_totals(wand={"queries": 99})
        )
        _run_case("query count drift", [drifted], 1)

        # Time gates only arm when the pair is named explicitly...
        slow_bmw = bench_file(
            "slow_bmw.json", _synthetic_totals(bmw={"ns_per_query": 9500})
        )
        _run_case("slow bmw, time gate unarmed", [slow_bmw], 0)
        _run_case(
            "slow bmw, time gate armed", [slow_bmw, "--require=wand,bmw"], 1
        )
        _run_case(
            "slow bmw, only wand named -> bmw gate unarmed",
            [slow_bmw, "--require=wand"],
            0,
        )
        tie = bench_file(
            "tie.json", _synthetic_totals(bmw={"ns_per_query": 8000})
        )
        _run_case("bmw ties wand, strict gate",
                  [tie, "--require=wand,bmw"], 1)

        # BAD INPUT paths keep exit 2.
        _run_case("missing file", [os.path.join(tmp, "nope.json")], 2)
        corrupt = os.path.join(tmp, "corrupt.json")
        with open(corrupt, "w") as handle:
            handle.write("{not json")
        _run_case("corrupt json", [corrupt], 2)
        totals = _synthetic_totals()
        del totals["maxscore"]
        trimmed = bench_file("trimmed.json", totals)
        _run_case("required evaluator absent", [trimmed], 2)
        _run_case(
            "trimmed file, narrowed require",
            [trimmed, "--require=wand,bmw"],
            0,
        )
        broken_row = _synthetic_totals()
        del broken_row["bmw"]["blocks_skipped"]
        fieldless = bench_file("fieldless.json", broken_row)
        _run_case("totals row missing field", [fieldless], 2)
        no_time = bench_file(
            "no_time.json",
            _synthetic_totals(
                **{n: {"ns_per_query": 0} for n in DEFAULT_REQUIRED}
            ),
        )
        _run_case("no-time file, work gates only", [no_time], 0)
        _run_case(
            "no-time file, time gate requested",
            [no_time, "--require=wand,bmw"],
            2,
        )

        # ---- serving gates ----

        def serving_point(qps, shed_rate=0.0):
            return {
                "offered_qps": qps,
                "achieved_qps": qps * (1.0 - shed_rate),
                "shed_rate": shed_rate,
                "p95_latency_s": 0.004 + qps * 1e-6,
                "result_cache_hit_rate": 0.1,
                "stats_cache_hit_rate": 0.8,
            }

        def serving_file(name, points, saturation_qps=None, section=True):
            path = os.path.join(tmp, name)
            body = {"bench": "serving"}
            if section:
                serving = {"points": points}
                if saturation_qps is not None:
                    serving["saturation_qps"] = saturation_qps
                body["serving"] = serving
            with open(path, "w") as handle:
                json.dump(body, handle)
            return path

        healthy_sweep = serving_file(
            "serving.json",
            [serving_point(100), serving_point(200),
             serving_point(400, shed_rate=0.2)],
            saturation_qps=200,
        )
        _run_case("healthy serving sweep", [healthy_sweep, "--serving"], 0)
        _run_case(
            "serving file without --serving (no totals)",
            [healthy_sweep],
            2,
        )
        _run_case(
            "evaluator file with --serving (no serving section)",
            [healthy, "--serving"],
            2,
        )
        shed_cold = serving_file(
            "serving_shed_cold.json",
            [serving_point(100, shed_rate=0.05), serving_point(200)],
            saturation_qps=200,
        )
        _run_case(
            "serving sheds at lowest rung", [shed_cold, "--serving"], 1
        )
        no_sustain = serving_file(
            "serving_no_sustain.json",
            [serving_point(100)],
            saturation_qps=0,
        )
        _run_case(
            "serving saturation_qps zero", [no_sustain, "--serving"], 1
        )
        flat_ladder = serving_file(
            "serving_flat.json",
            [serving_point(100), serving_point(100)],
            saturation_qps=100,
        )
        _run_case(
            "serving ladder not rising", [flat_ladder, "--serving"], 1
        )
        no_saturation_field = serving_file(
            "serving_no_saturation.json", [serving_point(100)]
        )
        _run_case(
            "serving lacks saturation_qps",
            [no_saturation_field, "--serving"],
            2,
        )
        empty_points = serving_file(
            "serving_empty.json", [], saturation_qps=100
        )
        _run_case(
            "serving empty ladder", [empty_points, "--serving"], 2
        )
        bare_point = serving_point(100)
        del bare_point["shed_rate"]
        fieldless_point = serving_file(
            "serving_fieldless.json", [bare_point], saturation_qps=100
        )
        _run_case(
            "serving point missing field",
            [fieldless_point, "--serving"],
            2,
        )

        # ---- scenario gates ----

        def tenant_rollup(name, p99=0.005, shed=0.0, attainment=1.0):
            return {
                "tenant": name,
                "offered": 500,
                "shed_rate": shed,
                "p50_latency_s": 0.002,
                "p95_latency_s": 0.004,
                "p99_latency_s": p99,
                "p999_latency_s": p99 + 0.001,
                "max_latency_s": p99 + 0.002,
                "slo_attainment": attainment,
                "avg_ndcg": 0.9,
                "energy_j": 10.0,
            }

        def scenario_summary(p99=0.005, shed=0.0, attainment=1.0):
            return {
                "p99_latency_s": p99,
                "shed_rate": shed,
                "tenants": [
                    tenant_rollup("interactive", p99, shed, attainment),
                    tenant_rollup("batch", p99, shed, attainment),
                ],
            }

        def scenario_file(name, scenarios):
            path = os.path.join(tmp, name)
            with open(path, "w") as handle:
                json.dump(
                    {"bench": "scenarios", "scenarios": scenarios},
                    handle,
                )
            return path

        def scenario(name, hostile, cottage, slo):
            return {
                "name": name,
                "hostile": hostile,
                "policies": [
                    {"policy": "cottage", "summary": cottage},
                    {"policy": "slo-dvfs", "summary": slo},
                ],
            }

        healthy_scenarios = scenario_file(
            "scenarios.json",
            [
                scenario("mixed_poisson", False, scenario_summary(),
                         scenario_summary()),
                scenario(
                    "straggler_isn",
                    True,
                    scenario_summary(p99=0.006),
                    scenario_summary(p99=0.020, shed=0.05),
                ),
            ],
        )
        _run_case(
            "healthy scenarios", [healthy_scenarios, "--scenarios"], 0
        )
        _run_case(
            "scenario file without --scenarios (no totals)",
            [healthy_scenarios],
            2,
        )

        # Cottage losing every hostile axis is a regression.
        cottage_loses = scenario_file(
            "scenarios_lose.json",
            [
                scenario(
                    "straggler_isn",
                    True,
                    scenario_summary(p99=0.030, shed=0.10,
                                     attainment=0.5),
                    scenario_summary(p99=0.010, shed=0.01,
                                     attainment=0.9),
                )
            ],
        )
        _run_case(
            "cottage loses every hostile shape",
            [cottage_loses, "--scenarios"],
            1,
        )
        # ... but winning a single axis (here: shed rate) passes.
        cottage_shed_win = scenario_file(
            "scenarios_shed_win.json",
            [
                scenario(
                    "flash_crowd",
                    True,
                    scenario_summary(p99=0.030, shed=0.02,
                                     attainment=0.5),
                    scenario_summary(p99=0.010, shed=0.05,
                                     attainment=0.9),
                )
            ],
        )
        _run_case(
            "cottage wins only the shed-rate axis",
            [cottage_shed_win, "--scenarios"],
            0,
        )

        broken_ladder_summary = scenario_summary(p99=0.006)
        broken_ladder_summary["tenants"][0]["p95_latency_s"] = 0.009
        broken_ladder = scenario_file(
            "scenarios_ladder.json",
            [
                scenario("straggler_isn", True, broken_ladder_summary,
                         scenario_summary(p99=0.020)),
            ],
        )
        _run_case(
            "tenant percentile ladder not monotone",
            [broken_ladder, "--scenarios"],
            1,
        )

        bad_shed_summary = scenario_summary()
        bad_shed_summary["tenants"][1]["shed_rate"] = 1.5
        bad_shed = scenario_file(
            "scenarios_shed.json",
            [
                scenario("straggler_isn", True, scenario_summary(),
                         bad_shed_summary),
            ],
        )
        _run_case(
            "tenant shed_rate outside [0,1]",
            [bad_shed, "--scenarios"],
            1,
        )

        # BAD INPUT paths keep exit 2.
        no_hostile = scenario_file(
            "scenarios_no_hostile.json",
            [
                scenario("mixed_poisson", False, scenario_summary(),
                         scenario_summary()),
            ],
        )
        _run_case(
            "no hostile scenario to compare",
            [no_hostile, "--scenarios"],
            2,
        )
        tenantless_summary = scenario_summary()
        tenantless_summary["tenants"] = []
        tenantless = scenario_file(
            "scenarios_tenantless.json",
            [
                scenario("straggler_isn", True, tenantless_summary,
                         scenario_summary()),
            ],
        )
        _run_case(
            "cell without tenant rollups",
            [tenantless, "--scenarios"],
            2,
        )
        bare_tenant_summary = scenario_summary()
        del bare_tenant_summary["tenants"][0]["p999_latency_s"]
        bare_tenant = scenario_file(
            "scenarios_fieldless.json",
            [
                scenario("straggler_isn", True, bare_tenant_summary,
                         scenario_summary()),
            ],
        )
        _run_case(
            "tenant rollup missing field",
            [bare_tenant, "--scenarios"],
            2,
        )
        _run_case(
            "evaluator file with --scenarios (no scenarios list)",
            [healthy, "--scenarios"],
            2,
        )

        # --require-policies: every scenario must carry every named
        # policy cell; the default stays cottage,slo-dvfs.
        def scenario_full_grid(name, hostile):
            return {
                "name": name,
                "hostile": hostile,
                "policies": [
                    {"policy": "cottage",
                     "summary": scenario_summary(p99=0.005)},
                    {"policy": "slo-dvfs",
                     "summary": scenario_summary(p99=0.008)},
                    {"policy": "rank-s",
                     "summary": scenario_summary(p99=0.006)},
                    {"policy": "taily",
                     "summary": scenario_summary(p99=0.007)},
                ],
            }

        full_grid = scenario_file(
            "scenarios_full_grid.json",
            [
                scenario_full_grid("mixed_poisson", False),
                scenario_full_grid("flash_crowd", True),
            ],
        )
        _run_case(
            "full policy grid, all four required",
            [full_grid, "--scenarios",
             "--require-policies=cottage,slo-dvfs,rank-s,taily"],
            0,
        )
        _run_case(
            "baseline file missing a required policy",
            [healthy_scenarios, "--scenarios",
             "--require-policies=cottage,slo-dvfs,rank-s"],
            2,
        )
        _run_case(
            "baseline file, default required policies",
            [healthy_scenarios, "--scenarios"],
            0,
        )

        # ---- parallelism gates ----

        def sweep_cell(evaluator, cores, ns, docs, checksum):
            return {
                "evaluator": evaluator,
                "cores": cores,
                "ns_per_query": ns,
                "docs_scored": docs,
                "topk_checksum": checksum,
            }

        def healthy_cells(timed):
            # Checksums constant per evaluator; docs rise with cores
            # (cold-threshold slices prune less); timing improves to a
            # min at 4 then regresses slightly at 8.
            cells = []
            for name in ("maxscore", "wand", "bmw"):
                for cores, ns in ((1, 8000.0), (2, 4500.0),
                                  (4, 2600.0), (8, 2700.0)):
                    cells.append(sweep_cell(
                        name, cores, ns if timed else 0.0,
                        10000 + (cores - 1) * 50, f"0x{name}"))
            return cells

        def frontier_row(scenario, isn_cores, p99, energy):
            return {
                "scenario": scenario,
                "isn_cores": isn_cores,
                "p99_latency_s": p99,
                "energy_j": energy,
                "avg_ndcg": 0.95,
            }

        def healthy_frontier():
            return [
                frontier_row("mixed_poisson", 1, 0.0040, 13.7),
                frontier_row("mixed_poisson", 4, 0.0036, 6.6),
                frontier_row("flash_crowd", 1, 0.0044, 12.3),
                frontier_row("flash_crowd", 4, 0.0050, 7.3),
            ]

        def parallelism_file(name, sweep, frontier, timed=False):
            path = os.path.join(tmp, name)
            with open(path, "w") as handle:
                json.dump(
                    {
                        "bench": "parallelism",
                        "config": {"timed": timed},
                        "sweep": sweep,
                        "frontier": frontier,
                    },
                    handle,
                )
            return path

        untimed = parallelism_file(
            "par.json", healthy_cells(False), healthy_frontier()
        )
        _run_case("healthy untimed parallelism", [untimed,
                                                  "--parallelism"], 0)
        timed_file = parallelism_file(
            "par_timed.json", healthy_cells(True), healthy_frontier(),
            timed=True,
        )
        _run_case(
            "healthy timed parallelism", [timed_file, "--parallelism"], 0
        )

        drifted_cells = healthy_cells(False)
        drifted_cells[3] = sweep_cell(  # maxscore @ 8 cores
            "maxscore", 8, 0.0, 10350, "0xdeadbeef")
        drifted_checksum = parallelism_file(
            "par_drift.json", drifted_cells, healthy_frontier()
        )
        _run_case(
            "top-K checksum drifts across cores",
            [drifted_checksum, "--parallelism"],
            1,
        )

        shrunk_cells = healthy_cells(False)
        shrunk_cells[6] = sweep_cell(  # wand @ 4 cores scores fewer
            "wand", 4, 0.0, 9000, "0xwand")
        shrunk = parallelism_file(
            "par_shrunk.json", shrunk_cells, healthy_frontier()
        )
        _run_case(
            "4-core slice drops part of the doc range",
            [shrunk, "--parallelism"],
            1,
        )

        slow_cells = healthy_cells(True)
        slow_cells[10] = sweep_cell(  # bmw @ 4 cores slower than @ 1
            "bmw", 4, 9000.0, 10150, "0xbmw")
        slow_timed = parallelism_file(
            "par_slow.json", slow_cells, healthy_frontier(), timed=True
        )
        _run_case(
            "timed run with no 4-core speedup",
            [slow_timed, "--parallelism"],
            1,
        )
        slow_untimed = parallelism_file(
            "par_slow_untimed.json", slow_cells, healthy_frontier()
        )
        _run_case(
            "same cells, wall-clock gate unarmed",
            [slow_untimed, "--parallelism"],
            0,
        )
        _run_case(
            "--require-time on a --no-time artifact",
            [untimed, "--parallelism", "--require-time"],
            2,
        )

        dominated = parallelism_file(
            "par_dominated.json",
            healthy_cells(False),
            [
                frontier_row("mixed_poisson", 1, 0.0040, 10.0),
                frontier_row("mixed_poisson", 4, 0.0050, 12.0),
            ],
        )
        _run_case(
            "frontier: cores build loses everywhere",
            [dominated, "--parallelism"],
            1,
        )
        tolerance_win = parallelism_file(
            "par_tolerance.json",
            healthy_cells(False),
            [
                # Energy halves while p99 slips 0.5% — within the 1%
                # "no worse" band, so the energy axis wins.
                frontier_row("mixed_poisson", 1, 0.00400, 13.0),
                frontier_row("mixed_poisson", 4, 0.00402, 6.5),
            ],
        )
        _run_case(
            "frontier: energy win inside the p99 tolerance",
            [tolerance_win, "--parallelism"],
            0,
        )
        over_tolerance = parallelism_file(
            "par_over_tolerance.json",
            healthy_cells(False),
            [
                # Energy halves but p99 slips 5% — outside the band on
                # one axis and not a win on the other: regression.
                frontier_row("mixed_poisson", 1, 0.00400, 13.0),
                frontier_row("mixed_poisson", 4, 0.00420, 6.5),
            ],
        )
        _run_case(
            "frontier: energy win outside the p99 tolerance",
            [over_tolerance, "--parallelism"],
            1,
        )

        missing_cores = parallelism_file(
            "par_missing_cores.json",
            [c for c in healthy_cells(False) if c["cores"] != 4],
            healthy_frontier(),
        )
        _run_case(
            "sweep lacks the cores=4 cells",
            [missing_cores, "--parallelism"],
            2,
        )
        frequency_only = parallelism_file(
            "par_freq_only.json",
            healthy_cells(False),
            [frontier_row("mixed_poisson", 1, 0.0040, 13.7)],
        )
        _run_case(
            "frontier lacks isn_cores=4 rows",
            [frequency_only, "--parallelism"],
            2,
        )
        bare_cell = healthy_cells(False)
        del bare_cell[0]["topk_checksum"]
        fieldless_sweep = parallelism_file(
            "par_fieldless.json", bare_cell, healthy_frontier()
        )
        _run_case(
            "sweep cell missing field",
            [fieldless_sweep, "--parallelism"],
            2,
        )
        _run_case(
            "evaluator file with --parallelism (no sweep)",
            [healthy, "--parallelism"],
            2,
        )

    print("check_bench self-test: all cases passed")


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.self_test:
        self_test()
        return

    if args.serving:
        detail = check_serving(args.path)
        print(f"check_bench: OK ({args.path}): {detail}")
        return

    if args.parallelism:
        detail = check_parallelism(args.path, args.require_time)
        print(f"check_bench: OK ({args.path}): {detail}")
        return

    if args.scenarios:
        required_policies = []
        for chunk in args.require_policies or [
            ",".join(DEFAULT_REQUIRED_POLICIES)
        ]:
            required_policies.extend(
                p for p in chunk.split(",") if p
            )
        detail = check_scenarios(args.path, required_policies)
        print(f"check_bench: OK ({args.path}): {detail}")
        return

    required = []
    for chunk in args.require or [",".join(DEFAULT_REQUIRED)]:
        required.extend(n for n in chunk.split(",") if n)
    # An explicit --require arms the ns_per_query gates for the pairs it
    # fully covers; the default list only enforces the work gates.
    time_gated = set(required) if args.require else set()

    detail = check(args.path, required, time_gated)
    print(f"check_bench: OK ({args.path}): {detail}")


if __name__ == "__main__":
    main()
