#!/usr/bin/env python3
"""One declarative gate over the BENCH_*.json artifacts.

    python3 scripts/check_bench.py [--timed] FILE...
    python3 scripts/check_bench.py --self-test

Each file's "bench" field names its kind (evaluators, serving,
scenarios, parallelism or paper). One loop checks it:

  1. schema: SCHEMAS[kind] type-checks every field a row reads;
  2. rows: every row of ROWS for that kind must hold. Rows marked timed
     compare wall-clock fields and run only under --timed, which is
     BAD INPUT on a file whose wall-clock fields are zeroed (--no-time)
     or that has none.

The committed artifacts at the repo root are untimed; ctest runs every
row over all five. CI adds --timed on its two timed outputs (the full
bench_evaluators run and the timed bench_parallelism smoke run).

The paper kind is a ratchet over BENCH_paper.json's claims: every
(claim, flavor) cell must hold except those in PAPER_KNOWN_FAILURES,
and each of those must still fail. A claim that starts to hold fails
the gate until it is taken off the list, so the list only shrinks.

Exit codes:
  0  every row holds
  1  a row broke (a real regression)
  2  BAD INPUT: a file is missing, not JSON, not an object, of an
     unknown kind, lacks a field or holds one of the wrong type, or
     --timed was given on an untimed file

--self-test mutates copies of the committed artifacts, breaking each
row at least once, and checks every exit code.
"""

import argparse
import json
import os
import sys
import tempfile

EVALUATORS = ("exhaustive", "maxscore", "wand", "bmw")
POLICIES = ("cottage", "slo-dvfs", "rank-s", "taily")

# Evaluators whose ns/query must drop from 1 to 4 cores on a timed run.
GANG_TIMED_EVALUATORS = ("wand", "bmw")

# "No worse" band of the frontier test: a 1% slip on the held-equal
# axis still counts as equal.
FRONTIER_TOLERANCE = 1.01

# The (claim, flavor) cells of BENCH_paper.json that the reproduction
# does not meet today (EXPERIMENTS.md explains each).
PAPER_KNOWN_FAILURES = frozenset({
    ("rank_s_avg_latency_below_taily", "wikipedia"),
    ("taily_p10_below_cottage", "wikipedia"),
    ("taily_p10_below_cottage", "lucene"),
    ("rank_s_p10_at_most_paper", "wikipedia"),
    ("cottage_fewest_isns", "lucene"),
    ("without_ml_lower_p10", "wikipedia"),
    ("without_ml_lower_p10", "lucene"),
})

# ---------------------------------------------------------------------
# Schema: a dict spec is an object with those keys ("*" = every value),
# a one-item list spec a (possibly empty) list of that item, anything
# else the type(s) a scalar must have. Booleans are not numbers here.

NUM = (int, float)

TENANT = {
    "tenant": str, "offered": NUM, "shed_rate": NUM,
    "p50_latency_s": NUM, "p95_latency_s": NUM, "p99_latency_s": NUM,
    "p999_latency_s": NUM, "max_latency_s": NUM,
    "slo_attainment": NUM, "avg_ndcg": NUM, "energy_j": NUM,
}

SCHEMAS = {
    "evaluators": {"totals": {"*": {
        "queries": NUM, "docs_scored": NUM, "blocks_skipped": NUM,
        "ns_per_query": NUM,
    }}},
    "serving": {"serving": {"saturation_qps": NUM, "points": [{
        "offered_qps": NUM, "achieved_qps": NUM, "shed_rate": NUM,
        "p95_latency_s": NUM, "result_cache_hit_rate": NUM,
        "stats_cache_hit_rate": NUM,
    }]}},
    "scenarios": {"scenarios": [{
        "name": str, "hostile": bool, "policies": [{
            "policy": str, "summary": {
                "p99_latency_s": NUM, "shed_rate": NUM,
                "tenants": [TENANT],
            },
        }],
    }]},
    "parallelism": {
        "config": {"timed": bool},
        "sweep": [{
            "evaluator": str, "cores": int, "ns_per_query": NUM,
            "docs_scored": NUM, "topk_checksum": str,
        }],
        "frontier": [{
            "scenario": str, "isn_cores": int, "p99_latency_s": NUM,
            "energy_j": NUM, "avg_ndcg": NUM,
        }],
    },
    "paper": {"claims": [{
        "name": str, "flavor": str, "inequality": str, "holds": bool,
    }]},
}

# Whether a file carries measured wall-clock fields; kinds absent here
# never do.
TIMED = {
    "evaluators": lambda b: all(
        row["ns_per_query"] > 0 for row in b["totals"].values()),
    "parallelism": lambda b: b["config"]["timed"] and all(
        cell["ns_per_query"] > 0 for cell in b["sweep"]),
}


class BadInput(Exception):
    """The file cannot be checked at all (exit 2)."""


def conform(value, spec, where="top level"):
    """Raise BadInput unless value has the shape spec describes."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise BadInput(f"{where} is not an object")
        for key, sub in spec.items():
            if key == "*":
                for name, item in value.items():
                    conform(item, sub, f"{where}.{name}")
            elif key not in value:
                raise BadInput(f"{where} lacks '{key}'")
            else:
                conform(value[key], sub, f"{where}.{key}")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise BadInput(f"{where} is not a list")
        for i, item in enumerate(value):
            conform(item, spec[0], f"{where}[{i}]")
    elif isinstance(value, bool) != (spec is bool) or not isinstance(
            value, spec):
        raise BadInput(f"{where} is {json.dumps(value)}: wrong type")


# ---------------------------------------------------------------------
# Rows. Each check returns None when the invariant holds and a one-line
# detail when it breaks; the schema step has already typed every field.


def by_key(items, key, sub):
    """Group dicts as {item[key]: {item[sub]: item}}."""
    grouped = {}
    for item in items:
        grouped.setdefault(item[key], {})[item[sub]] = item
    return grouped


def absent(names, present):
    gone = [name for name in names if name not in present]
    return gone and f"missing {gone}"


def equal_queries(bench):
    queries = {name: row["queries"] for name, row in bench["totals"].items()}
    if len(set(queries.values())) > 1:
        return f"evaluators replayed different query counts: {queries}"
    return None


def strictly_below(totals, field, low, high):
    if low in totals and high in totals:
        a, b = totals[low][field], totals[high][field]
        if a >= b:
            return f"{low} {field} {a} is not below {high}'s {b}"
    return None


def bmw_skips(bench):
    bmw = bench["totals"].get("bmw")
    if bmw is not None and bmw["blocks_skipped"] <= 0:
        return "bmw skipped no block: the skip layer never engaged"
    return None


def lowest_rung(bench):
    points = bench["serving"]["points"]
    if points and points[0]["shed_rate"] != 0:
        return f"the lowest rung shed {points[0]['shed_rate']} of its load"
    return None


def offered_rising(bench):
    offered = [point["offered_qps"] for point in bench["serving"]["points"]]
    if any(b <= a for a, b in zip(offered, offered[1:])):
        return f"offered_qps {offered} is not strictly rising"
    return None


def policy_grid(bench):
    for scenario in bench["scenarios"]:
        gone = absent(POLICIES, {c["policy"] for c in scenario["policies"]})
        if gone:
            return f"{scenario['name']}: {gone}"
    return None


def tenant_ladders(bench):
    for scenario in bench["scenarios"]:
        for cell in scenario["policies"]:
            label = f"{scenario['name']}/{cell['policy']}"
            tenants = cell["summary"]["tenants"]
            if not tenants:
                return f"{label} carries no per-tenant rollups"
            for t in tenants:
                ladder = [t[f"{p}_latency_s"]
                          for p in ("p50", "p95", "p99", "p999", "max")]
                if any(b < a for a, b in zip(ladder, ladder[1:])):
                    return (f"{label}/{t['tenant']} p50..max ladder "
                            f"{ladder} is not monotone")
    return None


def tenant_shed_rates(bench):
    for scenario in bench["scenarios"]:
        for cell in scenario["policies"]:
            for t in cell["summary"]["tenants"]:
                if not 0.0 <= t["shed_rate"] <= 1.0:
                    return (f"{scenario['name']}/{cell['policy']}/"
                            f"{t['tenant']} shed_rate {t['shed_rate']} "
                            "is outside [0, 1]")
    return None


def cottage_beats_slo(bench):
    def attainment(summary):
        tenants = summary["tenants"]
        return sum(t["slo_attainment"] for t in tenants) / max(
            len(tenants), 1)

    checked = []
    for scenario in bench["scenarios"]:
        cells = {c["policy"]: c["summary"] for c in scenario["policies"]}
        if not scenario["hostile"] or not {"cottage", "slo-dvfs"} <= set(
                cells):
            continue
        checked.append(scenario["name"])
        cottage, slo = cells["cottage"], cells["slo-dvfs"]
        if (cottage["p99_latency_s"] < slo["p99_latency_s"]
                or cottage["shed_rate"] < slo["shed_rate"]
                or attainment(cottage) > attainment(slo)):
            return None
    return (f"cottage loses p99, shed_rate and SLO attainment to slo-dvfs "
            f"on every hostile scenario with both cells ({checked})")


def gang_checksums(bench):
    for name, cells in by_key(bench["sweep"], "evaluator", "cores").items():
        sums = {cores: cell["topk_checksum"] for cores, cell in cells.items()}
        if len(set(sums.values())) > 1:
            return f"{name} top-K checksums differ across cores: {sums}"
    return None


def gang_docs(bench):
    for name, cells in by_key(bench["sweep"], "evaluator", "cores").items():
        if 1 not in cells or 4 not in cells:
            return f"{name} lacks the cores=1 and cores=4 sweep cells"
        if cells[4]["docs_scored"] < cells[1]["docs_scored"]:
            return (f"{name} scored {cells[4]['docs_scored']} docs at 4 "
                    f"cores but {cells[1]['docs_scored']} at 1: a slice "
                    "drops part of the doc range")
    return None


def frontier_wins(bench):
    tol = FRONTIER_TOLERANCE
    presets = by_key(bench["frontier"], "scenario", "isn_cores")
    for rows in presets.values():
        if 1 in rows and 4 in rows:
            one, four = rows[1], rows[4]
            e1, e4 = one["energy_j"], four["energy_j"]
            p1, p4 = one["p99_latency_s"], four["p99_latency_s"]
            if (e4 < e1 and p4 <= p1 * tol) or (p4 < p1 and e4 <= e1 * tol):
                return None
    return (f"isn_cores=4 wins neither energy at no-worse p99 nor p99 at "
            f"no-worse energy on any preset ({sorted(presets)})")


def gang_speedup(bench):
    sweep = by_key(bench["sweep"], "evaluator", "cores")
    for name in GANG_TIMED_EVALUATORS:
        cells = sweep.get(name, {})
        if 1 not in cells or 4 not in cells:
            return f"{name} lacks the cores=1 and cores=4 sweep cells"
        one, four = cells[1]["ns_per_query"], cells[4]["ns_per_query"]
        if four >= one:
            return f"{name} {four:.0f} ns/query at 4 cores vs {one:.0f} at 1"
    return None


def paper_cells(bench):
    return {(c["name"], c["flavor"]): c for c in bench["claims"]}


def unexpected_paper_failures(bench):
    failing = [f"{name}/{flavor} ({c['inequality']})"
               for (name, flavor), c in paper_cells(bench).items()
               if not c["holds"]
               and (name, flavor) not in PAPER_KNOWN_FAILURES]
    return failing and f"claims stopped holding: {failing}"


def stale_paper_failures(bench):
    cells = paper_cells(bench)
    stale = sorted(f"{name}/{flavor}"
                   for name, flavor in PAPER_KNOWN_FAILURES
                   if cells.get((name, flavor), {"holds": True})["holds"])
    return stale and (f"listed known failures now hold or are gone: "
                      f"{stale}; take them off PAPER_KNOWN_FAILURES")


# (kind, row id, needs --timed, check)
ROWS = [
    ("evaluators", "all_evaluators_present", False,
     lambda b: absent(EVALUATORS, b["totals"])),
    ("evaluators", "equal_query_counts", False, equal_queries),
    ("evaluators", "bmw_scores_fewer_docs_than_wand", False,
     lambda b: strictly_below(b["totals"], "docs_scored", "bmw", "wand")),
    ("evaluators", "bmw_skips_blocks", False, bmw_skips),
    ("evaluators", "bmw_faster_than_wand", True,
     lambda b: strictly_below(b["totals"], "ns_per_query", "bmw", "wand")),

    ("serving", "ladder_nonempty", False,
     lambda b: not b["serving"]["points"] and "no QPS rungs"),
    ("serving", "saturation_positive", False,
     lambda b: b["serving"]["saturation_qps"] <= 0
     and f"saturation_qps {b['serving']['saturation_qps']}: no load held"),
    ("serving", "lowest_rung_sheds_nothing", False, lowest_rung),
    ("serving", "offered_qps_rising", False, offered_rising),

    ("scenarios", "full_policy_grid", False, policy_grid),
    ("scenarios", "tenant_ladder_monotone", False, tenant_ladders),
    ("scenarios", "tenant_shed_rate_in_unit_range", False,
     tenant_shed_rates),
    ("scenarios", "cottage_beats_slo_dvfs_somewhere", False,
     cottage_beats_slo),

    ("parallelism", "topk_checksum_identical_across_cores", False,
     gang_checksums),
    ("parallelism", "docs_at_4_cores_at_least_1_core", False, gang_docs),
    ("parallelism", "frontier_4_cores_wins_somewhere", False, frontier_wins),
    ("parallelism", "4_cores_faster_than_1", True, gang_speedup),

    ("paper", "claims_hold_except_known_failures", False,
     unexpected_paper_failures),
    ("paper", "known_failures_still_fail", False, stale_paper_failures),
]


def check(path, timed):
    """Return [(row id, detail)] for every row the file breaks.

    Raises BadInput when the file cannot be checked.
    """
    try:
        with open(path) as handle:
            bench = json.load(handle)
    except OSError as err:
        raise BadInput(f"cannot read ({err.strerror})") from None
    except ValueError as err:
        raise BadInput(f"not valid JSON ({err})") from None
    if not isinstance(bench, dict):
        raise BadInput("top level is not a JSON object")
    kind = bench.get("bench")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise BadInput(f"unknown bench kind {json.dumps(kind)} "
                       f"(known: {', '.join(SCHEMAS)})")
    conform(bench, SCHEMAS[kind])
    if timed and not TIMED.get(kind, lambda b: False)(bench):
        raise BadInput(f"--timed on an untimed {kind} file (produced with "
                       "--no-time, or the kind carries no wall clock)")
    return [(row_id, detail)
            for row_kind, row_id, needs_time, rule in ROWS
            if row_kind == kind and (timed or not needs_time)
            for detail in [rule(bench)] if detail]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check BENCH_*.json artifacts against their invariants")
    parser.add_argument("files", nargs="*", metavar="FILE")
    parser.add_argument("--timed", action="store_true",
                        help="also run the wall-clock rows")
    parser.add_argument("--self-test", action="store_true",
                        help="check the checker on mutated artifacts")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.files:
        parser.error("no FILE given")

    code = 0
    for path in args.files:
        try:
            broken = check(path, args.timed)
        except BadInput as err:
            print(f"check_bench: BAD INPUT: {path}: {err}", file=sys.stderr)
            code = 2
            continue
        for row_id, detail in broken:
            print(f"check_bench: FAIL: {path}: {row_id}: {detail}",
                  file=sys.stderr)
        if broken:
            code = max(code, 1)
        else:
            print(f"check_bench: OK: {path}")
    return code


# ---------------------------------------------------------------------
# Self-test. Every case mutates a copy of one committed artifact and
# names the outcome: 0, 2 (BAD INPUT) or the row id that must break.


def put(path, value):
    """Mutation setting a dotted path (list indices as digits)."""
    *parents, leaf = path.split(".")

    def mutate(doc):
        for key in parents:
            doc = doc[int(key) if isinstance(doc, list) else key]
        doc[int(leaf) if isinstance(doc, list) else leaf] = value
    return mutate


def drop(path):
    """Mutation deleting the key or list item at a dotted path."""
    *parents, leaf = path.split(".")

    def mutate(doc):
        for key in parents:
            doc = doc[int(key) if isinstance(doc, list) else key]
        del doc[int(leaf) if isinstance(doc, list) else leaf]
    return mutate


def time_evaluators(bmw_ns=7000):
    return [put(f"totals.{name}.ns_per_query", ns) for name, ns in (
        ("exhaustive", 9000), ("maxscore", 6000), ("wand", 8000),
        ("bmw", bmw_ns))]


def time_sweep(slow=None):
    """Mark the sweep timed, ns/query halving per doubling of cores;
    the (evaluator, cores) cell named by slow runs at 1 core's pace."""
    def mutate(doc):
        doc["config"]["timed"] = True
        for cell in doc["sweep"]:
            fast = (cell["evaluator"], cell["cores"]) != slow
            cell["ns_per_query"] = 8000.0 / (cell["cores"] if fast else 1)
    return mutate


def frontier(p99_ratio, energy_ratio):
    """Set every isn_cores=4 row relative to its isn_cores=1 row."""
    def mutate(doc):
        for rows in by_key(doc["frontier"], "scenario", "isn_cores").values():
            rows[4]["p99_latency_s"] = rows[1]["p99_latency_s"] * p99_ratio
            rows[4]["energy_j"] = rows[1]["energy_j"] * energy_ratio
    return mutate


def cottage_loses(shed_win=False):
    """Cottage loses p99 and SLO attainment to slo-dvfs everywhere, and
    shed rate unless shed_win."""
    def mutate(doc):
        for scenario in doc["scenarios"]:
            cells = {c["policy"]: c["summary"] for c in scenario["policies"]}
            cottage, slo = cells["cottage"], cells["slo-dvfs"]
            cottage["p99_latency_s"] = 2 * slo["p99_latency_s"]
            slo["shed_rate"] = 0.5
            cottage["shed_rate"] = 0.4 if shed_win else 0.6
            for tenant in cottage["tenants"]:
                tenant["slo_attainment"] = 0.0
    return mutate


def flip_claim(listed, holds):
    """Set holds on the first claim in (or out of) the known failures;
    holds=None deletes that claim."""
    def mutate(doc):
        for i, c in enumerate(doc["claims"]):
            if ((c["name"], c["flavor"]) in PAPER_KNOWN_FAILURES) == listed:
                if holds is None:
                    del doc["claims"][i]
                else:
                    c["holds"] = holds
                return
    return mutate


# Paths into the committed files: sweep cells run maxscore, wand, bmw x
# cores 1, 2, 4, 8; scenarios[1] is flash_crowd, hostile, with the
# cottage cell first.
TENANT0 = "scenarios.1.policies.0.summary.tenants.0"

# (expected: 0, 2 or a row id; label; artifact kind or None for a
#  missing file; mutations; --timed)
CASES = [
    (2, "missing file", None, [], False),
    (2, "corrupt JSON", "serving", [lambda d: "{not json"], False),
    (2, "top level is a list", "serving", [lambda d: []], False),
    (2, "no bench field", "serving", [drop("bench")], False),
    (2, "unknown bench kind", "serving", [put("bench", "fig10")], False),
    (2, "unhashable bench kind", "serving", [put("bench", [])], False),

    (0, "committed", "evaluators", [], False),
    (0, "timed", "evaluators", time_evaluators(), True),
    ("all_evaluators_present", "maxscore gone", "evaluators",
     [drop("totals.maxscore")], False),
    ("equal_query_counts", "wand replays fewer queries", "evaluators",
     [put("totals.wand.queries", 1)], False),
    ("bmw_scores_fewer_docs_than_wand", "bmw ties wand on docs",
     "evaluators", [lambda d: d["totals"]["bmw"].update(
         docs_scored=d["totals"]["wand"]["docs_scored"])], False),
    ("bmw_skips_blocks", "bmw skips nothing", "evaluators",
     [put("totals.bmw.blocks_skipped", 0)], False),
    ("bmw_faster_than_wand", "bmw ties wand on time", "evaluators",
     time_evaluators(bmw_ns=8000), True),
    (0, "bmw ties wand, wall-clock rows unarmed", "evaluators",
     time_evaluators(bmw_ns=8000), False),
    (2, "--timed on --no-time output", "evaluators", [], True),
    (2, "totals row lacks a field", "evaluators",
     [drop("totals.bmw.blocks_skipped")], False),
    (2, "null query count", "evaluators",
     [put("totals.wand.queries", None)], False),

    (0, "committed", "serving", [], False),
    ("ladder_nonempty", "empty ladder", "serving",
     [put("serving.points", [])], False),
    ("saturation_positive", "saturation_qps 0", "serving",
     [put("serving.saturation_qps", 0)], False),
    ("lowest_rung_sheds_nothing", "lowest rung sheds", "serving",
     [put("serving.points.0.shed_rate", 0.05)], False),
    ("offered_qps_rising", "flat ladder", "serving",
     [put("serving.points.1.offered_qps", 0)], False),
    (2, "saturation_qps is a string", "serving",
     [put("serving.saturation_qps", "fast")], False),
    (2, "no saturation_qps", "serving",
     [drop("serving.saturation_qps")], False),
    (2, "point lacks shed_rate", "serving",
     [drop("serving.points.0.shed_rate")], False),
    (2, "--timed on a kind without wall clock", "serving", [], True),

    (0, "committed", "scenarios", [], False),
    ("full_policy_grid", "taily cell gone", "scenarios",
     [drop("scenarios.2.policies.3")], False),
    ("tenant_ladder_monotone", "p95 above p99", "scenarios",
     [put(TENANT0 + ".p95_latency_s", 1.0)], False),
    ("tenant_ladder_monotone", "cell without tenants", "scenarios",
     [put("scenarios.0.policies.2.summary.tenants", [])], False),
    ("tenant_shed_rate_in_unit_range", "shed_rate 1.5", "scenarios",
     [put(TENANT0 + ".shed_rate", 1.5)], False),
    ("tenant_shed_rate_in_unit_range", "shed_rate -0.1", "scenarios",
     [put(TENANT0 + ".shed_rate", -0.1)], False),
    ("cottage_beats_slo_dvfs_somewhere", "cottage loses everywhere",
     "scenarios", [cottage_loses()], False),
    (0, "cottage wins only on shed rate", "scenarios",
     [cottage_loses(shed_win=True)], False),
    ("cottage_beats_slo_dvfs_somewhere", "no hostile scenario", "scenarios",
     [put(f"scenarios.{i}.hostile", False) for i in range(5)], False),
    (2, "null tenant shed_rate", "scenarios",
     [put(TENANT0 + ".shed_rate", None)], False),
    (2, "tenant lacks p999", "scenarios",
     [drop(TENANT0 + ".p999_latency_s")], False),

    (0, "committed", "parallelism", [], False),
    (0, "timed", "parallelism", [time_sweep()], True),
    ("4_cores_faster_than_1", "bmw no faster at 4 cores", "parallelism",
     [time_sweep(slow=("bmw", 4))], True),
    (0, "bmw slow at 4 cores, wall-clock rows unarmed", "parallelism",
     [time_sweep(slow=("bmw", 4))], False),
    (2, "--timed on --no-time output", "parallelism", [], True),
    ("topk_checksum_identical_across_cores", "checksum drifts at 8 cores",
     "parallelism", [put("sweep.3.topk_checksum", "0xdeadbeef")], False),
    ("docs_at_4_cores_at_least_1_core", "4-core wand scores fewer docs",
     "parallelism", [put("sweep.6.docs_scored", 0)], False),
    ("docs_at_4_cores_at_least_1_core", "no 4-core cells", "parallelism",
     [drop(f"sweep.{i}") for i in (10, 6, 2)], False),
    ("frontier_4_cores_wins_somewhere", "4 cores loses everywhere",
     "parallelism", [frontier(1.2, 1.2)], False),
    (0, "energy win, p99 0.5% worse", "parallelism",
     [frontier(1.005, 0.5)], False),
    ("frontier_4_cores_wins_somewhere", "energy win, p99 5% worse",
     "parallelism", [frontier(1.05, 0.5)], False),
    (0, "p99 win, energy 0.5% worse", "parallelism",
     [frontier(0.9, 1.005)], False),
    ("frontier_4_cores_wins_somewhere", "no 4-core frontier rows",
     "parallelism", [drop("frontier.3"), drop("frontier.2")], False),
    (2, "cell lacks topk_checksum", "parallelism",
     [drop("sweep.0.topk_checksum")], False),
    (2, "timed is a string", "parallelism",
     [put("config.timed", "yes")], False),

    (0, "committed", "paper", [], False),
    ("claims_hold_except_known_failures", "unlisted claim fails", "paper",
     [flip_claim(listed=False, holds=False)], False),
    ("known_failures_still_fail", "listed claim holds", "paper",
     [flip_claim(listed=True, holds=True)], False),
    ("known_failures_still_fail", "listed claim gone", "paper",
     [flip_claim(listed=True, holds=None)], False),
    (2, "holds is a string", "paper", [put("claims.0.holds", "yes")], False),
    (2, "--timed on a kind without wall clock", "paper", [], True),
]


def self_test():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    committed = {kind: os.path.join(root, f"BENCH_{kind}.json")
                 for kind in SCHEMAS}
    broken_rows = set()
    with tempfile.TemporaryDirectory(prefix="check_bench_") as tmp:
        for i, (expected, label, kind, mutations, timed) in enumerate(CASES):
            path = os.path.join(tmp, f"case{i}.json")
            if kind is not None:
                with open(committed[kind]) as handle:
                    doc = json.load(handle)
                for mutate in mutations:
                    replaced = mutate(doc)
                    doc = doc if replaced is None else replaced
                with open(path, "w") as handle:
                    handle.write(doc if isinstance(doc, str)
                                 else json.dumps(doc))
            try:
                ids = [row_id for row_id, _ in check(path, timed)]
                got = ids[0] if len(ids) == 1 else (ids or 0)
            except BadInput:
                got = 2
            tag = f"{kind} / {label}{' --timed' if timed else ''}"
            if got != expected:
                print(f"check_bench self-test: FAIL: {tag}: got {got}, "
                      f"expected {expected}", file=sys.stderr)
                return 1
            broken_rows.add(expected)
            print(f"check_bench self-test: ok: {tag} -> {expected}")

        # The CLI folds per-file outcomes into the worst exit code.
        files = list(committed.values())
        missing = os.path.join(tmp, "absent.json")
        regressed = os.path.join(tmp, "case%d.json" % next(
            i for i, case in enumerate(CASES) if isinstance(case[0], str)))
        for argv, expected in ((files, 0), (files + [regressed], 1),
                               ([missing, regressed] + files, 2)):
            if main(argv) != expected:
                print(f"check_bench self-test: FAIL: main({len(argv)} files)"
                      f" did not exit {expected}", file=sys.stderr)
                return 1

    unbroken = [row_id for _, row_id, _, _ in ROWS
                if row_id not in broken_rows]
    if unbroken:
        print(f"check_bench self-test: FAIL: no case breaks {unbroken}",
              file=sys.stderr)
        return 1
    print(f"check_bench self-test: all {len(CASES)} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
