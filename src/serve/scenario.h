/**
 * @file
 * The scenario layer: multi-tenant SLO workloads composed into one
 * deterministically merged arrival stream, optionally layered over a
 * hostile cluster shape (straggler ISNs, mid-run failures,
 * heterogeneous frequency ladders).
 *
 * A scenario binds each tenant to a trace flavor, an SLO class
 * (deadline, budget share, evaluation percentile) and an arrival
 * process (serve/arrivals.h). The harness shapes each tenant's base
 * trace under its private seed, stamps the tenant index on every
 * query, and merges the streams in a FIXED total order — ascending
 * (arrivalSeconds, tenant, original query id) under a named
 * comparator — so the merged trace is a pure function of the spec
 * list. No hash-container iteration, no wall clock, no tie broken by
 * allocation order: the measurement stream is byte-identical at any
 * host thread count (tests/test_parallel.cc pins this).
 *
 * Hostile shapes ride in ClusterShape (sim/cluster.h): per-ISN
 * service-rate multipliers model stragglers, DownWindows model
 * mid-run failure/recovery, per-ISN frequency caps model
 * heterogeneous ladders. The harness applies the shape before serving
 * and clears it after, so scenario runs never leak state into replay
 * mode.
 */

#ifndef COTTAGE_SERVE_SCENARIO_H
#define COTTAGE_SERVE_SCENARIO_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "serve/arrivals.h"
#include "serve/serving.h"
#include "sim/cluster.h"
#include "text/trace.h"

namespace cottage {

/** One tenant of a scenario: workload, contract, arrival process. */
struct TenantSpec
{
    /** Stable tenant name (used in metrics and rollup JSON). */
    std::string name = "tenant";

    /** Which base trace flavor the tenant replays. */
    TraceFlavor flavor = TraceFlavor::Wikipedia;

    /** The tenant's SLO class, applied per query by the front-end. */
    TenantSlo slo;

    /** The tenant's arrival process (private seed). */
    ArrivalSpec arrivals;
};

/** A named multi-tenant workload over an optionally hostile cluster. */
struct ScenarioConfig
{
    std::string name = "scenario";

    /**
     * True when the scenario stresses the cluster beyond a stationary
     * mixed load — a flash crowd, a straggler ISN, a failure window.
     * The bench gate (scripts/check_bench.py) requires
     * Cottage to beat the slo-dvfs baseline on at least one hostile
     * shape.
     */
    bool hostile = false;

    /** Tenants, indexed by Query::tenant. */
    std::vector<TenantSpec> tenants;

    /** Per-ISN hostile shape; empty leaves the cluster pristine. */
    ClusterShape shape;
};

/** A merged multi-tenant arrival stream plus its provenance. */
struct MergedArrivals
{
    /**
     * The merged trace: every query stamped with its tenant, ids
     * re-stamped to merged positions, arrivals ascending.
     */
    QueryTrace trace;

    /**
     * Provenance parallel to trace: (tenant index, position in that
     * tenant's shaped trace). The harness uses it to assemble merged
     * ground truth from the per-flavor truth caches — shaped traces
     * keep base-trace positions, so truth stays aligned.
     */
    std::vector<std::pair<uint32_t, std::size_t>> sources;
};

/**
 * Merge per-tenant shaped traces (index = tenant) into one stream
 * ordered by ascending (arrivalSeconds, tenant, original id). The
 * order is total — (tenant, id) is unique — so the merge is
 * deterministic even when arrival clocks collide exactly.
 */
MergedArrivals
mergeTenantArrivals(const std::vector<QueryTrace> &perTenant);

/**
 * Names of the built-in scenarios, in fixed presentation order:
 * mixed_poisson, diurnal, flash_crowd, straggler_isn, failover.
 */
const std::vector<std::string> &scenarioNames();

/**
 * Build a built-in scenario by name; fatal on an unknown name.
 * @p qpsScale multiplies every tenant's baseline rate so benches can
 * match the offered load to the harness size (presets are tuned for
 * the test-scale 8-shard stack at scale 1).
 */
ScenarioConfig scenarioByName(const std::string &name,
                              double qpsScale = 1.0);

} // namespace cottage

#endif // COTTAGE_SERVE_SCENARIO_H
