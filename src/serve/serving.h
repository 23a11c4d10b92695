/**
 * @file
 * The online serving front-end: admission control, result/term-stats
 * caching and load shedding wrapped around DistributedEngine.
 *
 * ServingFrontEnd::serve is the harness's only per-query loop: every
 * run — plain replay, a serving sweep, a multi-tenant scenario — is a
 * call to it. With ServingConfig::enabled off (Experiment::run, or
 * runServing on a config that leaves it off) the front-end is
 * transparent: no result-cache probe, no term-stats charge, no
 * admission ladder, so every query is planned, executed and observed
 * in arrival order however deep the queues get — the paper's
 * open-loop replay. Enabled, it models what a production aggregator
 * does instead: probe a merged-result cache, consult (and charge for)
 * term-stats fetches, let the policy plan, then run the admission
 * ladder — degrade budgets first, shed ISNs next, reject the query
 * outright last — and only then advance the cluster. The
 * sustained-throughput bench sweeps this loop over rising QPS to find
 * the latency/QPS/power knee.
 *
 * Hard contract: with the front-end off, every measured byte equals a
 * bare plan -> execute -> observe loop over the trace, whatever the
 * other serving knobs are set to (tests/test_serve.cc pins this).
 * Enabled, all decisions derive from simulated time, cluster state and
 * explicit seeds — bit-identical at any host thread count.
 */

#ifndef COTTAGE_SERVE_SERVING_H
#define COTTAGE_SERVE_SERVING_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/distributed_engine.h"
#include "metrics/run_stats.h"
#include "policy/policy.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "serve/stats_cache.h"
#include "text/trace.h"

namespace cottage {

/**
 * One tenant's SLO class as the serving loop applies it. The deadline
 * is both the latency contract the tenant is evaluated against and a
 * cap imposed on the plan's budget; the budget share scales whatever
 * finite budget the policy picked (a premium tenant buys headroom, a
 * best-effort tenant donates it); the percentile is the SLO's
 * evaluator — the tail the contract is judged at.
 */
struct TenantSlo
{
    std::string name = "default";

    /** SLO latency target; noBudget = no deadline contract. */
    double deadlineSeconds = noBudget;

    /** Multiplier applied to finite plan budgets (positive). */
    double budgetShare = 1.0;

    /** Latency percentile the SLO is evaluated at. */
    double latencyPercentile = 0.99;
};

/** Per-tenant aggregate of one serving run. */
struct TenantSummary
{
    std::string tenant;

    /** Echo of the tenant's SLO class. */
    double deadlineSeconds = noBudget;
    double latencyPercentile = 0.99;

    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t cacheHits = 0;
    uint64_t degraded = 0;
    uint64_t shedQueries = 0;
    double shedRate = 0.0;

    double avgLatencySeconds = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
    double p999LatencySeconds = 0.0;
    double maxLatencySeconds = 0.0;

    /** Latency at the SLO's evaluation percentile. */
    double sloLatencySeconds = 0.0;

    /**
     * Fraction of offered queries answered within the deadline (shed
     * queries always miss; with no deadline this is the completion
     * rate).
     */
    double sloAttainment = 0.0;

    /** sloLatencySeconds <= deadline (true when no deadline is set). */
    bool sloMet = true;

    double avgPrecision = 0.0;
    double avgNdcg = 0.0;

    /** Busy energy the tenant's executions drew, joules. */
    double energyJoules = 0.0;
};

/** Serving-mode knobs (harness flags --serve, --qps, --shed-*, ...). */
struct ServingConfig
{
    /**
     * Off (the default) makes the front-end transparent: serve() then
     * replays the trace exactly as Experiment::run does, with no
     * cache probe, term-stats charge or admission decision, whatever
     * the cache and admission knobs below say. Experiment::run always
     * serves with it off; runServing honours it; runScenario turns it
     * on.
     */
    bool enabled = false;

    /** Shed/degrade ladder thresholds. */
    AdmissionConfig admission;

    /** Merged-result cache entries (--result-cache; 0 disables). */
    std::size_t resultCacheCapacity = 0;

    /** Term-stats / hot-postings cache entries (--postings-cache). */
    std::size_t statsCacheCapacity = 0;

    /** Client-observed latency of a result-cache hit. */
    double cacheHitLatencySeconds = 100e-6;

    /** Decision-overhead penalty per term-stats cache miss. */
    double statsFetchSeconds = 200e-6;

    /**
     * Seed of the Poisson arrival re-timing (serve/arrivals.h) the
     * harness applies when sweeping offered QPS. Distinct from the
     * trace seed so re-timed arrivals never correlate with the base
     * trace's own arrival process.
     */
    uint64_t retimeSeed = 1013904223;

    /**
     * Multi-tenant SLO classes, indexed by Query::tenant. Empty (the
     * default) keeps the single-tenant loop byte-identical: no SLO is
     * applied, no per-tenant rollups are built. Non-empty, every
     * query's tenant index must be in range.
     */
    std::vector<TenantSlo> tenants;
};

/** How the front-end disposed of one query. */
enum class ServingOutcome {
    /** Answered from the merged-result cache; the cluster never moved. */
    CacheHit,

    /** Executed under the policy's plan, untouched by admission. */
    Served,

    /** Executed, but with the budget tightened by overload. */
    Degraded,

    /** Rejected outright: every participant was over the shed line. */
    Shed,
};

/** Stable name of an outcome ("cache_hit", "served", ...). */
const char *servingOutcomeName(ServingOutcome outcome);

/** One query's serving-mode record. */
struct ServingMeasurement
{
    ServingOutcome outcome = ServingOutcome::Served;

    /**
     * The response as the client saw it. Cache hits carry the cached
     * ranking at cache-hit latency with zero ISNs used; shed queries
     * carry an empty ranking at reject latency.
     */
    QueryMeasurement measurement;

    /** Worst backlog among the ISNs that stayed in the plan. */
    double worstBacklogSeconds = 0.0;

    /** Participants dropped from this query's plan by admission. */
    uint32_t isnsShed = 0;

    /** Participants dropped because their ISN was down at dispatch. */
    uint32_t isnsUnavailable = 0;
};

/** One serving run's aggregate results. */
struct ServingSummary
{
    /** Latency/quality/energy over ALL responses (shed ones score 0). */
    RunSummary run;

    uint64_t offered = 0;

    /** Responses that carried results (executions + cache hits). */
    uint64_t completed = 0;

    uint64_t cacheHits = 0;
    uint64_t degraded = 0;
    uint64_t shedQueries = 0;

    /** Individual participants dropped across all plans. */
    uint64_t isnsShed = 0;

    /** Participants dropped across all plans for being down. */
    uint64_t isnsUnavailable = 0;

    /** shedQueries / offered. */
    double shedRate = 0.0;

    /** Truncated ISN responses that performed zero work (satellite 1). */
    uint64_t zeroProgressResponses = 0;

    uint64_t resultCacheHits = 0;
    uint64_t resultCacheMisses = 0;
    uint64_t resultCacheEvictions = 0;
    double resultCacheHitRate = 0.0;

    uint64_t statsCacheHits = 0;
    uint64_t statsCacheMisses = 0;
    uint64_t statsCacheEvictions = 0;
    double statsCacheHitRate = 0.0;

    /** offered / duration. */
    double offeredQps = 0.0;

    /** completed / duration. */
    double achievedQps = 0.0;

    /**
     * Per-tenant rollups, parallel to ServingConfig::tenants (empty
     * outside multi-tenant runs — the JSON export then omits the
     * "tenants" key entirely, keeping single-tenant output unchanged).
     */
    std::vector<TenantSummary> tenants;
};

/** One-line JSON object (keys documented in EXPERIMENTS.md). */
std::string toJson(const ServingSummary &summary);

/** One tenant rollup as a JSON object (nested under "tenants"). */
std::string toJson(const TenantSummary &tenant);

/** Admission + caches + shedding around a DistributedEngine. */
class ServingFrontEnd
{
  public:
    /** @param engine Borrowed; must outlive the front-end. */
    ServingFrontEnd(DistributedEngine &engine, ServingConfig config);

    /**
     * Serve a trace end to end, resetting cluster, policy and cache
     * state first. @p groundTruth is indexed by trace position (use
     * the same base trace the truth was computed from — retimeTrace
     * keeps positions aligned). When @p metrics is non-null it is
     * attached to the engine for the run's duration and additionally
     * receives the windowed power/QPS series and, while the front-end
     * is enabled, the serve_* counters.
     */
    ServingSummary serve(Policy &policy, const QueryTrace &trace,
                         const std::vector<std::vector<ScoredDoc>> &groundTruth,
                         MetricsRegistry *metrics = nullptr);

    /** Per-query records of the last serve() call, in arrival order. */
    const std::vector<ServingMeasurement> &measurements() const
    {
        return measurements_;
    }

    /** Move the last serve() call's records out, leaving none behind. */
    std::vector<ServingMeasurement> takeMeasurements()
    {
        return std::exchange(measurements_, {});
    }

    const ServingConfig &config() const { return config_; }
    const ResultCache &resultCache() const { return resultCache_; }
    const TermStatsCache &statsCache() const { return statsCache_; }

  private:
    DistributedEngine *engine_;
    ServingConfig config_;
    ResultCache resultCache_;
    TermStatsCache statsCache_;
    std::vector<ServingMeasurement> measurements_;
};

} // namespace cottage

#endif // COTTAGE_SERVE_SERVING_H
