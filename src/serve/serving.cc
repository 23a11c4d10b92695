#include "serve/serving.h"

#include "stats/summary.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cottage {

const char *
servingOutcomeName(ServingOutcome outcome)
{
    switch (outcome) {
    case ServingOutcome::CacheHit:
        return "cache_hit";
    case ServingOutcome::Served:
        return "served";
    case ServingOutcome::Degraded:
        return "degraded";
    case ServingOutcome::Shed:
        return "shed";
    }
    return "unknown";
}

ServingFrontEnd::ServingFrontEnd(DistributedEngine &engine,
                                 ServingConfig config)
    : engine_(&engine), config_(config),
      resultCache_(config.resultCacheCapacity),
      statsCache_(engine.index(), config.statsCacheCapacity,
                  config.statsFetchSeconds)
{
    COTTAGE_CHECK_MSG(config_.cacheHitLatencySeconds >= 0.0,
                      "cache hit latency must be non-negative");
    for (const TenantSlo &slo : config_.tenants) {
        COTTAGE_CHECK_MSG(slo.budgetShare > 0.0,
                          "tenant budget share must be positive");
        COTTAGE_CHECK_MSG(slo.latencyPercentile > 0.0 &&
                              slo.latencyPercentile <= 1.0,
                          "SLO percentile must lie in (0, 1]");
        COTTAGE_CHECK_MSG(slo.deadlineSeconds > 0.0,
                          "tenant deadline must be positive");
    }
}

namespace {

/**
 * A response is cacheable only when nothing about it was shaped by the
 * instantaneous load: no admission interference, every participant
 * completed in full, nothing truncated. That makes a later hit
 * byte-identical to re-executing the query on an unloaded cluster.
 */
bool
cacheable(const QueryMeasurement &m, const AdmissionDecision &decision)
{
    return !decision.degraded && decision.isnsShed == 0 &&
           m.isnsUsed > 0 && m.isnsCompleted == m.isnsUsed &&
           m.partialResponses == 0;
}

} // namespace

ServingSummary
ServingFrontEnd::serve(Policy &policy, const QueryTrace &trace,
                       const std::vector<std::vector<ScoredDoc>> &groundTruth,
                       MetricsRegistry *metrics)
{
    COTTAGE_CHECK_MSG(groundTruth.size() >= trace.size(),
                      "ground truth must cover the trace");

    engine_->cluster().reset();
    policy.reset();
    resultCache_.reset();
    statsCache_.reset();
    measurements_.clear();
    measurements_.reserve(trace.size());

    MetricsRegistry *const previousMetrics = engine_->metrics();
    if (metrics != nullptr)
        engine_->setMetrics(metrics);

    ServingSummary summary;
    summary.offered = trace.size();
    RunAccumulator responses(trace.size());

    // Per-tenant accumulation (multi-tenant scenarios only): the same
    // RunAccumulator as the whole run, plus the outcome counters a
    // TenantSummary adds to it.
    const bool multiTenant = !config_.tenants.empty();
    struct TenantAccumulator
    {
        RunAccumulator run;
        uint64_t cacheHits = 0;
        uint64_t degraded = 0;
        uint64_t shed = 0;
        uint64_t inDeadline = 0;
        double energyJoules = 0.0;
    };
    std::vector<TenantAccumulator> tenantAccs(config_.tenants.size());

    // Replay determinism contract: queries advance the cluster-sim
    // strictly in arrival order (plans and admission read backlog
    // state left by earlier queries), while each execute() fans its
    // per-shard retrieval out over the pool. Parallelism lives entirely
    // inside the pure retrieval phase, so the measured stream is
    // bit-identical at any thread count (tests/test_parallel.cc).
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Query &query = trace.query(i);
        uint32_t tenantIndex = 0;
        if (multiTenant) {
            COTTAGE_CHECK_MSG(query.tenant < config_.tenants.size(),
                              "query tenant out of range");
            tenantIndex = query.tenant;
        }
        ServingMeasurement record;
        record.measurement = QueryMeasurement(query);
        QueryMeasurement &m = record.measurement;
        // Busy energy this query's execution drew (zero unless it ran).
        double energyJoules = 0.0;

        std::string key;
        const CachedResult *hit = nullptr;
        if (config_.enabled) {
            key = resultCacheKey(query);
            hit = resultCache_.find(key);
        }
        if (hit != nullptr) {
            m.latencySeconds = config_.cacheHitLatencySeconds;
            m.precisionAtK = hit->precisionAtK;
            m.ndcgAtK = hit->ndcgAtK;
            m.results = hit->results;
            record.outcome = ServingOutcome::CacheHit;
        } else {
            QueryPlan plan = policy.plan(query, *engine_);
            if (multiTenant) {
                // Apply the tenant's SLO class: scale whatever finite
                // budget the policy picked by the tenant's share, then
                // cap at the deadline (imposing it on no-deadline
                // plans — the contract binds regardless of policy).
                const TenantSlo &slo = config_.tenants[tenantIndex];
                if (plan.budgetSeconds != noBudget)
                    plan.budgetSeconds *= slo.budgetShare;
                if (slo.deadlineSeconds != noBudget &&
                    plan.budgetSeconds > slo.deadlineSeconds)
                    plan.budgetSeconds = slo.deadlineSeconds;
            }
            AdmissionDecision decision;
            if (config_.enabled) {
                plan.decisionOverheadSeconds +=
                    statsCache_.probe(query.terms);
                decision = applyAdmission(
                    plan, engine_->cluster(),
                    engine_->dispatchSeconds(query, plan),
                    config_.admission);
                record.worstBacklogSeconds = decision.worstBacklogSeconds;
                record.isnsShed = decision.isnsShed;
                record.isnsUnavailable = decision.isnsUnavailable;
            }

            if (decision.shedQuery) {
                m.latencySeconds = engine_->rejectLatencySeconds(plan);
                record.outcome = ServingOutcome::Shed;
            } else {
                const double energyBefore =
                    engine_->cluster().totalEnergyJoules();
                record.measurement =
                    engine_->execute(query, plan, groundTruth[i]);
                policy.observe(record.measurement);
                energyJoules =
                    engine_->cluster().totalEnergyJoules() - energyBefore;
                record.outcome = decision.degraded
                                     ? ServingOutcome::Degraded
                                     : ServingOutcome::Served;
                if (config_.enabled && cacheable(m, decision))
                    resultCache_.insert(
                        key, CachedResult{m.results, m.precisionAtK,
                                          m.ndcgAtK});
            }
        }

        TenantAccumulator *acc =
            multiTenant ? &tenantAccs[tenantIndex] : nullptr;
        summary.isnsShed += record.isnsShed;
        summary.isnsUnavailable += record.isnsUnavailable;
        const char *outcomeCounter = nullptr;
        switch (record.outcome) {
        case ServingOutcome::CacheHit:
            ++summary.cacheHits;
            if (acc != nullptr)
                ++acc->cacheHits;
            outcomeCounter = "serve_cache_hits";
            break;
        case ServingOutcome::Degraded:
            ++summary.degraded;
            if (acc != nullptr)
                ++acc->degraded;
            outcomeCounter = "serve_degraded";
            break;
        case ServingOutcome::Shed:
            ++summary.shedQueries;
            if (acc != nullptr)
                ++acc->shed;
            outcomeCounter = "serve_shed_queries";
            break;
        case ServingOutcome::Served:
            break;
        }
        if (metrics != nullptr) {
            if (outcomeCounter != nullptr)
                metrics->incr(outcomeCounter);
            if (record.isnsShed > 0)
                metrics->incr("serve_isns_shed", record.isnsShed);
            if (record.isnsUnavailable > 0)
                metrics->incr("serve_isns_unavailable",
                              record.isnsUnavailable);
            if (metrics->windowSeconds() > 0.0)
                metrics->addWindowSample(query.arrivalSeconds,
                                         energyJoules);
        }

        if (acc != nullptr) {
            const TenantSlo &slo = config_.tenants[tenantIndex];
            acc->run.add(m);
            acc->energyJoules += energyJoules;
            // A shed query never meets the SLO; an answered one meets
            // it when it beat the deadline (trivially, with none set).
            if (record.outcome != ServingOutcome::Shed &&
                m.latencySeconds <= slo.deadlineSeconds)
                ++acc->inDeadline;
            if (metrics != nullptr) {
                metrics->incr("serve_tenant_offered_" + slo.name);
                if (record.outcome == ServingOutcome::Shed)
                    metrics->incr("serve_tenant_shed_" + slo.name);
                metrics
                    ->histogram("serve_tenant_latency_s_" + slo.name,
                                1e-4, 10.0, 40)
                    .add(m.latencySeconds);
            }
        }
        responses.add(m);
        measurements_.push_back(std::move(record));
    }

    summary.completed = summary.offered - summary.shedQueries;
    summary.shedRate =
        summary.offered == 0
            ? 0.0
            : static_cast<double>(summary.shedQueries) /
                  static_cast<double>(summary.offered);
    summary.resultCacheHits = resultCache_.hits();
    summary.resultCacheMisses = resultCache_.misses();
    summary.resultCacheEvictions = resultCache_.evictions();
    summary.resultCacheHitRate = resultCache_.hitRate();
    summary.statsCacheHits = statsCache_.hits();
    summary.statsCacheMisses = statsCache_.misses();
    summary.statsCacheEvictions = statsCache_.evictions();
    summary.statsCacheHitRate = statsCache_.hitRate();

    const ClusterSim &cluster = engine_->cluster();
    for (ShardId id = 0; id < cluster.numIsns(); ++id)
        summary.zeroProgressResponses +=
            cluster.isn(id).requestsZeroProgress();

    summary.run = responses.finish(policy.name(), trace.name());
    summary.run.energyJoules = cluster.totalEnergyJoules();
    // The run lasts until the last ISN drains, not just until the last
    // arrival.
    double window = trace.durationSeconds();
    for (ShardId id = 0; id < cluster.numIsns(); ++id) {
        const double drain = cluster.isn(id).busyUntilSeconds();
        if (drain > window)
            window = drain;
    }
    summary.run.durationSeconds = window;
    if (summary.run.durationSeconds > 0.0) {
        summary.run.avgPowerWatts =
            cluster.averagePowerWatts(summary.run.durationSeconds);
        summary.offeredQps = static_cast<double>(summary.offered) /
                             summary.run.durationSeconds;
        summary.achievedQps = static_cast<double>(summary.completed) /
                              summary.run.durationSeconds;
    }

    if (multiTenant) {
        summary.tenants.reserve(config_.tenants.size());
        for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
            const TenantSlo &slo = config_.tenants[t];
            TenantAccumulator &acc = tenantAccs[t];
            const RunSummary run = acc.run.finish(policy.name(), trace.name());
            // finish() sorted the series; p99.9 and the SLO's own
            // percentile come from it, as RunSummary does not carry them.
            const std::vector<double> &sorted = acc.run.latencies();
            TenantSummary rollup;
            rollup.tenant = slo.name;
            rollup.deadlineSeconds = slo.deadlineSeconds;
            rollup.latencyPercentile = slo.latencyPercentile;
            rollup.offered = run.queries;
            rollup.completed = run.queries - acc.shed;
            rollup.cacheHits = acc.cacheHits;
            rollup.degraded = acc.degraded;
            rollup.shedQueries = acc.shed;
            rollup.shedRate =
                run.queries == 0
                    ? 0.0
                    : static_cast<double>(acc.shed) /
                          static_cast<double>(run.queries);
            rollup.avgLatencySeconds = run.avgLatencySeconds;
            rollup.p50LatencySeconds = run.p50LatencySeconds;
            rollup.p95LatencySeconds = run.p95LatencySeconds;
            rollup.p99LatencySeconds = run.p99LatencySeconds;
            rollup.p999LatencySeconds = percentileSorted(sorted, 0.999);
            rollup.maxLatencySeconds = run.maxLatencySeconds;
            rollup.sloLatencySeconds =
                percentileSorted(sorted, slo.latencyPercentile);
            rollup.sloAttainment =
                run.queries == 0
                    ? 0.0
                    : static_cast<double>(acc.inDeadline) /
                          static_cast<double>(run.queries);
            rollup.sloMet = slo.deadlineSeconds == noBudget ||
                            rollup.sloLatencySeconds <=
                                slo.deadlineSeconds;
            rollup.avgPrecision = run.avgPrecision;
            rollup.avgNdcg = run.avgNdcg;
            rollup.energyJoules = acc.energyJoules;
            summary.tenants.push_back(std::move(rollup));
        }
    }

    // The front-end's own counters exist only while it is enabled: a
    // replay's metrics carry the engine's counters alone.
    if (metrics != nullptr) {
        if (config_.enabled) {
            metrics->incr("serve_offered", summary.offered);
            metrics->incr("serve_completed", summary.completed);
            for (const TenantSummary &tenant : summary.tenants) {
                metrics->incr("serve_tenant_completed_" + tenant.tenant,
                              tenant.completed);
                metrics->incr("serve_tenant_degraded_" + tenant.tenant,
                              tenant.degraded);
                metrics->incr("serve_tenant_cache_hits_" + tenant.tenant,
                              tenant.cacheHits);
            }
            metrics->incr("serve_result_cache_hits",
                          summary.resultCacheHits);
            metrics->incr("serve_result_cache_misses",
                          summary.resultCacheMisses);
            metrics->incr("serve_result_cache_evictions",
                          summary.resultCacheEvictions);
            metrics->incr("serve_stats_cache_hits", summary.statsCacheHits);
            metrics->incr("serve_stats_cache_misses",
                          summary.statsCacheMisses);
            metrics->incr("serve_stats_cache_evictions",
                          summary.statsCacheEvictions);
            metrics->incr("serve_zero_progress_responses",
                          summary.zeroProgressResponses);
        }
        engine_->setMetrics(previousMetrics);
    }
    return summary;
}

std::string
toJson(const ServingSummary &s)
{
    JsonObject json;
    json.text("policy", s.run.policy)
        .text("trace", s.run.trace)
        .number("offered", s.offered)
        .number("completed", s.completed)
        .number("cache_hits", s.cacheHits)
        .number("degraded", s.degraded)
        .number("shed_queries", s.shedQueries)
        .number("isns_shed", s.isnsShed)
        .number("isns_unavailable", s.isnsUnavailable)
        .number("shed_rate", s.shedRate)
        .number("zero_progress_responses", s.zeroProgressResponses)
        .number("result_cache_hits", s.resultCacheHits)
        .number("result_cache_misses", s.resultCacheMisses)
        .number("result_cache_evictions", s.resultCacheEvictions)
        .number("result_cache_hit_rate", s.resultCacheHitRate)
        .number("stats_cache_hits", s.statsCacheHits)
        .number("stats_cache_misses", s.statsCacheMisses)
        .number("stats_cache_evictions", s.statsCacheEvictions)
        .number("stats_cache_hit_rate", s.statsCacheHitRate)
        .number("offered_qps", s.offeredQps)
        .number("achieved_qps", s.achievedQps)
        .number("avg_latency_s", s.run.avgLatencySeconds)
        .number("p50_latency_s", s.run.p50LatencySeconds)
        .number("p95_latency_s", s.run.p95LatencySeconds)
        .number("p99_latency_s", s.run.p99LatencySeconds)
        .number("max_latency_s", s.run.maxLatencySeconds)
        .number("avg_precision", s.run.avgPrecision)
        .number("avg_ndcg", s.run.avgNdcg)
        .number("avg_completed_fraction", s.run.avgCompletedFraction)
        .number("truncated_responses", s.run.truncatedResponses)
        .number("partial_responses", s.run.partialResponses)
        .number("energy_j", s.run.energyJoules)
        .number("duration_s", s.run.durationSeconds)
        .number("avg_power_w", s.run.avgPowerWatts);
    // Only multi-tenant runs carry rollups; single-tenant serving JSON
    // stays byte-identical to what it was before tenants existed.
    if (!s.tenants.empty()) {
        std::string tenants = "[";
        for (const TenantSummary &tenant : s.tenants) {
            if (tenants.size() > 1)
                tenants += ",";
            tenants += toJson(tenant);
        }
        json.raw("tenants", tenants + "]");
    }
    return json.str();
}

std::string
toJson(const TenantSummary &t)
{
    return JsonObject()
        .text("tenant", t.tenant)
        .raw("deadline_s", t.deadlineSeconds == noBudget
                               ? "null"
                               : jsonNumber(t.deadlineSeconds))
        .number("slo_percentile", t.latencyPercentile)
        .number("offered", t.offered)
        .number("completed", t.completed)
        .number("cache_hits", t.cacheHits)
        .number("degraded", t.degraded)
        .number("shed_queries", t.shedQueries)
        .number("shed_rate", t.shedRate)
        .number("avg_latency_s", t.avgLatencySeconds)
        .number("p50_latency_s", t.p50LatencySeconds)
        .number("p95_latency_s", t.p95LatencySeconds)
        .number("p99_latency_s", t.p99LatencySeconds)
        .number("p999_latency_s", t.p999LatencySeconds)
        .number("max_latency_s", t.maxLatencySeconds)
        .number("slo_latency_s", t.sloLatencySeconds)
        .number("slo_attainment", t.sloAttainment)
        .raw("slo_met", t.sloMet ? "true" : "false")
        .number("avg_precision", t.avgPrecision)
        .number("avg_ndcg", t.avgNdcg)
        .number("energy_j", t.energyJoules)
        .str();
}

} // namespace cottage
