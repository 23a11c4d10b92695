/**
 * @file
 * Aggregation of per-query measurements into the summary rows the
 * paper's evaluation figures report: average / tail latency, P@10,
 * selected ISNs, C_RES, power.
 */

#ifndef COTTAGE_METRICS_RUN_STATS_H
#define COTTAGE_METRICS_RUN_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query_plan.h"
#include "stats/summary.h"

namespace cottage {

/** One (policy, trace) experiment's aggregate results. */
struct RunSummary
{
    std::string policy;
    std::string trace;
    std::size_t queries = 0;

    double avgLatencySeconds = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
    double maxLatencySeconds = 0.0;

    /** Mean P@K against the exhaustive ground truth. */
    double avgPrecision = 0.0;

    /** Mean binary NDCG@K (rank-aware quality). */
    double avgNdcg = 0.0;

    /** Mean ISNs dispatched per query (Fig. 13). */
    double avgIsnsUsed = 0.0;

    /** Mean ISNs boosted above the default frequency per query. */
    double avgIsnsBoosted = 0.0;

    /** Mean documents scored per query across used ISNs (C_RES). */
    double avgDocsSearched = 0.0;

    /** Mean candidates seeked past per query (pruning savings). */
    double avgDocsSkipped = 0.0;

    /** Mean posting blocks decoded per query (block-max evaluators). */
    double avgBlocksDecoded = 0.0;

    /** Mean posting blocks skipped undecoded per query. */
    double avgBlocksSkipped = 0.0;

    /** Responses truncated at the budget across the whole run. */
    uint64_t truncatedResponses = 0;

    /**
     * Truncated responses that still contributed a non-empty anytime
     * partial top-K (equals truncatedResponses minus responses whose
     * budget share allowed zero documents).
     */
    uint64_t partialResponses = 0;

    /**
     * Mean per-query completed service fraction across used ISNs
     * (1.0 = every response ran to completion).
     */
    double avgCompletedFraction = 0.0;

    /** Mean budget over the queries that had one (0 if none did). */
    double avgBudgetSeconds = 0.0;

    /** Cluster busy energy over the replay window, joules. */
    double energyJoules = 0.0;

    /** Replay window length, seconds. */
    double durationSeconds = 0.0;

    /** Average package power over the window (idle + busy), watts. */
    double avgPowerWatts = 0.0;
};

/**
 * summarizeRun as measurements arrive: add() each in arrival order,
 * then finish() — byte-identical, without a second copy of the stream.
 */
class RunAccumulator
{
  public:
    /** @param expected Queries the run will add (a reserve hint). */
    explicit RunAccumulator(std::size_t expected = 0);

    void add(const QueryMeasurement &m);

    /** The summary so far; energy/duration/power as summarizeRun. */
    RunSummary finish(const std::string &policy, const std::string &trace);

    /** The latency series; sorted ascending once finish() has run. */
    const std::vector<double> &latencies() const { return latencies_; }

  private:
    std::vector<double> latencies_;
    RunningStat precision_;
    RunningStat ndcg_;
    RunningStat isnsUsed_;
    RunningStat isnsBoosted_;
    RunningStat docsSearched_;
    RunningStat docsSkipped_;
    RunningStat blocksDecoded_;
    RunningStat blocksSkipped_;
    RunningStat budgets_;
    RunningStat completedFraction_;
    uint64_t truncatedResponses_ = 0;
    uint64_t partialResponses_ = 0;
};

/**
 * Fold a run's measurements into a summary. Energy/duration/power
 * fields are filled by the caller (they live in the cluster, not the
 * per-query records).
 */
RunSummary summarizeRun(const std::string &policy, const std::string &trace,
                        const std::vector<QueryMeasurement> &measurements);

/** Latency series (seconds) of a run, in arrival order. */
std::vector<double>
latencySeries(const std::vector<QueryMeasurement> &measurements);

/**
 * Serialize a summary as a single-line JSON object (for scripting and
 * plotting pipelines). Keys are stable snake_case names.
 */
std::string toJson(const RunSummary &summary);

} // namespace cottage

#endif // COTTAGE_METRICS_RUN_STATS_H
