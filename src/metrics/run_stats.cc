#include "metrics/run_stats.h"

#include <algorithm>
#include <functional>

#include "stats/summary.h"
#include "util/string_util.h"

namespace cottage {

RunAccumulator::RunAccumulator(std::size_t expected)
{
    latencies_.reserve(expected);
}

void
RunAccumulator::add(const QueryMeasurement &m)
{
    latencies_.push_back(m.latencySeconds);
    precision_.add(m.precisionAtK);
    ndcg_.add(m.ndcgAtK);
    isnsUsed_.add(static_cast<double>(m.isnsUsed));
    isnsBoosted_.add(static_cast<double>(m.isnsBoosted));
    docsSearched_.add(static_cast<double>(m.docsSearched));
    docsSkipped_.add(static_cast<double>(m.docsSkipped));
    blocksDecoded_.add(static_cast<double>(m.blocksDecoded));
    blocksSkipped_.add(static_cast<double>(m.blocksSkipped));
    completedFraction_.add(m.completedFraction);
    if (m.budgetSeconds != noBudget)
        budgets_.add(m.budgetSeconds);
    truncatedResponses_ += m.isnsUsed - m.isnsCompleted;
    partialResponses_ += m.partialResponses;
}

RunSummary
RunAccumulator::finish(const std::string &policy, const std::string &trace)
{
    RunSummary summary;
    summary.policy = policy;
    summary.trace = trace;
    summary.queries = latencies_.size();
    if (latencies_.empty())
        return summary;

    // Sorting in place keeps finish() repeatable: the mean sums the
    // sorted series, so it never depends on arrival order.
    std::vector<double> &latencies = latencies_;
    std::sort(latencies.begin(), latencies.end(), std::less<double>());
    summary.avgLatencySeconds = mean(latencies);
    summary.p50LatencySeconds = percentileSorted(latencies, 0.50);
    summary.p95LatencySeconds = percentileSorted(latencies, 0.95);
    summary.p99LatencySeconds = percentileSorted(latencies, 0.99);
    summary.maxLatencySeconds = latencies.back();
    summary.avgPrecision = precision_.mean();
    summary.avgNdcg = ndcg_.mean();
    summary.avgIsnsUsed = isnsUsed_.mean();
    summary.avgIsnsBoosted = isnsBoosted_.mean();
    summary.avgDocsSearched = docsSearched_.mean();
    summary.avgDocsSkipped = docsSkipped_.mean();
    summary.avgBlocksDecoded = blocksDecoded_.mean();
    summary.avgBlocksSkipped = blocksSkipped_.mean();
    summary.avgBudgetSeconds = budgets_.mean();
    summary.avgCompletedFraction = completedFraction_.mean();
    summary.truncatedResponses = truncatedResponses_;
    summary.partialResponses = partialResponses_;
    return summary;
}

RunSummary
summarizeRun(const std::string &policy, const std::string &trace,
             const std::vector<QueryMeasurement> &measurements)
{
    RunAccumulator accumulator(measurements.size());
    for (const QueryMeasurement &m : measurements)
        accumulator.add(m);
    return accumulator.finish(policy, trace);
}

std::string
toJson(const RunSummary &s)
{
    return JsonObject()
        .text("policy", s.policy)
        .text("trace", s.trace)
        .number("queries", uint64_t{s.queries})
        .number("avg_latency_s", s.avgLatencySeconds)
        .number("p50_latency_s", s.p50LatencySeconds)
        .number("p95_latency_s", s.p95LatencySeconds)
        .number("p99_latency_s", s.p99LatencySeconds)
        .number("max_latency_s", s.maxLatencySeconds)
        .number("avg_precision", s.avgPrecision)
        .number("avg_ndcg", s.avgNdcg)
        .number("avg_isns_used", s.avgIsnsUsed)
        .number("avg_isns_boosted", s.avgIsnsBoosted)
        .number("avg_docs_searched", s.avgDocsSearched)
        .number("avg_docs_skipped", s.avgDocsSkipped)
        .number("avg_blocks_decoded", s.avgBlocksDecoded)
        .number("avg_blocks_skipped", s.avgBlocksSkipped)
        .number("truncated_responses", s.truncatedResponses)
        .number("partial_responses", s.partialResponses)
        .number("avg_completed_fraction", s.avgCompletedFraction)
        .number("avg_budget_s", s.avgBudgetSeconds)
        .number("energy_j", s.energyJoules)
        .number("duration_s", s.durationSeconds)
        .number("avg_power_w", s.avgPowerWatts)
        .str();
}

std::vector<double>
latencySeries(const std::vector<QueryMeasurement> &measurements)
{
    std::vector<double> series;
    series.reserve(measurements.size());
    for (const QueryMeasurement &m : measurements)
        series.push_back(m.latencySeconds);
    return series;
}

} // namespace cottage
