/**
 * @file
 * End-to-end suite for anytime partial results: graceful quality
 * degradation under shrinking time budgets, and the determinism
 * contract extended to truncated replays — partial rankings and
 * prorated work accounting must be byte-identical at any host thread
 * count, for every evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/experiment.h"
#include "metrics/run_stats.h"
#include "policy/policy.h"
#include "util/thread_pool.h"

namespace cottage {
namespace {

/**
 * Minimal budget policy: dispatch to every ISN with one fixed relative
 * time budget. Isolates the engine's anytime path from the selection /
 * budget-assignment machinery under test elsewhere.
 */
class FixedBudgetPolicy : public Policy
{
  public:
    explicit FixedBudgetPolicy(double budgetSeconds)
        : budget_(budgetSeconds)
    {
    }

    const char *name() const override { return "fixed-budget"; }

    QueryPlan
    plan(const Query &, const DistributedEngine &engine) override
    {
        QueryPlan plan = QueryPlan::allIsns(engine.index().numShards());
        plan.budgetSeconds = budget_;
        return plan;
    }

  private:
    double budget_;
};

/** Append a value's raw bytes to a buffer. */
template <typename T>
void
appendBytes(std::string &buffer, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const char *raw = reinterpret_cast<const char *>(&value);
    buffer.append(raw, sizeof(T));
}

/** Bitwise serialization of a measurement stream (incl. partials). */
std::string
serializeMeasurements(const std::vector<QueryMeasurement> &measurements)
{
    std::string buffer;
    for (const QueryMeasurement &m : measurements) {
        appendBytes(buffer, m.id);
        appendBytes(buffer, m.arrivalSeconds);
        appendBytes(buffer, m.latencySeconds);
        appendBytes(buffer, m.budgetSeconds);
        appendBytes(buffer, m.isnsUsed);
        appendBytes(buffer, m.isnsCompleted);
        appendBytes(buffer, m.partialResponses);
        appendBytes(buffer, m.isnsBoosted);
        appendBytes(buffer, m.completedFraction);
        appendBytes(buffer, m.docsSearched);
        appendBytes(buffer, m.precisionAtK);
        appendBytes(buffer, m.ndcgAtK);
        for (const ScoredDoc &hit : m.results) {
            appendBytes(buffer, hit.doc);
            appendBytes(buffer, hit.score);
        }
    }
    return buffer;
}

/**
 * Small corpus with arrivals spread far apart (the cluster is idle at
 * almost every dispatch), so each query's completed fraction depends
 * only on its own budget — the clean regime for the monotonicity
 * property below.
 */
ExperimentConfig
anytimeConfig(const std::string &evaluator)
{
    ExperimentConfig config;
    config.corpus.numDocs = 2000;
    config.corpus.vocabSize = 6000;
    config.corpus.meanDocLength = 90.0;
    config.shards.numShards = 8;
    config.traceQueries = 60;
    config.arrivalQps = 2.0;
    config.evaluator = evaluator;
    // The default per-request base cost is calibrated for the 60K-doc
    // corpus; on this small one it would dominate service time and
    // compress every completed fraction toward the same value. Shrink
    // it so the sweep exercises a wide range of fractions.
    config.work.baseCycles = 5e4;
    return config;
}

/**
 * The typical full-response time: average unbudgeted latency minus the
 * fixed network components — the scale budgets are expressed in.
 */
double
fullServiceScale(Experiment &experiment)
{
    FixedBudgetPolicy unbudgeted(noBudget);
    const RunResult full =
        experiment.run(unbudgeted, TraceFlavor::Wikipedia);
    const NetworkModel &network = experiment.cluster().network();
    const double scale = full.summary.avgLatencySeconds -
                         network.rttSeconds - network.mergeSeconds;
    EXPECT_GT(scale, 0.0);
    return scale;
}

TEST(AnytimeBudgetSweep, QualityDegradesGracefullyWithBudget)
{
    Experiment experiment(anytimeConfig("maxscore"));
    const double scale = fullServiceScale(experiment);
    // The per-request fixed cost: any budget above it guarantees even
    // a shard with no matching documents responds (completed), so
    // every participant contributes a full or partial response.
    const double baseSeconds = WorkModel::secondsForCycles(
        experiment.config().work.baseCycles,
        experiment.cluster().ladder().defaultGhz());

    const std::vector<double> scales = {0.35, 0.5, 0.7, 1.0, 1.6};
    std::vector<RunSummary> summaries;
    for (double s : scales) {
        FixedBudgetPolicy policy(s * scale);
        const RunResult run =
            experiment.run(policy, TraceFlavor::Wikipedia);
        // No participating ISN goes silent: every response is either
        // complete or a non-empty anytime partial (budgets here all
        // clear the per-request base cost).
        ASSERT_GT(s * scale, baseSeconds) << "scale " << s;
        for (const QueryMeasurement &m : run.measurements)
            ASSERT_EQ(m.isnsCompleted + m.partialResponses, m.isnsUsed)
                << "scale " << s << " query " << m.id;
        summaries.push_back(run.summary);
    }

    // Tight budgets really truncate, generous ones mostly do not.
    EXPECT_GT(summaries.front().truncatedResponses, 0u);
    EXPECT_GT(summaries.front().partialResponses, 0u);
    EXPECT_LT(summaries.back().truncatedResponses,
              summaries.front().truncatedResponses);

    // Graceful degradation: average quality is monotonically
    // non-decreasing in the budget. Per query, a larger budget yields
    // a larger docs cap, hence a superset candidate pool whose merged
    // top-K can only gain ground-truth hits (every truth doc outranks
    // every non-truth doc under the shared (score, doc) order).
    for (std::size_t i = 1; i < summaries.size(); ++i) {
        EXPECT_GE(summaries[i].avgNdcg, summaries[i - 1].avgNdcg)
            << "budget scale " << scales[i];
        EXPECT_GE(summaries[i].avgPrecision, summaries[i - 1].avgPrecision)
            << "budget scale " << scales[i];
        EXPECT_GE(summaries[i].avgCompletedFraction,
                  summaries[i - 1].avgCompletedFraction)
            << "budget scale " << scales[i];
    }
}

TEST(AnytimeBudgetSweep, PartialsBeatDroppingAtTightBudgets)
{
    Experiment experiment(anytimeConfig("maxscore"));
    const double scale = fullServiceScale(experiment);

    FixedBudgetPolicy tight(0.4 * scale);
    const RunResult anytime =
        experiment.run(tight, TraceFlavor::Wikipedia);

    experiment.engine().setAnytimePartials(false);
    const RunResult dropped =
        experiment.run(tight, TraceFlavor::Wikipedia);
    experiment.engine().setAnytimePartials(true);

    // Same deadlines, same truncations, same prorated work and
    // latency — but merging the anytime prefixes instead of dropping
    // whole responses is strictly better quality.
    EXPECT_EQ(anytime.summary.truncatedResponses,
              dropped.summary.truncatedResponses);
    EXPECT_GT(anytime.summary.truncatedResponses, 0u);
    EXPECT_EQ(dropped.summary.partialResponses, 0u);
    EXPECT_DOUBLE_EQ(anytime.summary.avgLatencySeconds,
                     dropped.summary.avgLatencySeconds);
    EXPECT_DOUBLE_EQ(anytime.summary.avgDocsSearched,
                     dropped.summary.avgDocsSearched);
    EXPECT_GT(anytime.summary.avgNdcg, dropped.summary.avgNdcg);
    EXPECT_GT(anytime.summary.avgPrecision, dropped.summary.avgPrecision);
}

/**
 * The PR 1 determinism contract extended to truncated replays: with a
 * budget tight enough that partial responses occur throughout the
 * trace, the measurement stream (partial rankings, prorated docs,
 * completed fractions) must be byte-identical at --threads 1 and 8.
 */
class AnytimeDeterminism : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AnytimeDeterminism, TruncatedReplayIsBitExactAcrossThreadCounts)
{
    Experiment experiment(anytimeConfig(GetParam()));
    const double scale = fullServiceScale(experiment);
    FixedBudgetPolicy tight(0.4 * scale);

    ThreadPool::setGlobalThreads(1);
    const RunResult sequential =
        experiment.run(tight, TraceFlavor::Wikipedia);

    ThreadPool::setGlobalThreads(8);
    const RunResult parallel =
        experiment.run(tight, TraceFlavor::Wikipedia);
    ThreadPool::setGlobalThreads(1);

    // The replay must actually exercise the anytime path.
    EXPECT_GT(sequential.summary.truncatedResponses, 0u);
    EXPECT_GT(sequential.summary.partialResponses, 0u);

    ASSERT_EQ(sequential.measurements.size(),
              parallel.measurements.size());
    EXPECT_EQ(serializeMeasurements(sequential.measurements),
              serializeMeasurements(parallel.measurements))
        << GetParam()
        << ": truncated measurement streams diverge across thread counts";
    EXPECT_EQ(toJson(sequential.summary), toJson(parallel.summary))
        << GetParam()
        << ": truncated run summaries diverge across thread counts";
}

INSTANTIATE_TEST_SUITE_P(Evaluators, AnytimeDeterminism,
                         ::testing::Values("exhaustive", "maxscore",
                                           "wand"));

} // namespace
} // namespace cottage
