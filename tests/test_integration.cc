/**
 * @file
 * Cross-module integration and property tests: a miniature end-to-end
 * experiment replayed under every policy, plus parameterized property
 * sweeps over seeds and shard counts.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.h"

namespace cottage {
namespace {

ExperimentConfig
miniConfig(uint64_t seed = 42, ShardId shards = 4)
{
    ExperimentConfig config;
    config.corpus.numDocs = 4000;
    config.corpus.vocabSize = 8000;
    config.corpus.seed = seed;
    config.shards.numShards = shards;
    config.traceQueries = 200;
    config.trainQueries = 300;
    config.train.hiddenLayers = {16, 16};
    config.train.iterations = 200;
    config.arrivalQps = 200.0;
    return config;
}

class MiniExperiment : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        experiment_ = new Experiment(miniConfig());
    }

    static void
    TearDownTestSuite()
    {
        delete experiment_;
        experiment_ = nullptr;
    }

    static Experiment *experiment_;
};

Experiment *MiniExperiment::experiment_ = nullptr;

TEST_F(MiniExperiment, EveryPolicyProducesSaneSummaries)
{
    for (const char *name :
         {"exhaustive", "aggregation", "rank-s", "taily", "cottage",
          "cottage-isn", "cottage-without-ml", "oracle", "slo-dvfs"}) {
        const RunResult result =
            experiment_->run(name, TraceFlavor::Wikipedia);
        const RunSummary &s = result.summary;
        EXPECT_EQ(s.queries, 200u) << name;
        EXPECT_GT(s.avgLatencySeconds, 0.0) << name;
        EXPECT_GE(s.p95LatencySeconds, s.p50LatencySeconds) << name;
        EXPECT_GE(s.maxLatencySeconds, s.p99LatencySeconds) << name;
        EXPECT_GT(s.avgPrecision, 0.4) << name;
        EXPECT_LE(s.avgPrecision, 1.0 + 1e-12) << name;
        EXPECT_GE(s.avgIsnsUsed, 1.0) << name;
        EXPECT_LE(s.avgIsnsUsed, 4.0) << name;
        EXPECT_GT(s.avgPowerWatts, experiment_->config().power.idleWatts)
            << name;
        EXPECT_GT(s.durationSeconds, 0.0) << name;
    }
}

TEST_F(MiniExperiment, ExhaustiveIsPerfectAndCottageCheaper)
{
    const RunResult exhaustive =
        experiment_->run("exhaustive", TraceFlavor::Wikipedia);
    const RunResult cottage =
        experiment_->run("cottage", TraceFlavor::Wikipedia);

    EXPECT_DOUBLE_EQ(exhaustive.summary.avgPrecision, 1.0);
    EXPECT_DOUBLE_EQ(exhaustive.summary.avgIsnsUsed, 4.0);

    EXPECT_LT(cottage.summary.avgIsnsUsed,
              exhaustive.summary.avgIsnsUsed);
    EXPECT_LT(cottage.summary.avgDocsSearched,
              exhaustive.summary.avgDocsSearched);
    EXPECT_LT(cottage.summary.avgPowerWatts,
              exhaustive.summary.avgPowerWatts);
    // No latency assertion here: at this miniature scale the
    // coordination overhead dominates; the latency win is the subject
    // of the paper-scale Fig. 10 bench.
    EXPECT_GT(cottage.summary.avgPrecision, 0.75);
}

TEST_F(MiniExperiment, RunsAreDeterministic)
{
    const RunResult a = experiment_->run("taily", TraceFlavor::Wikipedia);
    const RunResult b = experiment_->run("taily", TraceFlavor::Wikipedia);
    ASSERT_EQ(a.measurements.size(), b.measurements.size());
    for (std::size_t i = 0; i < a.measurements.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.measurements[i].latencySeconds,
                         b.measurements[i].latencySeconds);
        EXPECT_DOUBLE_EQ(a.measurements[i].precisionAtK,
                         b.measurements[i].precisionAtK);
    }
    EXPECT_DOUBLE_EQ(a.summary.energyJoules, b.summary.energyJoules);
}

TEST_F(MiniExperiment, MeasurementInvariantsHold)
{
    const RunResult result =
        experiment_->run("cottage", TraceFlavor::Lucene);
    for (const QueryMeasurement &m : result.measurements) {
        EXPECT_LE(m.isnsCompleted, m.isnsUsed);
        EXPECT_LE(m.isnsBoosted, m.isnsUsed);
        EXPECT_GE(m.latencySeconds,
                  experiment_->cluster().network().rttSeconds);
        EXPECT_LE(m.results.size(), experiment_->index().topK());
        EXPECT_GE(m.precisionAtK, 0.0);
        EXPECT_LE(m.precisionAtK, 1.0 + 1e-12);
    }
}

TEST_F(MiniExperiment, TracesAreCachedAndFlavorsDiffer)
{
    const QueryTrace &wiki = experiment_->trace(TraceFlavor::Wikipedia);
    const QueryTrace &wiki2 = experiment_->trace(TraceFlavor::Wikipedia);
    EXPECT_EQ(&wiki, &wiki2);
    const QueryTrace &lucene = experiment_->trace(TraceFlavor::Lucene);
    EXPECT_NE(wiki.name(), lucene.name());
}

TEST_F(MiniExperiment, UnknownPolicyIsFatal)
{
    // The fixture's thread pool is live: a fork-style death child
    // inherits its locks without its threads and can hang.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH((void)experiment_->makePolicy("not-a-policy"),
                 "unknown policy");
}

/** Property sweep: the core comparative invariants hold across seeds. */
class SeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SeedSweep, CottageInvariantsAcrossSeeds)
{
    ExperimentConfig config = miniConfig(GetParam());
    config.traceQueries = 120;
    config.trainQueries = 250;
    Experiment experiment(std::move(config));

    const RunResult exhaustive =
        experiment.run("exhaustive", TraceFlavor::Wikipedia);
    const RunResult cottage =
        experiment.run("cottage", TraceFlavor::Wikipedia);

    EXPECT_DOUBLE_EQ(exhaustive.summary.avgPrecision, 1.0);
    EXPECT_LT(cottage.summary.avgIsnsUsed,
              exhaustive.summary.avgIsnsUsed);
    EXPECT_LT(cottage.summary.energyJoules,
              exhaustive.summary.energyJoules);
    EXPECT_GT(cottage.summary.avgPrecision, 0.7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 1234u));

/** Property sweep: shard-count independence of engine invariants. */
class ShardSweep : public ::testing::TestWithParam<ShardId>
{
};

TEST_P(ShardSweep, ExhaustiveQualityIsExactForAnyShardCount)
{
    ExperimentConfig config = miniConfig(42, GetParam());
    config.traceQueries = 80;
    Experiment experiment(std::move(config));
    const RunResult result =
        experiment.run("exhaustive", TraceFlavor::Wikipedia);
    EXPECT_DOUBLE_EQ(result.summary.avgPrecision, 1.0);
    EXPECT_DOUBLE_EQ(result.summary.avgIsnsUsed,
                     static_cast<double>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardSweep,
                         ::testing::Values(2u, 5u, 8u));

} // namespace
} // namespace cottage
