/**
 * @file
 * Tests for the baseline policies: exhaustive, epoch aggregation,
 * Rank-S (CSI) and Taily (Gamma estimation).
 */

#include <gtest/gtest.h>

#include <memory>

#include "engine/distributed_engine.h"
#include "index/maxscore_evaluator.h"
#include "policy/aggregation_policy.h"
#include "policy/exhaustive_policy.h"
#include "policy/csi.h"
#include "policy/rank_s_policy.h"
#include "policy/taily_estimator.h"
#include "policy/taily_policy.h"
#include "text/trace.h"

namespace cottage {
namespace {

class PolicyFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CorpusConfig corpusConfig;
        corpusConfig.numDocs = 4000;
        corpusConfig.vocabSize = 8000;
        corpusConfig.seed = 13;
        corpus_ = std::make_unique<Corpus>(Corpus::generate(corpusConfig));

        ShardedIndexConfig shardConfig;
        shardConfig.numShards = 8;
        shardConfig.topK = 10;
        index_ = std::make_unique<ShardedIndex>(*corpus_, shardConfig);
        cluster_ = std::make_unique<ClusterSim>(8, FrequencyLadder(),
                                                PowerModel());
        engine_ = std::make_unique<DistributedEngine>(*index_, *cluster_,
                                                      evaluator_);
        query_.terms = {40, 500};
        query_.arrivalSeconds = 0.0;
    }

    MaxScoreEvaluator evaluator_;
    std::unique_ptr<Corpus> corpus_;
    std::unique_ptr<ShardedIndex> index_;
    std::unique_ptr<ClusterSim> cluster_;
    std::unique_ptr<DistributedEngine> engine_;
    Query query_;
};

TEST_F(PolicyFixture, ExhaustiveSelectsEverythingWithoutBudget)
{
    ExhaustivePolicy policy;
    const QueryPlan plan = policy.plan(query_, *engine_);
    EXPECT_EQ(plan.participants(), 8u);
    EXPECT_EQ(plan.budgetSeconds, noBudget);
    EXPECT_DOUBLE_EQ(plan.decisionOverheadSeconds, 0.0);
}

TEST_F(PolicyFixture, AggregationLearnsBudgetFromObservations)
{
    AggregationPolicyConfig config;
    config.epochQueries = 10;
    config.latencyQuantile = 0.5;
    AggregationPolicy policy(config);

    // Before any epoch completes: no budget.
    EXPECT_EQ(policy.plan(query_, *engine_).budgetSeconds, noBudget);

    QueryMeasurement m;
    for (int i = 0; i < 10; ++i) {
        m.latencySeconds = 0.010 + 0.001 * i; // 10..19 ms
        policy.observe(m);
    }
    const double budget = policy.currentBudgetSeconds();
    EXPECT_NEAR(budget, 0.0145, 0.0006); // median of the window
    EXPECT_DOUBLE_EQ(policy.plan(query_, *engine_).budgetSeconds, budget);

    policy.reset();
    EXPECT_EQ(policy.plan(query_, *engine_).budgetSeconds, noBudget);
}

TEST_F(PolicyFixture, RankSCsiSamplesRoughlyOnePercent)
{
    RankSConfig config;
    config.sampleRate = 0.01;
    RankSPolicy policy(*corpus_, *index_, config);
    // 4000 docs at 1%: expect tens of docs, at least one per shard.
    EXPECT_GE(policy.csiSize(), 8u);
    EXPECT_LE(policy.csiSize(), 200u);
}

TEST_F(PolicyFixture, RankSVotesAreNormalized)
{
    RankSPolicy policy(*corpus_, *index_);
    const std::vector<double> votes = policy.shardVotes(query_.terms);
    ASSERT_EQ(votes.size(), 8u);
    double total = 0.0;
    for (double v : votes) {
        EXPECT_GE(v, 0.0);
        total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(PolicyFixture, RankSUnknownTermsFallBackToExhaustive)
{
    RankSPolicy policy(*corpus_, *index_);
    Query nonsense;
    nonsense.terms = {7999999};
    const QueryPlan plan = policy.plan(nonsense, *engine_);
    EXPECT_EQ(plan.participants(), 8u);
}

TEST_F(PolicyFixture, RankSTighterThresholdSelectsFewer)
{
    RankSConfig loose;
    loose.voteThreshold = 0.001;
    RankSConfig tight = loose;
    tight.voteThreshold = 0.2;
    RankSPolicy loosePolicy(*corpus_, *index_, loose);
    RankSPolicy tightPolicy(*corpus_, *index_, tight);
    EXPECT_GE(loosePolicy.plan(query_, *engine_).participants(),
              tightPolicy.plan(query_, *engine_).participants());
}

TEST_F(PolicyFixture, TailyContributionsSumToTarget)
{
    const TailyEstimator estimator(*index_);
    const std::vector<double> contributions =
        estimator.expectedTopContributions(query_.terms, 40.0);
    ASSERT_EQ(contributions.size(), 8u);
    double total = 0.0;
    for (double c : contributions) {
        EXPECT_GE(c, 0.0);
        total += c;
    }
    // Bisection solves for the threshold; the sum matches the target
    // (or every candidate when there are fewer than 40).
    EXPECT_NEAR(total, std::min(total, 40.0), 1e-6);
    EXPECT_GT(total, 1.0);
}

TEST_F(PolicyFixture, TailyMissingTermMeansZeroContribution)
{
    const TailyEstimator estimator(*index_);
    // Intersection semantics: a query with an absent term has an empty
    // intersection on every shard lacking the term.
    const std::vector<double> contributions =
        estimator.expectedTopContributions(std::vector<TermId>{7999999}, 10.0);
    for (double c : contributions)
        EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST_F(PolicyFixture, TailyUnionSemanticsKeepsMoreMass)
{
    const TailyEstimator intersection(*index_, false);
    const TailyEstimator unionized(*index_, true);
    // Multi-term query with one rare term: intersection estimates far
    // fewer candidates.
    const std::vector<TermId> terms = {40, 6000};
    double interTotal = 0.0;
    double unionTotal = 0.0;
    for (ShardId s = 0; s < 8; ++s) {
        interTotal += intersection.fitShards(terms)[s].candidates;
        unionTotal += unionized.fitShards(terms)[s].candidates;
    }
    EXPECT_LE(interTotal, unionTotal);
}

TEST_F(PolicyFixture, TailyPolicyCutoffMonotonicity)
{
    TailyConfig loose;
    loose.docCutoff = 0.01;
    TailyConfig tight = loose;
    tight.docCutoff = 5.0;
    TailyPolicy loosePolicy(*index_, loose);
    TailyPolicy tightPolicy(*index_, tight);
    EXPECT_GE(loosePolicy.plan(query_, *engine_).participants(),
              tightPolicy.plan(query_, *engine_).participants());
}

TEST_F(PolicyFixture, TailyPolicyNeverSelectsNothing)
{
    TailyConfig config;
    config.docCutoff = 1e9; // absurd cutoff
    TailyPolicy policy(*index_, config);
    EXPECT_EQ(policy.plan(query_, *engine_).participants(), 8u);
}

TEST_F(PolicyFixture, CsiSamplesEveryShard)
{
    const CentralSampleIndex csi(*corpus_, *index_, 0.05, 3);
    EXPECT_GE(csi.size(), 8u);
    std::size_t total = 0;
    for (ShardId s = 0; s < 8; ++s) {
        EXPECT_GE(csi.sampledFrom(s), 1u);
        total += csi.sampledFrom(s);
    }
    EXPECT_EQ(total, csi.size());
}

TEST_F(PolicyFixture, CsiSearchReturnsSampledDocsOnly)
{
    const CentralSampleIndex csi(*corpus_, *index_, 0.05, 3);
    const auto hits = csi.search(query_.terms, 20);
    EXPECT_FALSE(hits.empty());
    for (const ScoredDoc &hit : hits)
        EXPECT_LT(hit.doc, corpus_->numDocs());
}

TEST_F(PolicyFixture, TailySingleTermFavorsHighDfShards)
{
    // The shard with the largest df for a term should receive at least
    // an average contribution estimate.
    const TailyEstimator estimator(*index_);
    const TermId term = 300;
    ShardId best = 0;
    double bestDf = -1.0;
    for (ShardId s = 0; s < 8; ++s) {
        const TermStats *ts = index_->termStats(s).get(term);
        const double df = ts == nullptr ? 0.0 : ts->postingLength;
        if (df > bestDf) {
            bestDf = df;
            best = s;
        }
    }
    const std::vector<double> contributions =
        estimator.expectedTopContributions(std::vector<TermId>{term}, 10.0);
    double total = 0.0;
    for (double c : contributions)
        total += c;
    EXPECT_GE(contributions[best], total / 8.0 * 0.5);
}

} // namespace
} // namespace cottage
