/**
 * @file
 * Tests for feature extraction (Tables I/II), cycle buckets, the
 * quality and latency predictors, and the training pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "index/maxscore_evaluator.h"
#include "predict/features.h"
#include "predict/latency_predictor.h"
#include "predict/quality_predictor.h"
#include "predict/training.h"
#include "shard/sharded_index.h"
#include "text/trace.h"
#include "util/rng.h"

namespace cottage {
namespace {

class PredictFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CorpusConfig corpusConfig;
        corpusConfig.numDocs = 4000;
        corpusConfig.vocabSize = 8000;
        corpusConfig.meanDocLength = 100.0;
        corpusConfig.seed = 12;
        corpus_ = std::make_unique<Corpus>(Corpus::generate(corpusConfig));

        ShardedIndexConfig shardConfig;
        shardConfig.numShards = 4;
        shardConfig.topK = 10;
        index_ = std::make_unique<ShardedIndex>(*corpus_, shardConfig);

        TraceConfig traceConfig;
        traceConfig.numQueries = 400;
        traceConfig.vocabSize = corpusConfig.vocabSize;
        traceConfig.seed = 90;
        trainTrace_ = QueryTrace::generate(traceConfig);
    }

    MaxScoreEvaluator evaluator_;
    WorkModel work_;
    std::unique_ptr<Corpus> corpus_;
    std::unique_ptr<ShardedIndex> index_;
    QueryTrace trainTrace_;
};

TEST_F(PredictFixture, FeatureNamesAreDistinct)
{
    for (std::size_t i = 0; i < numQualityFeatures; ++i)
        for (std::size_t j = i + 1; j < numQualityFeatures; ++j)
            EXPECT_STRNE(qualityFeatureName(i), qualityFeatureName(j));
    for (std::size_t i = 0; i < numLatencyFeatures; ++i)
        for (std::size_t j = i + 1; j < numLatencyFeatures; ++j)
            EXPECT_STRNE(latencyFeatureName(i), latencyFeatureName(j));
}

TEST_F(PredictFixture, QualityFeaturesMatchTermStats)
{
    const TermStatsStore &stats = index_->termStats(0);
    const TermId term = 30;
    const TermStats *ts = stats.get(term);
    ASSERT_NE(ts, nullptr);
    const std::vector<double> features = qualityFeatures(stats, std::vector<TermId>{term});
    ASSERT_EQ(features.size(), numQualityFeatures);
    EXPECT_DOUBLE_EQ(features[0], ts->firstQuartile);
    EXPECT_DOUBLE_EQ(features[1], ts->meanScore);
    EXPECT_DOUBLE_EQ(features[7], ts->maxScore);
    // Posting length is log-compressed.
    EXPECT_DOUBLE_EQ(features[9], std::log1p(ts->postingLength));
}

TEST_F(PredictFixture, MultiTermFeaturesUseMaxAggregation)
{
    const TermStatsStore &stats = index_->termStats(0);
    const std::vector<double> a = qualityFeatures(stats, std::vector<TermId>{30});
    const std::vector<double> b = qualityFeatures(stats, std::vector<TermId>{200});
    const std::vector<double> both = qualityFeatures(stats, std::vector<TermId>{30, 200});
    for (std::size_t f = 0; f < numQualityFeatures; ++f)
        EXPECT_DOUBLE_EQ(both[f], std::max(a[f], b[f])) << "feature " << f;
}

TEST_F(PredictFixture, MissingTermsContributeZeros)
{
    const TermStatsStore &stats = index_->termStats(0);
    const std::vector<double> features =
        qualityFeatures(stats, std::vector<TermId>{7999999});
    for (double f : features)
        EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST_F(PredictFixture, LatencyFeaturesIncludeQueryLength)
{
    const TermStatsStore &stats = index_->termStats(0);
    const std::vector<double> one = latencyFeatures(stats, std::vector<TermId>{30});
    const std::vector<double> three = latencyFeatures(stats, std::vector<TermId>{30, 40, 50});
    EXPECT_DOUBLE_EQ(one[5], 1.0);
    EXPECT_DOUBLE_EQ(three[5], 3.0);
}

TEST_F(PredictFixture, WeightedFeaturesScaleScoreStatistics)
{
    const TermStatsStore &stats = index_->termStats(0);
    const std::vector<double> unit =
        qualityFeatures(stats, std::vector<TermId>{30});
    const std::vector<double> doubled =
        qualityFeatures(stats, std::vector<WeightedTerm>{{30, 2.0}});
    // Score-valued features scale by w, variance by w^2, posting
    // length not at all.
    for (std::size_t f = 0; f <= 7; ++f)
        EXPECT_NEAR(doubled[f], 2.0 * unit[f], 1e-12) << "feature " << f;
    EXPECT_NEAR(doubled[8], 4.0 * unit[8], 1e-12);
    EXPECT_DOUBLE_EQ(doubled[9], unit[9]);

    const std::vector<double> latUnit =
        latencyFeatures(stats, std::vector<TermId>{30});
    const std::vector<double> latDoubled =
        latencyFeatures(stats, std::vector<WeightedTerm>{{30, 2.0}});
    for (std::size_t f = 0; f <= 4; ++f)
        EXPECT_DOUBLE_EQ(latDoubled[f], latUnit[f]) << "count feature " << f;
    EXPECT_NEAR(latDoubled[11], 2.0 * latUnit[11], 1e-12); // max score
    EXPECT_NEAR(latDoubled[13], 4.0 * latUnit[13], 1e-12); // variance
    EXPECT_NEAR(latDoubled[14], 2.0 * latUnit[14], 1e-12); // idf
}

TEST(CycleBuckets, RoundTripAndSaturation)
{
    const CycleBuckets buckets(1e4, 1e8, 16);
    EXPECT_EQ(buckets.bucketOf(1e3), 0u);
    EXPECT_EQ(buckets.bucketOf(1e4), 0u);
    EXPECT_EQ(buckets.bucketOf(2e8), 15u);
    for (uint32_t b = 0; b < 16; ++b) {
        EXPECT_EQ(buckets.bucketOf(buckets.representativeCycles(b)), b);
        EXPECT_GT(buckets.upperCycles(b), buckets.representativeCycles(b));
    }
    // Buckets grow geometrically.
    const double ratio0 =
        buckets.representativeCycles(1) / buckets.representativeCycles(0);
    const double ratio1 =
        buckets.representativeCycles(9) / buckets.representativeCycles(8);
    EXPECT_NEAR(ratio0, ratio1, 1e-9);
}

TEST_F(PredictFixture, TrainingSetsAreConsistent)
{
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    ASSERT_EQ(sets.shards.size(), 4u);
    for (const ShardDatasets &shard : sets.shards) {
        EXPECT_EQ(shard.qualityK.size(), trainTrace_.size());
        EXPECT_EQ(shard.qualityHalf.size(), trainTrace_.size());
        EXPECT_EQ(shard.latency.size(), trainTrace_.size());
        for (std::size_t i = 0; i < shard.qualityK.size(); ++i) {
            EXPECT_LE(shard.qualityK.label(i), 10u);
            EXPECT_LE(shard.qualityHalf.label(i),
                      shard.qualityK.label(i));
            EXPECT_LT(shard.latency.label(i), 12u);
        }
    }
    // Across shards, top-K labels of one query sum to the result size.
    for (std::size_t q = 0; q < trainTrace_.size(); ++q) {
        uint32_t total = 0;
        for (const ShardDatasets &shard : sets.shards)
            total += shard.qualityK.label(q);
        EXPECT_LE(total, 10u);
        uint32_t half = 0;
        for (const ShardDatasets &shard : sets.shards)
            half += shard.qualityHalf.label(q);
        EXPECT_LE(half, 5u);
    }
}

TEST_F(PredictFixture, QualityPredictorLearnsAboveMajorityBaseline)
{
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    QualityPredictor predictor(10, {32, 32}, 5);
    predictor.train(sets.shards[0].qualityK, sets.shards[0].qualityHalf,
                    600);

    // Modal-label baseline: always answering the most common count.
    std::vector<std::size_t> counts(11, 0);
    for (std::size_t i = 0; i < sets.shards[0].qualityK.size(); ++i)
        ++counts[sets.shards[0].qualityK.label(i)];
    const double modal =
        static_cast<double>(
            *std::max_element(counts.begin(), counts.end())) /
        static_cast<double>(sets.shards[0].qualityK.size());

    EXPECT_GT(predictor.accuracyTopK(sets.shards[0].qualityK),
              modal + 0.02);
}

TEST_F(PredictFixture, QualityPredictorProbabilitiesAreCalibratedish)
{
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    QualityPredictor predictor(10, {32, 32}, 6);
    predictor.train(sets.shards[1].qualityK, sets.shards[1].qualityHalf,
                    600);
    const Dataset &data = sets.shards[1].qualityK;
    for (std::size_t i = 0; i < 20; ++i) {
        const std::vector<double> features(
            data.features(i), data.features(i) + data.numFeatures());
        const double p = predictor.probNonzeroTopK(features);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

TEST_F(PredictFixture, QualityPredictorSaveLoadRoundTrip)
{
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    QualityPredictor predictor(10, {16, 16}, 7);
    predictor.train(sets.shards[0].qualityK, sets.shards[0].qualityHalf,
                    200);
    std::stringstream buffer;
    predictor.save(buffer);
    const QualityPredictor restored = QualityPredictor::load(buffer);
    const Dataset &data = sets.shards[0].qualityK;
    for (std::size_t i = 0; i < 30; ++i) {
        const std::vector<double> features(
            data.features(i), data.features(i) + data.numFeatures());
        EXPECT_EQ(restored.predictTopK(features),
                  predictor.predictTopK(features));
        EXPECT_EQ(restored.predictTopHalf(features),
                  predictor.predictTopHalf(features));
    }
}

TEST_F(PredictFixture, LatencyPredictorBeatsUniformGuessing)
{
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    LatencyPredictor predictor(sets.buckets, {32, 32}, 8);
    predictor.train(sets.shards[0].latency, 800);
    const double exact = predictor.accuracyWithin(sets.shards[0].latency, 0);
    EXPECT_GT(exact, 2.0 / 12.0); // far above uniform over 12 buckets
    const double within1 =
        predictor.accuracyWithin(sets.shards[0].latency, 1);
    EXPECT_GE(within1, exact);
}

TEST_F(PredictFixture, LatencyPredictorConservativeDominates)
{
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    LatencyPredictor predictor(sets.buckets, {16}, 9);
    predictor.train(sets.shards[0].latency, 200);
    const Dataset &data = sets.shards[0].latency;
    for (std::size_t i = 0; i < 30; ++i) {
        const std::vector<double> features(
            data.features(i), data.features(i) + data.numFeatures());
        EXPECT_GT(predictor.predictCyclesConservative(features),
                  predictor.predictCycles(features));
        EXPECT_GT(predictor.expectedCycles(features), 0.0);
    }
}

TEST_F(PredictFixture, FeaturesMatchGoldenHash)
{
    // FNV-1a over the raw double bytes of both feature vectors for
    // every (fixture query, shard) pair. The constant pins the term
    // statistics layout: a change to how a shard stores or finds its
    // statistics must leave every feature bitwise equal.
    uint64_t hash = 0xcbf29ce484222325ull;
    const auto mix = [&hash](const std::vector<double> &values) {
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(values.data());
        for (std::size_t i = 0; i < values.size() * sizeof(double); ++i) {
            hash ^= bytes[i];
            hash *= 0x100000001b3ull;
        }
    };
    for (const Query &query : trainTrace_.queries()) {
        for (ShardId s = 0; s < index_->numShards(); ++s) {
            const TermStatsStore &stats = index_->termStats(s);
            mix(qualityFeatures(stats, query.terms));
            mix(latencyFeatures(stats, query.terms));
        }
    }
    EXPECT_EQ(hash, 0x4549d0b2b6329917ull);
}

TEST_F(PredictFixture, ScratchCallsMatchSingleValueCalls)
{
    // One scratch serves both quality heads and the latency model in
    // turn, as in the planner; every fused value must equal its
    // single-call counterpart exactly.
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    QualityPredictor quality(10, {24, 24}, 11);
    quality.train(sets.shards[2].qualityK, sets.shards[2].qualityHalf, 150);
    LatencyPredictor latency(sets.buckets, {32}, 12);
    latency.train(sets.shards[2].latency, 150);

    MlpScratch scratch;
    std::size_t nonzero = 0;
    for (std::size_t q = 0; q < trainTrace_.size(); ++q) {
        const std::vector<WeightedTerm> terms =
            toWeighted(trainTrace_.query(q).terms);
        const TermStatsStore &stats = index_->termStats(2);
        const std::vector<double> qf = qualityFeatures(stats, terms);
        const std::vector<double> lf = latencyFeatures(stats, terms);
        double qArray[numQualityFeatures];
        double lArray[numLatencyFeatures];
        qualityFeatures(stats, terms, qArray);
        latencyFeatures(stats, terms, lArray);
        ASSERT_TRUE(std::equal(qf.begin(), qf.end(), qArray));
        ASSERT_TRUE(std::equal(lf.begin(), lf.end(), lArray));

        const QualityEstimate estimate = quality.estimate(qArray, scratch);
        EXPECT_EQ(estimate.topK.count, quality.predictTopK(qf));
        EXPECT_EQ(estimate.topHalf.count, quality.predictTopHalf(qf));
        EXPECT_EQ(estimate.topK.probNonzero, quality.probNonzeroTopK(qf));
        EXPECT_EQ(estimate.topHalf.probNonzero,
                  quality.probNonzeroTopHalf(qf));
        EXPECT_EQ(latency.predictCyclesConservative(lArray, scratch),
                  latency.predictCyclesConservative(lf));
        const HeadEstimate topK = quality.estimateTopK(qArray, scratch);
        EXPECT_EQ(topK.count, estimate.topK.count);
        EXPECT_EQ(topK.probNonzero, estimate.topK.probNonzero);
        nonzero += estimate.topK.count > 0;
    }
    // Both argmax branches are exercised.
    EXPECT_GT(nonzero, 0u);
    EXPECT_LT(nonzero, trainTrace_.size());
}

TEST_F(PredictFixture, LatencyPredictorSaveLoadRoundTrip)
{
    const TrainingSets sets =
        buildTrainingSets(*index_, evaluator_, work_, trainTrace_, 12);
    LatencyPredictor predictor(sets.buckets, {16}, 10);
    predictor.train(sets.shards[2].latency, 200);
    std::stringstream buffer;
    predictor.save(buffer);
    const LatencyPredictor restored = LatencyPredictor::load(buffer);
    EXPECT_EQ(restored.buckets().count(), predictor.buckets().count());
    const Dataset &data = sets.shards[2].latency;
    for (std::size_t i = 0; i < 30; ++i) {
        const std::vector<double> features(
            data.features(i), data.features(i) + data.numFeatures());
        EXPECT_EQ(restored.predictBucket(features),
                  predictor.predictBucket(features));
    }
}

TEST_F(PredictFixture, PredictorBankSaveLoadRoundTrip)
{
    PredictorTrainConfig config;
    config.hiddenLayers = {16};
    config.iterations = 100;
    const PredictorBank bank(*index_, evaluator_, work_, trainTrace_,
                             config);
    const std::string dir = "/tmp/cottage-test-bank";
    bank.save(dir);
    const PredictorBank restored = PredictorBank::load(dir);

    ASSERT_EQ(restored.numShards(), bank.numShards());
    EXPECT_DOUBLE_EQ(restored.inferenceOverheadSeconds(),
                     bank.inferenceOverheadSeconds());
    EXPECT_EQ(restored.buckets().count(), bank.buckets().count());
    for (ShardId s = 0; s < bank.numShards(); ++s) {
        for (const Query &query : trainTrace_.queries()) {
            const std::vector<double> qf =
                qualityFeatures(index_->termStats(s), query.terms);
            ASSERT_EQ(restored.quality(s).predictTopK(qf),
                      bank.quality(s).predictTopK(qf));
            const std::vector<double> lf =
                latencyFeatures(index_->termStats(s), query.terms);
            ASSERT_EQ(restored.latency(s).predictBucket(lf),
                      bank.latency(s).predictBucket(lf));
            if (query.id > 40)
                break; // spot check is enough per shard
        }
    }
}

/** Write a bank.meta holding @p text into a fresh directory. */
std::string
bankDirWithMeta(const std::string &name, const std::string &text)
{
    const std::string dir = ::testing::TempDir() + "cottage-meta-" + name;
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/bank.meta") << text;
    return dir;
}

TEST(PredictorBankLoadDeathTest, RejectsMalformedManifest)
{
    // bank.meta is read before any model file, so these directories
    // need nothing else.
    const struct
    {
        const char *name;
        const char *meta;
        const char *diagnostic;
    } cases[] = {
        {"nan", "cottage-bank 1 4 nan\n", "inference overhead: expected a finite"},
        {"inf", "cottage-bank 1 4 inf\n", "inference overhead: expected a finite"},
        {"huge", "cottage-bank 1 4 1e400\n", "inference overhead: expected a finite"},
        {"negative", "cottage-bank 1 4 -1e-4\n", "cannot be negative"},
        {"truncated", "cottage-bank 1 4\n", "input ends early"},
        {"no-isns", "cottage-bank 1 0 1.5e-4\n", "ISN count"},
        {"version", "cottage-bank 7 4 1.5e-4\n", "version"},
        {"magic", "cottage-bunk 1 4 1.5e-4\n", "not a cottage predictor-bank"},
    };
    for (const auto &c : cases) {
        const std::string dir = bankDirWithMeta(c.name, c.meta);
        EXPECT_EXIT(PredictorBank::load(dir), ::testing::ExitedWithCode(2),
                    c.diagnostic)
            << c.name;
    }
}

TEST_F(PredictFixture, InferenceOverheadSetterRejectsNonFinite)
{
    // The bank trains on the thread pool, so fork-style death tests
    // could hang on a lock a pool thread holds.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    PredictorTrainConfig config;
    config.hiddenLayers = {4};
    config.iterations = 1;
    PredictorBank bank(*index_, evaluator_, work_, trainTrace_, config);
    bank.setInferenceOverheadSeconds(2e-4);
    EXPECT_DOUBLE_EQ(bank.inferenceOverheadSeconds(), 2e-4);
    EXPECT_DEATH(bank.setInferenceOverheadSeconds(std::nan("")),
                 "finite and non-negative");
    EXPECT_DEATH(bank.setInferenceOverheadSeconds(HUGE_VAL),
                 "finite and non-negative");
    EXPECT_DEATH(bank.setInferenceOverheadSeconds(-1e-6),
                 "finite and non-negative");
}

TEST(Adam, WeightDecayShrinksWeightNorm)
{
    // Same data, same seed; the decayed model must end with a smaller
    // weight norm (and still learn).
    Dataset data(2);
    Rng rng(5);
    for (int i = 0; i < 400; ++i) {
        const double x = rng.uniform(-2, 2);
        const double y = rng.uniform(-2, 2);
        data.add({x, y}, x + y > 0.0 ? 1u : 0u);
    }
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 2;
    config.hiddenLayers = {16};
    config.seed = 9;

    const auto weightScale = [&](double decay) {
        MlpClassifier model(config);
        model.fitNormalization(data);
        AdamConfig adam;
        adam.weightDecay = decay;
        model.train(data, 600, adam);
        // Probe the logit magnitude as a norm proxy.
        const std::vector<double> probe = {1.5, 1.5};
        const auto probs = model.probabilities(probe.data());
        EXPECT_GT(model.accuracy(data), 0.9) << "decay " << decay;
        return std::abs(std::log(probs[1] / probs[0]));
    };
    EXPECT_LT(weightScale(0.05), weightScale(0.0));
}

TEST_F(PredictFixture, PredictorBankTrainsEveryShard)
{
    PredictorTrainConfig config;
    config.hiddenLayers = {16, 16};
    config.iterations = 150;
    const PredictorBank bank(*index_, evaluator_, work_, trainTrace_,
                             config);
    EXPECT_EQ(bank.numShards(), 4u);
    for (ShardId s = 0; s < 4; ++s) {
        const std::vector<double> qf =
            qualityFeatures(index_->termStats(s), std::vector<TermId>{30});
        EXPECT_LE(bank.quality(s).predictTopK(qf), 10u);
        const std::vector<double> lf =
            latencyFeatures(index_->termStats(s), std::vector<TermId>{30});
        EXPECT_GT(bank.latency(s).predictCycles(lf), 0.0);
    }
    EXPECT_GT(bank.inferenceOverheadSeconds(), 0.0);
}

} // namespace
} // namespace cottage
