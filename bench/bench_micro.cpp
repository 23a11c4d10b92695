/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot paths: top-K retrieval
 * under the three flat evaluators (exhaustive, MaxScore, WAND;
 * bench_evaluators covers bmw), predictor inference (default and paper
 * architectures), feature extraction, Algorithm 1 itself, and the
 * Gamma machinery — quantifying the per-query overhead budget Cottage
 * spends on coordination (paper: ~150 us total).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "core/budget_algorithm.h"
#include "index/exhaustive_evaluator.h"
#include "index/maxscore_evaluator.h"
#include "index/wand_evaluator.h"
#include "policy/taily_estimator.h"
#include "predict/features.h"
#include "predict/latency_predictor.h"
#include "predict/quality_predictor.h"
#include "shard/sharded_index.h"
#include "stats/gamma.h"
#include "text/trace.h"
#include "util/rng.h"

namespace cottage {
namespace {

/** Shared stack built once for all microbenchmarks. */
struct MicroStack
{
    MicroStack()
    {
        CorpusConfig corpusConfig;
        corpusConfig.numDocs = 20000;
        corpusConfig.vocabSize = 20000;
        corpusConfig.seed = 9;
        corpus = std::make_unique<Corpus>(Corpus::generate(corpusConfig));

        ShardedIndexConfig shardConfig;
        shardConfig.numShards = 4;
        shardConfig.partition = PartitionPolicy::Topical;
        index = std::make_unique<ShardedIndex>(*corpus, shardConfig);

        TraceConfig traceConfig;
        traceConfig.numQueries = 256;
        traceConfig.vocabSize = corpusConfig.vocabSize;
        traceConfig.seed = 3;
        trace = QueryTrace::generate(traceConfig);
    }

    std::unique_ptr<Corpus> corpus;
    std::unique_ptr<ShardedIndex> index;
    QueryTrace trace;
};

MicroStack &
stack()
{
    static MicroStack instance;
    return instance;
}

template <typename EvaluatorT>
void
benchSearch(benchmark::State &state)
{
    const EvaluatorT evaluator;
    const InvertedIndex &shard = stack().index->shard(0);
    std::size_t q = 0;
    uint64_t docs = 0;
    for (auto _ : state) {
        const Query &query =
            stack().trace.query(q++ % stack().trace.size());
        const SearchResult result = evaluator.search(shard, query.terms, 10);
        docs += result.work.docsScored;
        benchmark::DoNotOptimize(result.topK.data());
    }
    state.counters["docs/query"] = benchmark::Counter(
        static_cast<double>(docs),
        benchmark::Counter::kAvgIterations);
}

void BM_SearchExhaustive(benchmark::State &state)
{
    benchSearch<ExhaustiveEvaluator>(state);
}
void BM_SearchMaxScore(benchmark::State &state)
{
    benchSearch<MaxScoreEvaluator>(state);
}
void BM_SearchWand(benchmark::State &state)
{
    benchSearch<WandEvaluator>(state);
}
BENCHMARK(BM_SearchExhaustive);
BENCHMARK(BM_SearchMaxScore);
BENCHMARK(BM_SearchWand);

void
BM_QualityFeatureExtraction(benchmark::State &state)
{
    const TermStatsStore &stats = stack().index->termStats(0);
    std::size_t q = 0;
    for (auto _ : state) {
        const Query &query =
            stack().trace.query(q++ % stack().trace.size());
        const auto features = qualityFeatures(stats, query.terms);
        benchmark::DoNotOptimize(features.data());
    }
}
BENCHMARK(BM_QualityFeatureExtraction);

/** Inference cost as a function of architecture (paper: 5x128). */
void
BM_QualityInference(benchmark::State &state)
{
    const std::size_t width = static_cast<std::size_t>(state.range(0));
    const std::size_t depth = static_cast<std::size_t>(state.range(1));
    const QualityPredictor predictor(
        10, std::vector<std::size_t>(depth, width), 1);
    const TermStatsStore &stats = stack().index->termStats(0);
    std::size_t q = 0;
    for (auto _ : state) {
        const Query &query =
            stack().trace.query(q++ % stack().trace.size());
        const auto features = qualityFeatures(stats, query.terms);
        benchmark::DoNotOptimize(predictor.predictTopK(features));
    }
}
BENCHMARK(BM_QualityInference)
    ->Args({64, 2})    // bank default (hiddenLayers {64, 64})
    ->Args({128, 5});  // paper architecture

/**
 * Cottage's per-ISN quality step as the planner runs it: Table I
 * features into a fixed array, then both heads from one reused
 * scratch (one forward pass each, no allocation).
 */
void
BM_QualityEstimateFused(benchmark::State &state)
{
    const std::size_t width = static_cast<std::size_t>(state.range(0));
    const std::size_t depth = static_cast<std::size_t>(state.range(1));
    const QualityPredictor predictor(
        10, std::vector<std::size_t>(depth, width), 1);
    const TermStatsStore &stats = stack().index->termStats(0);
    MlpScratch scratch;
    std::size_t q = 0;
    for (auto _ : state) {
        const Query &query =
            stack().trace.query(q++ % stack().trace.size());
        double features[numQualityFeatures];
        qualityFeatures(stats, toWeighted(query.terms), features);
        benchmark::DoNotOptimize(predictor.estimate(features, scratch));
    }
}
BENCHMARK(BM_QualityEstimateFused)
    ->Args({64, 2})    // bank default
    ->Args({128, 5});  // paper architecture

void
BM_LatencyInference(benchmark::State &state)
{
    const std::size_t width = static_cast<std::size_t>(state.range(0));
    const std::size_t depth = static_cast<std::size_t>(state.range(1));
    const CycleBuckets buckets(1e5, 1e9, 20);
    const LatencyPredictor predictor(
        buckets, std::vector<std::size_t>(depth, width), 2);
    const TermStatsStore &stats = stack().index->termStats(0);
    std::size_t q = 0;
    for (auto _ : state) {
        const Query &query =
            stack().trace.query(q++ % stack().trace.size());
        const auto features = latencyFeatures(stats, query.terms);
        benchmark::DoNotOptimize(predictor.predictCycles(features));
    }
}
BENCHMARK(BM_LatencyInference)->Args({64, 2})->Args({128, 5});

/** Algorithm 1 cost at various cluster sizes (paper: O(n log n)). */
void
BM_BudgetAlgorithm(benchmark::State &state)
{
    const auto numIsns = static_cast<std::size_t>(state.range(0));
    constexpr std::uint64_t kPredictionSeed = 5;
    Rng rng(kPredictionSeed);
    std::vector<IsnPrediction> predictions(numIsns);
    for (std::size_t i = 0; i < numIsns; ++i) {
        predictions[i].isn = static_cast<ShardId>(i);
        predictions[i].qualityK =
            static_cast<uint32_t>(rng.uniformInt(0, 4));
        predictions[i].qualityHalf =
            static_cast<uint32_t>(rng.uniformInt(0, 2));
        predictions[i].latencyBoosted = rng.uniform(1e-3, 30e-3);
        predictions[i].latencyCurrent =
            predictions[i].latencyBoosted * 1.3;
    }
    for (auto _ : state) {
        const BudgetDecision decision = determineTimeBudget(predictions);
        benchmark::DoNotOptimize(decision.budgetSeconds);
    }
}
BENCHMARK(BM_BudgetAlgorithm)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void
BM_TailyEstimation(benchmark::State &state)
{
    const TailyEstimator estimator(*stack().index);
    std::size_t q = 0;
    for (auto _ : state) {
        const Query &query =
            stack().trace.query(q++ % stack().trace.size());
        const auto contributions =
            estimator.expectedTopContributions(query.terms, 40.0);
        benchmark::DoNotOptimize(contributions.data());
    }
}
BENCHMARK(BM_TailyEstimation);

void
BM_GammaFitMoments(benchmark::State &state)
{
    constexpr std::uint64_t kSampleSeed = 6;
    Rng rng(kSampleSeed);
    std::vector<double> sample(1000);
    for (double &v : sample)
        v = rng.exponential(0.5) + rng.exponential(0.5);
    for (auto _ : state) {
        const GammaDistribution fit = GammaDistribution::fitMoments(sample);
        benchmark::DoNotOptimize(fit.survival(5.0));
    }
}
BENCHMARK(BM_GammaFitMoments);

} // namespace
} // namespace cottage

BENCHMARK_MAIN();
