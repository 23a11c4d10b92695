/**
 * @file
 * Microbenchmarks (google-benchmark) of the hot paths: top-K retrieval
 * under the three flat evaluators (exhaustive, MaxScore, WAND;
 * bench_evaluators covers bmw), predictor inference (default and paper
 * architectures), the forward pass alone, one pool fan-out over 16
 * ISNs, the training GEMM kernel and one training step,
 * feature extraction, Algorithm 1 itself, and the
 * Gamma machinery — quantifying the per-query overhead budget Cottage
 * spends on coordination (paper: ~150 us total).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/budget_algorithm.h"
#include "index/exhaustive_evaluator.h"
#include "index/maxscore_evaluator.h"
#include "index/wand_evaluator.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "policy/taily_estimator.h"
#include "predict/features.h"
#include "predict/latency_predictor.h"
#include "predict/quality_predictor.h"
#include "shard/sharded_index.h"
#include "stats/gamma.h"
#include "text/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

/**
 * MlpClassifier::forward alone, on precomputed raw features with a
 * quarter exact zeros: no feature extraction, one reused scratch.
 * Args: input width, class count, hidden width, hidden depth. The
 * per_mac counter divides by every weight of the net, so skipped zero
 * inputs make it read low.
 */
void
BM_MlpForward(benchmark::State &state)
{
    MlpConfig config;
    config.inputDim = static_cast<std::size_t>(state.range(0));
    config.numClasses = static_cast<std::size_t>(state.range(1));
    config.hiddenLayers.assign(static_cast<std::size_t>(state.range(3)),
                               static_cast<std::size_t>(state.range(2)));
    const MlpClassifier model(config);
    const uint64_t seed = 8;
    Rng rng(seed);
    constexpr std::size_t kSamples = 256;
    std::vector<double> samples(kSamples * config.inputDim);
    for (double &v : samples)
        v = rng.uniform(0.0, 1.0) < 0.25 ? 0.0 : rng.uniform(-2.0, 6.0);
    MlpScratch scratch;
    std::size_t i = 0;
    for (auto _ : state) {
        const double *features =
            samples.data() + (i++ % kSamples) * config.inputDim;
        benchmark::DoNotOptimize(model.forward(features, scratch));
    }
    std::size_t macs = 0;
    std::size_t fanIn = config.inputDim;
    for (std::size_t width : config.hiddenLayers) {
        macs += fanIn * width;
        fanIn = width;
    }
    macs += fanIn * config.numClasses;
    state.counters["per_mac"] = benchmark::Counter(
        static_cast<double>(macs),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_MlpForward)
    ->ArgNames({"in", "classes", "width", "depth"})
    ->Args({10, 11, 64, 2})   // quality top-K head (K = 10)
    ->Args({10, 6, 64, 2})    // quality top-K/2 head
    ->Args({15, 20, 64, 2})   // latency model (20 buckets)
    ->Args({10, 11, 128, 5}); // paper architecture

/**
 * What one parallelFor over a plan's 16 ISNs costs the caller on a
 * pool of arg 0 threads (1 = inline, the serial baseline). Each body
 * runs arg 1 steps of a dependent multiply-add chain: 0 is an empty
 * body, 1200 about 2 us on a ~2.3 GHz core.
 */
void
BM_ParallelForDispatch(benchmark::State &state)
{
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    const auto steps = static_cast<uint64_t>(state.range(1));
    constexpr std::size_t kItems = 16;
    std::vector<uint64_t> out(kItems);
    for (auto _ : state) {
        pool.parallelFor(0, kItems, [&](std::size_t i) {
            uint64_t x = i;
            for (uint64_t s = 0; s < steps; ++s)
                x = x * 6364136223846793005ull + 1442695040888963407ull;
            out[i] = x;
        });
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgNames({"threads", "steps"})
    ->Args({2, 0})
    ->Args({1, 1200})
    ->Args({2, 1200})
    ->UseRealTime();

/**
 * The training GEMM kernel: C (m x n) = A (m x k) * B (k x n), A^T * B
 * or A * B^T (arg 3: 0, 1, 2), at the bank's 64-row minibatch. The
 * per_mac counter is the kernel's time per multiply-add.
 */
void
BM_Matmul(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    const int64_t variant = state.range(3);
    const uint64_t seed = 5;
    Rng rng(seed);
    const auto filled = [&](std::size_t rows, std::size_t cols) {
        Matrix matrix(rows, cols);
        for (std::size_t i = 0; i < matrix.size(); ++i)
            matrix.data()[i] = rng.uniform(-1.0, 1.0);
        return matrix;
    };
    const Matrix a = variant == 1 ? filled(k, m) : filled(m, k);
    const Matrix b = variant == 2 ? filled(n, k) : filled(k, n);
    Matrix packed(k, n);
    Matrix c(m, n);
    for (auto _ : state) {
        if (variant == 0)
            matmul(a, b, c);
        else if (variant == 1)
            matmulTransposeA(a, b, c);
        else
            matmulTransposeB(a, b, c, packed);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.counters["per_mac"] = benchmark::Counter(
        static_cast<double>(m * k * n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_Matmul)
    ->ArgNames({"m", "k", "n", "variant"})
    ->Args({64, 64, 64, 0})  // hidden layer forward
    ->Args({64, 64, 64, 1})  // hidden weight gradient
    ->Args({64, 64, 64, 2})  // hidden delta back-propagation
    ->Args({64, 10, 64, 0})  // input layer forward (10 features)
    ->Args({10, 64, 64, 1})  // input weight gradient: 10-row edge
    ->Args({64, 64, 11, 0})  // output layer forward (11 classes)
    ->Args({64, 11, 64, 2}); // output delta back-propagation

/**
 * Minibatch Adam iterations of the bank's default network (10-64-64-11,
 * batch 64): forward, softmax, back-propagation and the update. Each
 * train() call shapes its buffers and shuffles the sample order once,
 * so the per_step counter amortizes that over 20 steps.
 */
void
BM_MlpTrainStep(benchmark::State &state)
{
    const uint64_t seed = 6;
    Rng rng(seed);
    Dataset data(10);
    for (int i = 0; i < 512; ++i) {
        std::vector<double> sample(10);
        for (double &v : sample)
            v = rng.uniform(0.0, 1.0) < 0.25 ? 0.0 : rng.uniform(-2.0, 6.0);
        data.add(sample, static_cast<uint32_t>(i % 11));
    }
    MlpConfig config;
    config.inputDim = 10;
    config.numClasses = 11;
    config.hiddenLayers = {64, 64};
    MlpClassifier model(config);
    model.fitNormalization(data);
    const std::size_t steps = 20;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.train(data, steps));
    state.counters["per_step"] = benchmark::Counter(
        static_cast<double>(steps),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_MlpTrainStep);

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
