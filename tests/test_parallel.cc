/**
 * @file
 * Determinism regression suite for the parallel shard fan-out: the
 * same seed must produce byte-identical measurement streams and run
 * summaries at --threads 1 (strictly sequential inline execution) and
 * --threads 8 (oversubscribed work-stealing pool), for every
 * evaluator and for policies covering full fan-out, selective
 * participation and the oracle's batch paths.
 *
 * "Byte-identical" is literal: every double is compared by its bit
 * pattern, not by tolerance. The parallel code paths are only allowed
 * to reorder *scheduling*, never arithmetic.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/distributed_engine.h"
#include "engine/parallel_search.h"
#include "harness/experiment.h"
#include "index/collection_stats.h"
#include "index/inverted_index.h"
#include "metrics/run_stats.h"
#include "predict/training.h"
#include "text/corpus.h"
#include "text/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cottage {
namespace {

/** Append a value's raw bytes to a buffer. */
template <typename T>
void
appendBytes(std::string &buffer, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const char *raw = reinterpret_cast<const char *>(&value);
    buffer.append(raw, sizeof(T));
}

/** Bitwise serialization of a full measurement stream. */
std::string
serializeMeasurements(const std::vector<QueryMeasurement> &measurements)
{
    std::string buffer;
    for (const QueryMeasurement &m : measurements) {
        appendBytes(buffer, m.id);
        appendBytes(buffer, m.tenant);
        appendBytes(buffer, m.arrivalSeconds);
        appendBytes(buffer, m.latencySeconds);
        appendBytes(buffer, m.budgetSeconds);
        appendBytes(buffer, m.isnsUsed);
        appendBytes(buffer, m.isnsCompleted);
        appendBytes(buffer, m.isnsBoosted);
        appendBytes(buffer, m.docsSearched);
        appendBytes(buffer, m.docsSkipped);
        appendBytes(buffer, m.blocksDecoded);
        appendBytes(buffer, m.blocksSkipped);
        appendBytes(buffer, m.partialResponses);
        appendBytes(buffer, m.completedFraction);
        appendBytes(buffer, m.precisionAtK);
        appendBytes(buffer, m.ndcgAtK);
        for (const ScoredDoc &hit : m.results) {
            appendBytes(buffer, hit.doc);
            appendBytes(buffer, hit.score);
        }
    }
    return buffer;
}

ExperimentConfig
smallConfig(const std::string &evaluator, uint32_t blockSize = 128)
{
    ExperimentConfig config;
    config.corpus.numDocs = 2000;
    config.corpus.vocabSize = 6000;
    config.corpus.meanDocLength = 90.0;
    config.shards.numShards = 8;
    config.shards.blockSize = blockSize;
    config.traceQueries = 200;
    config.evaluator = evaluator;
    return config;
}

/**
 * Replay @p policy twice — sequentially and on an oversubscribed
 * 8-thread pool — and demand bitwise-equal results.
 */
void
expectDeterministicReplay(Experiment &experiment,
                          const std::string &policy)
{
    ThreadPool::setGlobalThreads(1);
    const RunResult sequential =
        experiment.run(policy, TraceFlavor::Wikipedia);

    ThreadPool::setGlobalThreads(8);
    const RunResult parallel =
        experiment.run(policy, TraceFlavor::Wikipedia);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(sequential.measurements.size(),
              parallel.measurements.size());
    EXPECT_EQ(serializeMeasurements(sequential.measurements),
              serializeMeasurements(parallel.measurements))
        << policy << ": measurement streams diverge across thread counts";
    EXPECT_EQ(toJson(sequential.summary), toJson(parallel.summary))
        << policy << ": run summaries diverge across thread counts";
}

/**
 * One determinism-matrix cell: an evaluator at a block size. The flat
 * evaluators ignore the block layer, so they appear once (at the
 * default size); the block-max evaluators run at every production
 * block size because the codec's decode path — group boundaries,
 * padding reads, skip charging — differs per size and each variant
 * must replay byte-identically on its own.
 */
struct MatrixCell
{
    const char *evaluator;
    uint32_t blockSize;
};

std::string
cellName(const ::testing::TestParamInfo<MatrixCell> &info)
{
    return std::string(info.param.evaluator) + "_" +
           std::to_string(info.param.blockSize);
}

class ParallelDeterminism : public ::testing::TestWithParam<MatrixCell>
{
};

TEST_P(ParallelDeterminism, ReplayIsBitExactAcrossThreadCounts)
{
    Experiment experiment(
        smallConfig(GetParam().evaluator, GetParam().blockSize));
    // Full fan-out and selective participation both cross the
    // parallel execute() path; taily additionally plans from index
    // statistics so some ISNs sit out each query.
    expectDeterministicReplay(experiment, "exhaustive");
    expectDeterministicReplay(experiment, "taily");
}

INSTANTIATE_TEST_SUITE_P(
    Evaluators, ParallelDeterminism,
    ::testing::Values(MatrixCell{"exhaustive", 128},
                      MatrixCell{"maxscore", 128},
                      MatrixCell{"wand", 128}, MatrixCell{"bmw", 64},
                      MatrixCell{"bmw", 128}, MatrixCell{"bmw", 256}),
    cellName);

TEST(ParallelDeterminismOracle, BatchShardWorkPathIsBitExact)
{
    // The oracle exercises globalTopK() and shardWorkAll() inside its
    // per-query planning, on top of the engine's execute() fan-out.
    ExperimentConfig config = smallConfig("maxscore");
    config.traceQueries = 100;
    Experiment experiment(config);
    expectDeterministicReplay(experiment, "oracle");
}

TEST(ParallelDeterminismGroundTruth, GlobalTopKMatchesSequential)
{
    Experiment experiment(smallConfig("maxscore"));
    const QueryTrace &trace = experiment.trace(TraceFlavor::Lucene);
    const std::size_t probe = std::min<std::size_t>(trace.size(), 100);

    ThreadPool::setGlobalThreads(1);
    std::vector<std::vector<ScoredDoc>> sequential;
    for (std::size_t q = 0; q < probe; ++q)
        sequential.push_back(experiment.engine().globalTopK(trace.query(q)));

    ThreadPool::setGlobalThreads(8);
    std::vector<std::vector<ScoredDoc>> parallel;
    for (std::size_t q = 0; q < probe; ++q)
        parallel.push_back(experiment.engine().globalTopK(trace.query(q)));
    ThreadPool::setGlobalThreads(1);

    for (std::size_t q = 0; q < probe; ++q) {
        ASSERT_EQ(sequential[q].size(), parallel[q].size()) << "query " << q;
        for (std::size_t i = 0; i < sequential[q].size(); ++i) {
            ASSERT_EQ(sequential[q][i].doc, parallel[q][i].doc)
                << "query " << q << " rank " << i;
            // Bitwise: the merge order is fixed, so not even the
            // floating-point representation may drift.
            double a = sequential[q][i].score;
            double b = parallel[q][i].score;
            ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                << "query " << q << " rank " << i;
        }
    }
}

TEST(ParallelDeterminismObservability, TracingNeverPerturbsMeasurements)
{
    // The observability contract, half one: with tracing and metrics
    // attached, every measured byte is identical to the
    // uninstrumented replay — the hooks only read what the simulation
    // already computed.
    ExperimentConfig plain = smallConfig("maxscore");
    ExperimentConfig instrumented = smallConfig("maxscore");
    instrumented.traceOut =
        ::testing::TempDir() + "parallel_obs_trace.jsonl";
    instrumented.metricsOut =
        ::testing::TempDir() + "parallel_obs_metrics.json";

    Experiment plainExperiment(std::move(plain));
    Experiment instrumentedExperiment(std::move(instrumented));
    for (const char *policy : {"exhaustive", "taily"}) {
        const RunResult off =
            plainExperiment.run(policy, TraceFlavor::Wikipedia);
        const RunResult on =
            instrumentedExperiment.run(policy, TraceFlavor::Wikipedia);
        EXPECT_EQ(serializeMeasurements(off.measurements),
                  serializeMeasurements(on.measurements))
            << policy << ": tracing perturbed the measurement stream";
        EXPECT_EQ(toJson(off.summary), toJson(on.summary))
            << policy << ": tracing perturbed the run summary";
    }
}

TEST(ParallelDeterminismObservability, TraceStreamIsBitExactAcrossThreads)
{
    // Half two: the recorded span stream itself is deterministic at
    // any host thread count (spans are collected during the
    // sequential cluster advance, in fixed shard order).
    ExperimentConfig config = smallConfig("maxscore");
    config.traceOut = ::testing::TempDir() + "parallel_obs_threads.jsonl";
    config.metricsOut =
        ::testing::TempDir() + "parallel_obs_threads_metrics.json";
    Experiment experiment(std::move(config));

    const auto replayJsonl = [&experiment](const std::string &policy) {
        const RunResult result =
            experiment.run(policy, TraceFlavor::Wikipedia);
        std::ostringstream trace;
        result.trace->writeJsonl(trace, result.summary.policy,
                                 result.summary.trace);
        return std::make_pair(trace.str(),
                              result.metrics->toJson(
                                  result.summary.policy,
                                  result.summary.trace));
    };

    for (const char *policy : {"exhaustive", "taily"}) {
        ThreadPool::setGlobalThreads(1);
        const auto sequential = replayJsonl(policy);
        ThreadPool::setGlobalThreads(8);
        const auto parallel = replayJsonl(policy);
        ThreadPool::setGlobalThreads(1);
        EXPECT_EQ(sequential.first, parallel.first)
            << policy << ": JSONL trace streams diverge across threads";
        EXPECT_EQ(sequential.second, parallel.second)
            << policy << ": metrics JSON diverges across threads";
    }
}

/** Bitwise serialization of a serving-mode measurement stream. */
std::string
serializeServing(const std::vector<ServingMeasurement> &measurements)
{
    std::string buffer;
    std::vector<QueryMeasurement> inner;
    inner.reserve(measurements.size());
    for (const ServingMeasurement &record : measurements) {
        appendBytes(buffer, record.outcome);
        appendBytes(buffer, record.worstBacklogSeconds);
        appendBytes(buffer, record.isnsShed);
        appendBytes(buffer, record.isnsUnavailable);
        inner.push_back(record.measurement);
    }
    return buffer + serializeMeasurements(inner);
}

TEST(ParallelDeterminismScenario, ScenarioServeIsBitExactAcrossThreadCounts)
{
    // The scenario layer composes every new moving part — shaped
    // multi-tenant arrivals, the merged stream, hostile cluster
    // shapes, per-tenant SLO budgets — on top of the serving loop.
    // All of it must stay a pure function of seeds and simulated
    // time: byte-identical at any host thread count.
    ExperimentConfig config = smallConfig("maxscore");
    config.serving.resultCacheCapacity = 128;
    config.serving.statsCacheCapacity = 512;
    Experiment experiment(std::move(config));

    for (const char *name : {"flash_crowd", "straggler_isn"}) {
        const ScenarioConfig scenario = scenarioByName(name, 4.0);

        ThreadPool::setGlobalThreads(1);
        const ScenarioRunResult sequential =
            experiment.runScenario("taily", scenario);
        ThreadPool::setGlobalThreads(8);
        const ScenarioRunResult parallel =
            experiment.runScenario("taily", scenario);
        ThreadPool::setGlobalThreads(1);

        ASSERT_EQ(sequential.measurements.size(),
                  parallel.measurements.size());
        EXPECT_EQ(serializeServing(sequential.measurements),
                  serializeServing(parallel.measurements))
            << name
            << ": scenario streams diverge across thread counts";
        EXPECT_EQ(toJson(sequential.summary), toJson(parallel.summary))
            << name
            << ": scenario summaries (incl. per-tenant rollups) "
               "diverge across thread counts";
    }
}

/**
 * The intra-query driver's whole contract in one property: the merged
 * top-K of a range-partitioned traversal is bit-identical to the
 * sequential evaluation — for every evaluator, at every gang width,
 * including demoting (negative) term weights. Work counters are NOT
 * compared: slices warm their pruning thresholds independently, so a
 * gang legitimately scores more docs; only the ranking is invariant.
 */
TEST(ParallelSearchProperty, MergedTopKIsBitIdenticalToSequentialAtAnyWidth)
{
    CorpusConfig corpusConfig;
    corpusConfig.numDocs = 3000;
    corpusConfig.vocabSize = 6000;
    const Corpus corpus = Corpus::generate(corpusConfig);
    ShardedIndexConfig shardConfig;
    shardConfig.numShards = 1;
    const ShardedIndex index(corpus, shardConfig);

    TraceConfig traceConfig;
    traceConfig.flavor = TraceFlavor::Wikipedia;
    traceConfig.numQueries = 40;
    traceConfig.vocabSize = corpusConfig.vocabSize;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    ThreadPool::setGlobalThreads(8);
    for (const char *name :
         {"exhaustive", "maxscore", "wand", "bmw"}) {
        const std::unique_ptr<Evaluator> evaluator =
            Experiment::makeEvaluator(name);
        for (std::size_t q = 0; q < trace.size(); ++q) {
            std::vector<WeightedTerm> terms =
                DistributedEngine::weightedTerms(trace.query(q));
            // Odd queries demote their first term: pruning bounds
            // must stay rank-safe on every slice for negative weights
            // too.
            if (q % 2 == 1 && !terms.empty())
                terms.front().weight = -0.5;
            const SearchResult sequential = parallelShardSearch(
                *evaluator, index.shard(0), terms, index.topK(),
                noDocCap, 1);
            for (const uint32_t cores : {2u, 4u, 8u}) {
                const SearchResult parallel = parallelShardSearch(
                    *evaluator, index.shard(0), terms, index.topK(),
                    noDocCap, cores);
                ASSERT_EQ(sequential.topK.size(), parallel.topK.size())
                    << name << " query " << q << " cores " << cores;
                for (std::size_t i = 0; i < sequential.topK.size(); ++i) {
                    ASSERT_EQ(sequential.topK[i].doc,
                              parallel.topK[i].doc)
                        << name << " query " << q << " cores " << cores
                        << " rank " << i;
                    double a = sequential.topK[i].score;
                    double b = parallel.topK[i].score;
                    ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                        << name << " query " << q << " cores " << cores
                        << " rank " << i;
                }
            }
        }
    }
    ThreadPool::setGlobalThreads(1);
}

/**
 * The whole-list evaluators read block lists, but their work must not
 * depend on how the lists are blocked: exhaustive, maxscore and wand
 * report the counters they reported over flat arrays (DESIGN.md §5e),
 * so their SearchWork and top-K are identical at block sizes 64, 128
 * and 256 — on whole shards and on every gang slice, capped or not.
 * This is what keeps every simulated number unchanged; a block counter
 * leaking into their work, or a seek charging skips per block, fails
 * it.
 */
TEST(ParallelSearchProperty, WholeListWorkIsIndependentOfBlockSize)
{
    Rng rng(0x5EEDB10Cu);
    for (int round = 0; round < 3; ++round) {
        CorpusConfig corpusConfig;
        corpusConfig.numDocs =
            600 + static_cast<uint32_t>(rng.uniformInt(0, 1400));
        corpusConfig.vocabSize =
            1000 + static_cast<uint32_t>(rng.uniformInt(0, 3000));
        corpusConfig.meanDocLength = 40.0 + 80.0 * rng.uniform();
        corpusConfig.seed = rng.next();
        const Corpus corpus = Corpus::generate(corpusConfig);
        const auto stats = std::make_shared<CollectionStats>(corpus);
        std::vector<DocId> allDocs(corpus.numDocs());
        for (DocId d = 0; d < corpus.numDocs(); ++d)
            allDocs[d] = d;
        std::vector<std::unique_ptr<InvertedIndex>> indexes;
        for (const uint32_t blockSize : {64u, 128u, 256u})
            indexes.push_back(std::make_unique<InvertedIndex>(
                corpus, allDocs, stats, Bm25Params{}, blockSize));
        const uint32_t numDocs = corpus.numDocs();

        TraceConfig traceConfig;
        traceConfig.numQueries = 40;
        traceConfig.vocabSize = corpusConfig.vocabSize;
        traceConfig.seed = rng.next();
        const QueryTrace trace = QueryTrace::generate(traceConfig);

        for (const char *name : {"exhaustive", "maxscore", "wand"}) {
            const std::unique_ptr<Evaluator> evaluator =
                Experiment::makeEvaluator(name);
            for (std::size_t q = 0; q < trace.size(); ++q) {
                std::vector<WeightedTerm> terms =
                    toWeighted(trace.query(q).terms);
                if (q % 2 == 1)
                    terms.front().weight = -0.5;
                for (const uint32_t cores : {1u, 2u, 4u}) {
                    for (uint32_t slice = 0; slice < cores; ++slice) {
                        for (const uint64_t cap : {noDocCap, uint64_t{7}}) {
                            const DocRange range =
                                sliceRange(numDocs, cores, slice);
                            const uint64_t sliceCap =
                                sliceDocCap(cap, cores, slice);
                            const SearchResult base = evaluator->search(
                                *indexes[0], terms, 10, sliceCap, range);
                            EXPECT_EQ(base.work.blocksDecoded, 0u);
                            EXPECT_EQ(base.work.blocksSkipped, 0u);
                            EXPECT_EQ(base.work.postingsSkipped,
                                      base.work.docsSkipped);
                            for (std::size_t b = 1; b < indexes.size();
                                 ++b) {
                                const SearchResult other =
                                    evaluator->search(*indexes[b], terms,
                                                      10, sliceCap, range);
                                ASSERT_TRUE(other.work == base.work)
                                    << name << " query " << q << " cores "
                                    << cores << " slice " << slice
                                    << " cap " << cap << " block size "
                                    << indexes[b]->blockSize();
                                ASSERT_EQ(other.topK.size(),
                                          base.topK.size());
                                for (std::size_t i = 0;
                                     i < base.topK.size(); ++i) {
                                    ASSERT_EQ(other.topK[i].doc,
                                              base.topK[i].doc);
                                    const double x = other.topK[i].score;
                                    const double y = base.topK[i].score;
                                    ASSERT_EQ(
                                        std::memcmp(&x, &y, sizeof x), 0);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/**
 * One gang-matrix cell: an evaluator at a planned gang width. Cottage
 * with maxCoresPerQuery > 1 crosses every new moving part — the joint
 * (cores x frequency) grid, gang dispatch in the simulator, and the
 * parallel traversal driver on the measurement path.
 */
struct GangCell
{
    const char *evaluator;
    uint32_t isnCores;
};

std::string
gangCellName(const ::testing::TestParamInfo<GangCell> &info)
{
    return std::string(info.param.evaluator) + "_cores" +
           std::to_string(info.param.isnCores);
}

class ParallelDeterminismGangs : public ::testing::TestWithParam<GangCell>
{
};

TEST_P(ParallelDeterminismGangs, CottageReplayIsBitExactAcrossThreadCounts)
{
    ExperimentConfig config = smallConfig(GetParam().evaluator);
    config.coresPerIsn = 4;
    config.isnCores = GetParam().isnCores;
    config.cottage.maxCoresPerQuery = GetParam().isnCores;
    config.trainQueries = 120;
    config.train.iterations = 60;
    Experiment experiment(std::move(config));
    expectDeterministicReplay(experiment, "cottage");
}

INSTANTIATE_TEST_SUITE_P(
    Evaluators, ParallelDeterminismGangs,
    ::testing::Values(GangCell{"wand", 1}, GangCell{"wand", 2},
                      GangCell{"wand", 4}, GangCell{"bmw", 1},
                      GangCell{"bmw", 2}, GangCell{"bmw", 4},
                      GangCell{"maxscore", 2}, GangCell{"maxscore", 4}),
    gangCellName);

TEST(ParallelDeterminismCottageAblations, ReplayIsBitExactAcrossThreadCounts)
{
    // The ablations share Cottage's per-ISN inference: cottage-isn
    // runs the top-K head alone, cottage-without-ml fans the latency
    // predictions out over the pool after a Gamma quality estimate.
    ExperimentConfig config = smallConfig("maxscore");
    config.trainQueries = 120;
    config.train.iterations = 60;
    Experiment experiment(std::move(config));
    expectDeterministicReplay(experiment, "cottage-isn");
    expectDeterministicReplay(experiment, "cottage-without-ml");
}

TEST(ParallelDeterminismGangs, TraceStreamIsBitExactAcrossThreadsWithGangs)
{
    // The recorded span stream — including each span's gang width
    // ("cores") — must itself replay byte-identically at any host
    // thread count when gangs are in play.
    ExperimentConfig config = smallConfig("wand");
    config.coresPerIsn = 4;
    config.isnCores = 4;
    config.cottage.maxCoresPerQuery = 4;
    config.trainQueries = 120;
    config.train.iterations = 60;
    config.traceOut = ::testing::TempDir() + "parallel_gang_trace.jsonl";
    config.metricsOut =
        ::testing::TempDir() + "parallel_gang_metrics.json";
    Experiment experiment(std::move(config));

    const auto replayJsonl = [&experiment]() {
        const RunResult result =
            experiment.run("cottage", TraceFlavor::Wikipedia);
        std::ostringstream trace;
        result.trace->writeJsonl(trace, result.summary.policy,
                                 result.summary.trace);
        return std::make_pair(trace.str(),
                              result.metrics->toJson(
                                  result.summary.policy,
                                  result.summary.trace));
    };

    ThreadPool::setGlobalThreads(1);
    const auto sequential = replayJsonl();
    ThreadPool::setGlobalThreads(8);
    const auto parallel = replayJsonl();
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(sequential.first, parallel.first)
        << "gang JSONL trace streams diverge across threads";
    EXPECT_EQ(sequential.second, parallel.second)
        << "gang metrics JSON diverges across threads";
    EXPECT_NE(sequential.first.find("\"cores\":"), std::string::npos)
        << "gang trace never recorded a span gang width";
}

TEST(ParallelDeterminismTraining, TrainingSetsMatchSequential)
{
    ExperimentConfig config = smallConfig("maxscore");
    Experiment experiment(config);

    TraceConfig tc;
    tc.numQueries = 60;
    tc.vocabSize = config.corpus.vocabSize;
    tc.seed = 4021;
    const QueryTrace trace = QueryTrace::generate(tc);

    ThreadPool::setGlobalThreads(1);
    const TrainingSets sequential =
        buildTrainingSets(experiment.index(), experiment.evaluator(),
                          config.work, trace, config.train.numBuckets);
    ThreadPool::setGlobalThreads(8);
    const TrainingSets parallel =
        buildTrainingSets(experiment.index(), experiment.evaluator(),
                          config.work, trace, config.train.numBuckets);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(sequential.shards.size(), parallel.shards.size());
    for (std::size_t s = 0; s < sequential.shards.size(); ++s) {
        const ShardDatasets &a = sequential.shards[s];
        const ShardDatasets &b = parallel.shards[s];
        auto expectDatasetsEqual = [s](const Dataset &lhs,
                                       const Dataset &rhs,
                                       const char *which) {
            ASSERT_EQ(lhs.size(), rhs.size()) << which << " shard " << s;
            for (std::size_t i = 0; i < lhs.size(); ++i) {
                ASSERT_EQ(lhs.label(i), rhs.label(i))
                    << which << " shard " << s << " sample " << i;
                ASSERT_EQ(std::memcmp(lhs.features(i), rhs.features(i),
                                      lhs.numFeatures() * sizeof(double)),
                          0)
                    << which << " shard " << s << " sample " << i;
            }
        };
        expectDatasetsEqual(a.qualityK, b.qualityK, "qualityK");
        expectDatasetsEqual(a.qualityHalf, b.qualityHalf, "qualityHalf");
        expectDatasetsEqual(a.latency, b.latency, "latency");
    }
}

} // namespace
} // namespace cottage
