#include "predict/training.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "index/top_k.h"
#include "util/checked_reader.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cottage {

namespace {

/** Most ISNs a saved bank may declare; bounds what load() allocates. */
constexpr std::size_t kMaxShards = 4096;

} // namespace

TrainingSets
buildTrainingSets(const ShardedIndex &index, const Evaluator &evaluator,
                  const WorkModel &work, const QueryTrace &trace,
                  std::size_t numBuckets)
{
    COTTAGE_CHECK_MSG(trace.size() >= 10, "training trace too small");
    const ShardId numShards = index.numShards();
    const std::size_t k = index.topK();

    TrainingSets sets;
    sets.shards.resize(numShards);

    // Pass 1: run every training query on every shard once, recording
    // per-shard work (cycles) and the merged global ranking. Queries
    // are independent, so the trace fans out over the pool with one
    // slot per query; the min/max cycle reduction happens sequentially
    // afterwards so the bucket edges stay bit-identical at any thread
    // count.
    std::vector<std::vector<double>> cyclesPerQuery(
        trace.size(), std::vector<double>(numShards, 0.0));
    std::vector<std::vector<uint32_t>> labelK(
        trace.size(), std::vector<uint32_t>(numShards, 0));
    std::vector<std::vector<uint32_t>> labelHalf(
        trace.size(), std::vector<uint32_t>(numShards, 0));

    ThreadPool::global().parallelFor(0, trace.size(), [&](std::size_t q) {
        const Query &query = trace.query(q);
        std::vector<WeightedTerm> weighted;
        weighted.reserve(query.terms.size());
        for (std::size_t i = 0; i < query.terms.size(); ++i)
            weighted.push_back({query.terms[i], query.weight(i)});
        TopKHeap merged(k);
        for (ShardId s = 0; s < numShards; ++s) {
            const SearchResult result =
                evaluator.search(index.shard(s), weighted, k);
            cyclesPerQuery[q][s] = work.cycles(result.work);
            for (const ScoredDoc &hit : result.topK)
                merged.push(hit);
        }
        const std::vector<ScoredDoc> ranking = merged.extractSorted();
        for (std::size_t rank = 0; rank < ranking.size(); ++rank) {
            const ShardId owner = index.shardOf(ranking[rank].doc);
            ++labelK[q][owner];
            if (rank < k / 2)
                ++labelHalf[q][owner];
        }
    });

    double minCycles = 1e300;
    double maxCycles = 0.0;
    for (std::size_t q = 0; q < trace.size(); ++q) {
        for (ShardId s = 0; s < numShards; ++s) {
            minCycles = std::min(minCycles, cyclesPerQuery[q][s]);
            maxCycles = std::max(maxCycles, cyclesPerQuery[q][s]);
        }
    }

    // Bucket the observed cycle range with some headroom so unseen
    // heavier queries still land inside the top bucket sensibly.
    sets.buckets = CycleBuckets(std::max(1.0, minCycles * 0.8),
                                maxCycles * 1.25, numBuckets);

    // Pass 2: materialize per-shard datasets (one slot per shard).
    ThreadPool::global().parallelFor(0, numShards, [&](std::size_t sIdx) {
        const ShardId s = static_cast<ShardId>(sIdx);
        const TermStatsStore &stats = index.termStats(s);
        ShardDatasets &shard = sets.shards[s];
        for (std::size_t q = 0; q < trace.size(); ++q) {
            const Query &query = trace.query(q);
            std::vector<WeightedTerm> weighted;
            weighted.reserve(query.terms.size());
            for (std::size_t i = 0; i < query.terms.size(); ++i)
                weighted.push_back({query.terms[i], query.weight(i)});
            const std::vector<double> qf =
                qualityFeatures(stats, weighted);
            const std::vector<double> lf =
                latencyFeatures(stats, weighted);
            shard.qualityK.add(qf, std::min<uint32_t>(
                                       labelK[q][s],
                                       static_cast<uint32_t>(k)));
            shard.qualityHalf.add(
                qf, std::min<uint32_t>(labelHalf[q][s],
                                       static_cast<uint32_t>(k / 2)));
            shard.latency.add(lf,
                              sets.buckets.bucketOf(cyclesPerQuery[q][s]));
        }
    });
    return sets;
}

PredictorBank::PredictorBank(const ShardedIndex &index,
                             const Evaluator &evaluator,
                             const WorkModel &work,
                             const QueryTrace &trainTrace,
                             const PredictorTrainConfig &config)
{
    const TrainingSets sets = buildTrainingSets(
        index, evaluator, work, trainTrace, config.numBuckets);
    buckets_ = sets.buckets;

    const ShardId numShards = index.numShards();
    quality_.resize(numShards);
    latency_.resize(numShards);
    // Per-ISN models with per-ISN seeds, as in the paper ("each ISN
    // has a separate neural network model trained with its own index
    // data"). Each shard's training is self-contained (own datasets,
    // own RNG seed), so the bank trains in parallel, one slot per
    // shard, with weights identical to the sequential run.
    ThreadPool::global().parallelFor(0, numShards, [&](std::size_t sIdx) {
        const ShardId s = static_cast<ShardId>(sIdx);
        auto qp = std::make_unique<QualityPredictor>(
            index.topK(), config.hiddenLayers, config.seed + 17 * s);
        qp->train(sets.shards[s].qualityK, sets.shards[s].qualityHalf,
                  config.iterations, config.adam);
        quality_[s] = std::move(qp);

        auto lp = std::make_unique<LatencyPredictor>(
            buckets_, config.hiddenLayers, config.seed + 17 * s + 7);
        lp->train(sets.shards[s].latency, config.iterations, config.adam);
        latency_[s] = std::move(lp);
    });
}

const QualityPredictor &
PredictorBank::quality(ShardId shard) const
{
    COTTAGE_CHECK(shard < quality_.size());
    return *quality_[shard];
}

const LatencyPredictor &
PredictorBank::latency(ShardId shard) const
{
    COTTAGE_CHECK(shard < latency_.size());
    return *latency_[shard];
}

void
PredictorBank::setInferenceOverheadSeconds(double seconds)
{
    COTTAGE_CHECK_MSG(std::isfinite(seconds) && seconds >= 0.0,
                      "overhead must be finite and non-negative");
    inferenceOverhead_ = seconds;
}

double
PredictorBank::coreCycleFactor(uint32_t cores) const
{
    COTTAGE_CHECK_MSG(cores >= 1, "core count must be positive");
    const std::size_t index =
        std::min<std::size_t>(cores - 1, coreCycleFactors_.size() - 1);
    return coreCycleFactors_[index];
}

void
PredictorBank::setCoreCycleFactors(std::vector<double> factors)
{
    COTTAGE_CHECK_MSG(!factors.empty(), "need at least the 1-core factor");
    COTTAGE_CHECK_MSG(factors.front() == 1.0,
                      "the 1-core factor must be exactly 1");
    for (double factor : factors)
        COTTAGE_CHECK_MSG(factor >= 1.0,
                          "core cycle factors must be >= 1 to stay "
                          "conservative");
    coreCycleFactors_ = std::move(factors);
}

void
PredictorBank::save(const std::string &directory) const
{
    std::filesystem::create_directories(directory);
    {
        std::ofstream meta(directory + "/bank.meta");
        if (!meta)
            fatal("cannot write " + directory + "/bank.meta");
        meta.precision(17);
        meta << "cottage-bank 1\n"
             << numShards() << ' ' << inferenceOverhead_ << '\n';
    }
    for (ShardId s = 0; s < numShards(); ++s) {
        std::ofstream qout(
            strformat("%s/quality-%02u.model", directory.c_str(), s));
        if (!qout)
            fatal("cannot write quality model for ISN " +
                  std::to_string(s));
        quality_[s]->save(qout);
        std::ofstream lout(
            strformat("%s/latency-%02u.model", directory.c_str(), s));
        if (!lout)
            fatal("cannot write latency model for ISN " +
                  std::to_string(s));
        latency_[s]->save(lout);
    }
}

PredictorBank
PredictorBank::load(const std::string &directory)
{
    std::ifstream meta(directory + "/bank.meta");
    if (!meta)
        fatal("cannot read " + directory + "/bank.meta");
    CheckedReader reader(meta, directory + "/bank.meta");
    if (reader.word("magic") != "cottage-bank")
        reader.fail("not a cottage predictor-bank directory");
    reader.integer("version", 1, 1);
    const std::size_t shards = reader.integer("ISN count", 1, kMaxShards);
    const double overhead = reader.finite("inference overhead");
    if (overhead < 0.0)
        reader.fail("inference overhead: cannot be negative");
    PredictorBank bank;
    bank.setInferenceOverheadSeconds(overhead);

    for (ShardId s = 0; s < shards; ++s) {
        std::ifstream qin(
            strformat("%s/quality-%02u.model", directory.c_str(), s));
        if (!qin)
            fatal("missing quality model for ISN " + std::to_string(s));
        bank.quality_.push_back(std::make_unique<QualityPredictor>(
            QualityPredictor::load(qin)));
        std::ifstream lin(
            strformat("%s/latency-%02u.model", directory.c_str(), s));
        if (!lin)
            fatal("missing latency model for ISN " + std::to_string(s));
        bank.latency_.push_back(std::make_unique<LatencyPredictor>(
            LatencyPredictor::load(lin)));
    }
    bank.buckets_ = bank.latency_.front()->buckets();
    return bank;
}

} // namespace cottage
