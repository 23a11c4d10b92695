/**
 * @file
 * Offline training pipeline for the per-ISN predictors.
 *
 * Labels come from running the training queries for real: the global
 * exhaustive top-K gives each shard's true quality contribution, and
 * the evaluator's work counters give each shard's true cycle cost.
 * This mirrors the paper's setup of "training the model with a large
 * amount of observed samples from the past".
 */

#ifndef COTTAGE_PREDICT_TRAINING_H
#define COTTAGE_PREDICT_TRAINING_H

#include <memory>
#include <vector>

#include "index/evaluator.h"
#include "nn/dataset.h"
#include "predict/latency_predictor.h"
#include "predict/quality_predictor.h"
#include "shard/sharded_index.h"
#include "sim/work_model.h"
#include "text/trace.h"

namespace cottage {

/** The three labeled datasets of one shard. */
struct ShardDatasets
{
    ShardDatasets()
        : qualityK(numQualityFeatures), qualityHalf(numQualityFeatures),
          latency(numLatencyFeatures)
    {
    }

    Dataset qualityK;    ///< Table I features, labels = docs in top-K
    Dataset qualityHalf; ///< Table I features, labels = docs in top-K/2
    Dataset latency;     ///< Table II features, labels = cycle buckets
};

/** Output of the dataset builder. */
struct TrainingSets
{
    std::vector<ShardDatasets> shards;
    CycleBuckets buckets{1.0, 2.0, 2}; // replaced by build()
};

/**
 * Build labeled datasets for every shard by executing a query trace
 * (retrieval only; no simulator state involved).
 *
 * @param index The sharded collection.
 * @param evaluator Retrieval strategy whose work defines latency labels.
 * @param work Cycle cost model.
 * @param trace Training queries.
 * @param numBuckets Latency label resolution.
 */
TrainingSets buildTrainingSets(const ShardedIndex &index,
                               const Evaluator &evaluator,
                               const WorkModel &work,
                               const QueryTrace &trace,
                               std::size_t numBuckets);

/** Hyper-parameters for training the predictor bank. */
struct PredictorTrainConfig
{
    /**
     * Hidden widths of every MLP. The paper uses five layers of 128;
     * the default here is smaller so the full 16-ISN bank trains in
     * seconds on one core — benches that reproduce Fig. 7/8 use the
     * paper architecture explicitly.
     */
    std::vector<std::size_t> hiddenLayers = {64, 64};

    /** Minibatch Adam steps per model. */
    std::size_t iterations = 1500;

    /** Latency label buckets. */
    std::size_t numBuckets = 20;

    /** Seed for weight initialization (per-shard offsets applied). */
    uint64_t seed = 2024;

    /** Optimizer settings. */
    AdamConfig adam;
};

/**
 * The trained per-ISN predictors Cottage consults: one quality and one
 * latency model per shard, as in the paper's distributed design.
 */
class PredictorBank
{
  public:
    /**
     * Build datasets from @p trainTrace and train every model.
     */
    PredictorBank(const ShardedIndex &index, const Evaluator &evaluator,
                  const WorkModel &work, const QueryTrace &trainTrace,
                  const PredictorTrainConfig &config = {});

    ShardId numShards() const { return static_cast<ShardId>(quality_.size()); }
    const QualityPredictor &quality(ShardId shard) const;
    const LatencyPredictor &latency(ShardId shard) const;
    const CycleBuckets &buckets() const { return buckets_; }

    /**
     * Wall-clock decision overhead the aggregator pays per query for
     * the coordination round (prediction inference + one RTT),
     * matching the paper's ~150 us envelope. Configurable because it
     * is a property of the deployment, not of the model.
     */
    double inferenceOverheadSeconds() const { return inferenceOverhead_; }

    /** Aborts unless @p seconds is finite and non-negative. */
    void setInferenceOverheadSeconds(double seconds);

    /**
     * Measured parallel-work inflation per core count: running the
     * evaluator across c slices re-scores more candidates than the
     * sequential pass (each slice's pruning threshold warms up
     * independently), so a c-core request costs
     * predictedCycles * coreCycleFactor(c). 1-indexed by core count
     * (entry 0 is one core and must be 1.0); entries are >= 1 so the
     * predictor stays conservative. Calibrated by the harness from
     * the real parallel driver; the default {1.0} models no inflation.
     */
    const std::vector<double> &coreCycleFactors() const
    {
        return coreCycleFactors_;
    }
    double coreCycleFactor(uint32_t cores) const;
    void setCoreCycleFactors(std::vector<double> factors);

    /**
     * Persist the whole bank (one quality + one latency model per ISN
     * plus a manifest) into a directory, creating it if needed.
     */
    void save(const std::string &directory) const;

    /**
     * Restore a bank saved with save(). A malformed bank.meta or model
     * file exits 2 with a diagnostic; the overhead goes through
     * setInferenceOverheadSeconds. A missing file is fatal (exit 1).
     */
    static PredictorBank load(const std::string &directory);

  private:
    PredictorBank() = default;

    std::vector<std::unique_ptr<QualityPredictor>> quality_;
    std::vector<std::unique_ptr<LatencyPredictor>> latency_;
    CycleBuckets buckets_{1.0, 2.0, 2};
    double inferenceOverhead_ = 150e-6;
    std::vector<double> coreCycleFactors_{1.0};
};

} // namespace cottage

#endif // COTTAGE_PREDICT_TRAINING_H
