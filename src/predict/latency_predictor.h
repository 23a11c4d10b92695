/**
 * @file
 * Per-ISN service-time predictor (paper §III-C).
 *
 * Predicts the *cycles* a query will cost the ISN, as classification
 * over log-spaced cycle buckets (the paper's latency predictor has
 * "more neurons on the output layer due to the higher variability").
 * Predicting cycles instead of seconds makes the model frequency-
 * independent: service time at frequency f is cycles / f (Eq. 1), and
 * equivalent latency adds the queue backlog (Eq. 2) — both are
 * computed by the caller from the cycle prediction.
 */

#ifndef COTTAGE_PREDICT_LATENCY_PREDICTOR_H
#define COTTAGE_PREDICT_LATENCY_PREDICTOR_H

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/mlp.h"
#include "predict/features.h"

namespace cottage {

/** Log-spaced cycle buckets shared by training labels and outputs. */
class CycleBuckets
{
  public:
    /**
     * @param minCycles Lower edge of the first bucket (> 0).
     * @param maxCycles Upper edge of the last bucket.
     * @param count Number of buckets.
     */
    CycleBuckets(double minCycles, double maxCycles, std::size_t count);

    std::size_t count() const { return count_; }
    double minCycles() const { return minCycles_; }
    double maxCycles() const { return maxCycles_; }

    /** Bucket a cycle count falls into (saturating at both ends). */
    uint32_t bucketOf(double cycles) const;

    /** Geometric center of a bucket: the cycle value it stands for. */
    double representativeCycles(uint32_t bucket) const;

    /**
     * Upper edge of a bucket. Budget decisions use this conservative
     * value: under-estimating a service time turns into a missed
     * deadline and a dropped response, which costs quality directly.
     */
    double upperCycles(uint32_t bucket) const;

  private:
    double minCycles_;
    double maxCycles_;
    std::size_t count_;
    double logMin_;
    double logMax_;
};

/** MLP cycle-bucket classifier for one ISN. */
class LatencyPredictor
{
  public:
    LatencyPredictor(const CycleBuckets &buckets,
                     const std::vector<std::size_t> &hiddenLayers,
                     uint64_t seed);

    const CycleBuckets &buckets() const { return buckets_; }

    /** Train on Table II features with bucket labels. */
    double train(const Dataset &data, std::size_t iterations,
                 const AdamConfig &adam = {});

    /** Most probable bucket. */
    uint32_t predictBucket(const std::vector<double> &features) const;

    /** Representative cycles of the most probable bucket. */
    double predictCycles(const std::vector<double> &features) const;

    /**
     * Conservative prediction: the upper edge of the most probable
     * bucket — exactly one log-bucket width above its lower edge.
     * Additional safety margin against under-prediction is the
     * caller's job (CottageConfig::budgetSlack); stacking it here
     * would double-count the slack and inflate every budget.
     */
    double predictCyclesConservative(
        const std::vector<double> &features) const;

    /**
     * The same prediction from a Table II feature array
     * (numLatencyFeatures values), computed in caller-owned scratch.
     */
    double predictCyclesConservative(const double *features,
                                     MlpScratch &scratch) const;

    /** Probability-weighted expected cycles (smoother estimate). */
    double expectedCycles(const std::vector<double> &features) const;

    /**
     * Fraction of samples predicted within +/- @p tolerance buckets
     * of the truth. tolerance 0 is exact-label accuracy; the paper's
     * "87% accurate latency prediction" corresponds to tolerance 1 on
     * our bucketing.
     */
    double accuracyWithin(const Dataset &data, uint32_t tolerance) const;

    /** Serialize buckets + model. */
    void save(std::ostream &out) const;

    /**
     * Restore a predictor saved with save(). Malformed input exits 2
     * (see MlpClassifier::load), and so do a model whose shape does not match the
     * buckets and the latency features.
     */
    static LatencyPredictor load(std::istream &in);

  private:
    CycleBuckets buckets_;
    MlpClassifier model_;
};

} // namespace cottage

#endif // COTTAGE_PREDICT_LATENCY_PREDICTOR_H
