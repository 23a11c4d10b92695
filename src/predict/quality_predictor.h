/**
 * @file
 * Per-ISN quality predictor (paper §III-B).
 *
 * Predicts how many of an ISN's documents will appear in the final
 * client-side top-K results, as a (K+1)-way classification over Table I
 * features. Cottage's optimizer additionally needs the contribution to
 * the more important top-K/2 prefix (Fig. 9), so the predictor carries
 * a second head trained on top-K/2 labels.
 */

#ifndef COTTAGE_PREDICT_QUALITY_PREDICTOR_H
#define COTTAGE_PREDICT_QUALITY_PREDICTOR_H

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/mlp.h"
#include "predict/features.h"

namespace cottage {

/** What one quality head says about one query on one ISN. */
struct HeadEstimate
{
    /** Most probable contribution count (the head's argmax). */
    uint32_t count = 0;

    /** Probability of a non-zero contribution, 1 - P[class 0]. */
    double probNonzero = 0.0;
};

/** Both heads' estimates: everything Cottage reads per ISN. */
struct QualityEstimate
{
    /** Contribution to the final top-K (Q^K). */
    HeadEstimate topK;

    /** Contribution to the final top-K/2 (Q^{K/2}). */
    HeadEstimate topHalf;
};

/** Two-headed MLP quality model for one ISN. */
class QualityPredictor
{
  public:
    /**
     * @param k Result depth K; labels are counts in [0, K].
     * @param hiddenLayers MLP hidden widths (paper: five x 128).
     * @param seed Weight-initialization seed.
     */
    QualityPredictor(std::size_t k,
                     const std::vector<std::size_t> &hiddenLayers,
                     uint64_t seed);

    std::size_t k() const { return k_; }

    /**
     * Train both heads. Labels in @p topK must be contributions to the
     * global top-K; labels in @p topHalf to the global top-K/2.
     * Returns the final training loss of the top-K head.
     */
    double train(const Dataset &topK, const Dataset &topHalf,
                 std::size_t iterations, const AdamConfig &adam = {});

    /**
     * Both heads on one Table I feature vector (numQualityFeatures
     * values): one forward pass per head, in @p scratch. Bit-identical
     * to the four single-value calls below.
     */
    QualityEstimate estimate(const double *features,
                             MlpScratch &scratch) const;

    /** The top-K head alone: one forward pass. */
    HeadEstimate estimateTopK(const double *features,
                              MlpScratch &scratch) const;

    /** Predicted number of documents in the final top-K (Q^K). */
    uint32_t predictTopK(const std::vector<double> &features) const;

    /** Predicted number of documents in the final top-K/2 (Q^{K/2}). */
    uint32_t predictTopHalf(const std::vector<double> &features) const;

    /**
     * Probability that the ISN contributes at least one document to
     * the top-K (1 - P[class 0]). Selection rules that must not
     * silently drop borderline contributors threshold on this instead
     * of taking the argmax.
     */
    double probNonzeroTopK(const std::vector<double> &features) const;

    /** Probability of a non-zero top-K/2 contribution. */
    double probNonzeroTopHalf(const std::vector<double> &features) const;

    /** Exact-label accuracy of the top-K head on a dataset. */
    double accuracyTopK(const Dataset &data) const;

    /** Exact-label accuracy of the top-K/2 head on a dataset. */
    double accuracyTopHalf(const Dataset &data) const;

    /** Serialize both heads. */
    void save(std::ostream &out) const;

    /**
     * Restore a predictor saved with save(). Malformed input exits 2
     * (see MlpClassifier::load), and so do heads whose shapes do not match k and the
     * quality features.
     */
    static QualityPredictor load(std::istream &in);

  private:
    QualityPredictor(std::size_t k, MlpClassifier headK,
                     MlpClassifier headHalf);

    std::size_t k_;
    MlpClassifier headK_;
    MlpClassifier headHalf_;
};

} // namespace cottage

#endif // COTTAGE_PREDICT_QUALITY_PREDICTOR_H
