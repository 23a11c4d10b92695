#include "predict/quality_predictor.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/checked_reader.h"
#include "util/logging.h"

namespace cottage {

namespace {

MlpConfig
headConfig(std::size_t k, std::size_t numClasses,
           const std::vector<std::size_t> &hiddenLayers, uint64_t seed)
{
    COTTAGE_CHECK_MSG(k >= 2, "quality predictor needs K >= 2");
    MlpConfig config;
    config.inputDim = numQualityFeatures;
    config.numClasses = numClasses;
    config.hiddenLayers = hiddenLayers;
    config.seed = seed;
    return config;
}

/** Argmax and 1 - P[class 0] of one head's softmax row. */
HeadEstimate
headEstimate(const MlpClassifier &head, const double *features,
             MlpScratch &scratch)
{
    const double *probs = head.forward(features, scratch);
    HeadEstimate estimate;
    estimate.count = static_cast<uint32_t>(
        std::max_element(probs, probs + head.config().numClasses) - probs);
    estimate.probNonzero = 1.0 - probs[0];
    return estimate;
}

} // namespace

QualityPredictor::QualityPredictor(
    std::size_t k, const std::vector<std::size_t> &hiddenLayers,
    uint64_t seed)
    : k_(k),
      headK_(headConfig(k, k + 1, hiddenLayers, seed)),
      headHalf_(headConfig(k, k / 2 + 1, hiddenLayers, seed ^ 0xabcdefull))
{
}

QualityPredictor::QualityPredictor(std::size_t k, MlpClassifier headK,
                                   MlpClassifier headHalf)
    : k_(k), headK_(std::move(headK)), headHalf_(std::move(headHalf))
{
}

double
QualityPredictor::train(const Dataset &topK, const Dataset &topHalf,
                        std::size_t iterations, const AdamConfig &adam)
{
    headK_.fitNormalization(topK);
    headHalf_.fitNormalization(topHalf);
    const double loss = headK_.train(topK, iterations, adam);
    headHalf_.train(topHalf, iterations, adam);
    return loss;
}

QualityEstimate
QualityPredictor::estimate(const double *features, MlpScratch &scratch) const
{
    QualityEstimate estimate;
    estimate.topK = headEstimate(headK_, features, scratch);
    estimate.topHalf = headEstimate(headHalf_, features, scratch);
    return estimate;
}

HeadEstimate
QualityPredictor::estimateTopK(const double *features,
                               MlpScratch &scratch) const
{
    return headEstimate(headK_, features, scratch);
}

uint32_t
QualityPredictor::predictTopK(const std::vector<double> &features) const
{
    COTTAGE_CHECK(features.size() == numQualityFeatures);
    return headK_.predict(features.data());
}

uint32_t
QualityPredictor::predictTopHalf(const std::vector<double> &features) const
{
    COTTAGE_CHECK(features.size() == numQualityFeatures);
    return headHalf_.predict(features.data());
}

double
QualityPredictor::probNonzeroTopK(const std::vector<double> &features) const
{
    COTTAGE_CHECK(features.size() == numQualityFeatures);
    return 1.0 - headK_.probabilities(features.data())[0];
}

double
QualityPredictor::probNonzeroTopHalf(
    const std::vector<double> &features) const
{
    COTTAGE_CHECK(features.size() == numQualityFeatures);
    return 1.0 - headHalf_.probabilities(features.data())[0];
}

double
QualityPredictor::accuracyTopK(const Dataset &data) const
{
    return headK_.accuracy(data);
}

double
QualityPredictor::accuracyTopHalf(const Dataset &data) const
{
    return headHalf_.accuracy(data);
}

void
QualityPredictor::save(std::ostream &out) const
{
    out << "cottage-quality " << k_ << '\n';
    headK_.save(out);
    headHalf_.save(out);
}

QualityPredictor
QualityPredictor::load(std::istream &in)
{
    CheckedReader reader(in, "cottage quality predictor");
    if (reader.word("magic") != "cottage-quality")
        reader.fail("not a cottage quality-predictor file");
    const std::size_t k =
        reader.integer("k", 2, MlpClassifier::kMaxLoadWidth - 1);
    MlpClassifier headK = MlpClassifier::load(in);
    MlpClassifier headHalf = MlpClassifier::load(in);
    for (const MlpClassifier *head : {&headK, &headHalf}) {
        if (head->config().inputDim != numQualityFeatures)
            reader.fail("a head does not take the quality features");
    }
    if (headK.config().numClasses != k + 1 ||
        headHalf.config().numClasses != k / 2 + 1)
        reader.fail("head class counts do not match k");
    return QualityPredictor(k, std::move(headK), std::move(headHalf));
}

} // namespace cottage
