#include "predict/latency_predictor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "util/checked_reader.h"
#include "util/logging.h"

namespace cottage {

CycleBuckets::CycleBuckets(double minCycles, double maxCycles,
                           std::size_t count)
    : minCycles_(minCycles), maxCycles_(maxCycles), count_(count)
{
    COTTAGE_CHECK_MSG(minCycles > 0.0, "cycle buckets need minCycles > 0");
    COTTAGE_CHECK_MSG(maxCycles > minCycles, "cycle bucket range inverted");
    COTTAGE_CHECK_MSG(count >= 2, "need at least two cycle buckets");
    logMin_ = std::log(minCycles_);
    logMax_ = std::log(maxCycles_);
}

uint32_t
CycleBuckets::bucketOf(double cycles) const
{
    if (cycles <= minCycles_)
        return 0;
    const double position =
        (std::log(cycles) - logMin_) / (logMax_ - logMin_);
    if (position >= 1.0)
        return static_cast<uint32_t>(count_ - 1);
    return static_cast<uint32_t>(position * static_cast<double>(count_));
}

double
CycleBuckets::representativeCycles(uint32_t bucket) const
{
    COTTAGE_CHECK(bucket < count_);
    const double width = (logMax_ - logMin_) / static_cast<double>(count_);
    return std::exp(logMin_ + (static_cast<double>(bucket) + 0.5) * width);
}

double
CycleBuckets::upperCycles(uint32_t bucket) const
{
    COTTAGE_CHECK(bucket < count_);
    const double width = (logMax_ - logMin_) / static_cast<double>(count_);
    return std::exp(logMin_ + (static_cast<double>(bucket) + 1.0) * width);
}

namespace {

MlpConfig
modelConfig(const CycleBuckets &buckets,
            const std::vector<std::size_t> &hiddenLayers, uint64_t seed)
{
    MlpConfig config;
    config.inputDim = numLatencyFeatures;
    config.numClasses = buckets.count();
    config.hiddenLayers = hiddenLayers;
    config.seed = seed;
    return config;
}

} // namespace

LatencyPredictor::LatencyPredictor(
    const CycleBuckets &buckets,
    const std::vector<std::size_t> &hiddenLayers, uint64_t seed)
    : buckets_(buckets),
      model_(modelConfig(buckets, hiddenLayers, seed))
{
}

double
LatencyPredictor::train(const Dataset &data, std::size_t iterations,
                        const AdamConfig &adam)
{
    model_.fitNormalization(data);
    return model_.train(data, iterations, adam);
}

uint32_t
LatencyPredictor::predictBucket(const std::vector<double> &features) const
{
    COTTAGE_CHECK(features.size() == numLatencyFeatures);
    return model_.predict(features.data());
}

double
LatencyPredictor::predictCycles(const std::vector<double> &features) const
{
    return buckets_.representativeCycles(predictBucket(features));
}

double
LatencyPredictor::predictCyclesConservative(
    const std::vector<double> &features) const
{
    // Upper edge of the predicted bucket: exactly one log-bucket of
    // headroom over the bucket's lower edge. The classifier saturates
    // at the top bucket, so the edge is always defined; any further
    // safety margin belongs to the caller (CottageConfig::budgetSlack),
    // not the predictor.
    return buckets_.upperCycles(predictBucket(features));
}

double
LatencyPredictor::predictCyclesConservative(const double *features,
                                            MlpScratch &scratch) const
{
    return buckets_.upperCycles(model_.predict(features, scratch));
}

double
LatencyPredictor::expectedCycles(const std::vector<double> &features) const
{
    COTTAGE_CHECK(features.size() == numLatencyFeatures);
    const std::vector<double> probs = model_.probabilities(features.data());
    double cycles = 0.0;
    for (uint32_t b = 0; b < probs.size(); ++b)
        cycles += probs[b] * buckets_.representativeCycles(b);
    return cycles;
}

double
LatencyPredictor::accuracyWithin(const Dataset &data,
                                 uint32_t tolerance) const
{
    COTTAGE_CHECK(!data.empty());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto predicted =
            static_cast<int64_t>(model_.predict(data.features(i)));
        const auto truth = static_cast<int64_t>(data.label(i));
        if (std::llabs(predicted - truth) <=
            static_cast<int64_t>(tolerance)) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(data.size());
}

void
LatencyPredictor::save(std::ostream &out) const
{
    out.precision(17);
    out << "cottage-latency " << buckets_.minCycles() << ' '
        << buckets_.maxCycles() << ' ' << buckets_.count() << '\n';
    model_.save(out);
}

LatencyPredictor
LatencyPredictor::load(std::istream &in)
{
    CheckedReader reader(in, "cottage latency predictor");
    if (reader.word("magic") != "cottage-latency")
        reader.fail("not a cottage latency-predictor file");
    const double minCycles = reader.finite("min cycles");
    const double maxCycles = reader.finite("max cycles");
    const std::size_t count =
        reader.integer("bucket count", 2, MlpClassifier::kMaxLoadWidth);
    if (!(minCycles > 0.0 && maxCycles > minCycles))
        reader.fail("cycle range must satisfy 0 < min < max");
    const CycleBuckets buckets(minCycles, maxCycles, count);
    LatencyPredictor predictor(buckets, {1}, 0);
    predictor.model_ = MlpClassifier::load(in);
    if (predictor.model_.config().inputDim != numLatencyFeatures ||
        predictor.model_.config().numClasses != count)
        reader.fail("model shape does not match the latency features "
                    "and buckets");
    return predictor;
}

} // namespace cottage
