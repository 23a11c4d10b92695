#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>

#include "nn/kernel_clones.h"
#include "util/checked_reader.h"
#include "util/logging.h"

namespace cottage {

namespace {

/** In-place numerically-stable softmax of one row. */
void
softmaxRow(double *row, std::size_t n)
{
    double peak = row[0];
    for (std::size_t i = 1; i < n; ++i)
        peak = std::max(peak, row[i]);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        row[i] = std::exp(row[i] - peak);
        total += row[i];
    }
    for (std::size_t i = 0; i < n; ++i)
        row[i] /= total;
}

/**
 * One Adam step over @p n parameters, then decoupled (AdamW-style)
 * weight decay when @p weightDecay > 0. The hyper-parameters are
 * copied into locals so the compiler can see that no store to a
 * parameter changes them, which lets it vectorize the loop; sqrt and
 * division round the same in a vector lane as in a scalar.
 */
void
adamUpdate(const AdamConfig &adam, double correction1, double correction2,
           std::size_t n, double *param, const double *grad, double *m,
           double *v, double weightDecay)
{
    const double beta1 = adam.beta1;
    const double beta2 = adam.beta2;
    const double learningRate = adam.learningRate;
    const double epsilon = adam.epsilon;
    for (std::size_t i = 0; i < n; ++i) {
        m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
        v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
        const double mHat = m[i] / correction1;
        const double vHat = v[i] / correction2;
        param[i] -= learningRate * mHat / (std::sqrt(vHat) + epsilon);
    }
    if (weightDecay > 0.0) {
        for (std::size_t i = 0; i < n; ++i)
            param[i] -= learningRate * weightDecay * param[i];
    }
}

/** Outputs of one dense layer held in registers per block. */
constexpr std::size_t kDenseBlock = 16;

/**
 * Operands of one single-sample dense layer: out = bias + the sum over
 * the @p count live inputs of value * weight row. Each row has fanOut
 * weights.
 */
struct DenseLayer
{
    const double *values;
    const double *const *rows;
    std::size_t count;
    const double *bias;
    std::size_t fanOut;
    double *out;
};

/**
 * Outputs j0 .. j0 + Width - 1 of a dense layer, accumulated in
 * registers: each starts at its bias and adds value * weight for the
 * live inputs in ascending order, the sum the unblocked loop forms.
 * Vectorizing across the block's outputs reorders no output's sum.
 */
template <std::size_t Width>
[[gnu::always_inline]] inline void
denseBlock(const DenseLayer &d, std::size_t j0)
{
    double acc[Width];
    for (std::size_t j = 0; j < Width; ++j)
        acc[j] = d.bias[j0 + j];
    for (std::size_t k = 0; k < d.count; ++k) {
        const double v = d.values[k];
        const double *w = d.rows[k] + j0;
        for (std::size_t j = 0; j < Width; ++j)
            acc[j] += v * w[j];
    }
    // Plain stores: a ReLU select here splits GCC's SLP tree and
    // leaves a quarter of the block scalar.
    for (std::size_t j = 0; j < Width; ++j)
        d.out[j0 + j] = acc[j];
}

/**
 * One dense layer: full blocks, then one 8-, 4-, 2- and 1-wide block
 * each as the remainder needs (11 classes are 8 + 2 + 1, 20 are
 * 16 + 4).
 */
COTTAGE_NN_CLONES COTTAGE_NN_SLP_ONLY void
denseLayer(const DenseLayer &d)
{
    std::size_t j0 = 0;
    for (; j0 + kDenseBlock <= d.fanOut; j0 += kDenseBlock)
        denseBlock<kDenseBlock>(d, j0);
    if (j0 + 8 <= d.fanOut) {
        denseBlock<8>(d, j0);
        j0 += 8;
    }
    if (j0 + 4 <= d.fanOut) {
        denseBlock<4>(d, j0);
        j0 += 4;
    }
    if (j0 + 2 <= d.fanOut) {
        denseBlock<2>(d, j0);
        j0 += 2;
    }
    if (j0 < d.fanOut)
        denseBlock<1>(d, j0);
}

} // namespace

MlpClassifier::MlpClassifier(const MlpConfig &config)
    : MlpClassifier(config, ShapeOnly{})
{
    // He-normal initialization suits ReLU layers.
    Rng rng(config.seed);
    for (Layer &layer : layers_) {
        const std::size_t fanIn = layer.weights.rows();
        const double scale = std::sqrt(2.0 / static_cast<double>(fanIn));
        for (std::size_t i = 0; i < fanIn; ++i)
            for (std::size_t j = 0; j < layer.weights.cols(); ++j)
                layer.weights(i, j) = rng.normal(0.0, scale);
    }
}

MlpClassifier::MlpClassifier(const MlpConfig &config, ShapeOnly)
    : config_(config)
{
    COTTAGE_CHECK_MSG(config.inputDim >= 1, "MLP needs input features");
    COTTAGE_CHECK_MSG(config.numClasses >= 2, "MLP needs >= 2 classes");

    featureMean_.assign(config.inputDim, 0.0);
    featureStd_.assign(config.inputDim, 1.0);

    std::vector<std::size_t> widths;
    widths.push_back(config.inputDim);
    for (std::size_t h : config.hiddenLayers) {
        COTTAGE_CHECK_MSG(h >= 1, "hidden layer width must be positive");
        widths.push_back(h);
    }
    widths.push_back(config.numClasses);
    maxWidth_ = *std::max_element(widths.begin(), widths.end());

    layers_.resize(widths.size() - 1);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        layers_[l].weights = Matrix(widths[l], widths[l + 1]);
        layers_[l].bias.assign(widths[l + 1], 0.0);
    }
}

void
MlpClassifier::fitNormalization(const Dataset &data)
{
    COTTAGE_CHECK(data.numFeatures() == config_.inputDim);
    COTTAGE_CHECK_MSG(!data.empty(), "cannot fit normalization on nothing");
    const double n = static_cast<double>(data.size());
    featureMean_.assign(config_.inputDim, 0.0);
    featureStd_.assign(config_.inputDim, 0.0);
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double *row = data.features(i);
        for (std::size_t f = 0; f < config_.inputDim; ++f)
            featureMean_[f] += row[f];
    }
    for (double &m : featureMean_)
        m /= n;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double *row = data.features(i);
        for (std::size_t f = 0; f < config_.inputDim; ++f) {
            const double d = row[f] - featureMean_[f];
            featureStd_[f] += d * d;
        }
    }
    for (double &s : featureStd_) {
        s = std::sqrt(s / n);
        if (s < 1e-9)
            s = 1.0; // constant feature: leave it centered only
    }
}

void
MlpClassifier::normalize(const double *features, double *out) const
{
    for (std::size_t f = 0; f < config_.inputDim; ++f)
        out[f] = (features[f] - featureMean_[f]) / featureStd_[f];
}

void
MlpClassifier::forwardBatch(std::vector<Matrix> &activations) const
{
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Layer &layer = layers_[l];
        Matrix &z = activations[l + 1];
        matmul(activations[l], layer.weights, z);
        // Selects, not branches: about half the pre-activations are
        // negative in no predictable order.
        const bool hidden = l + 1 < layers_.size();
        for (std::size_t r = 0; r < z.rows(); ++r) {
            double *row = z.row(r);
            for (std::size_t c = 0; c < z.cols(); ++c) {
                const double v = row[c] + layer.bias[c];
                row[c] = hidden && v < 0.0 ? 0.0 : v; // ReLU
            }
        }
    }
}

double
MlpClassifier::train(const Dataset &data, std::size_t iterations,
                     const AdamConfig &adam)
{
    COTTAGE_CHECK(data.numFeatures() == config_.inputDim);
    COTTAGE_CHECK_MSG(!data.empty(), "cannot train on an empty dataset");
    for (uint32_t label : data.labels())
        COTTAGE_CHECK_MSG(label < config_.numClasses, "label out of range");

    Rng rng(config_.seed ^ 0x5bd1e995u ^ adamStep_);
    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    std::size_t cursor = 0;

    const std::size_t batchSize = std::min(adam.batchSize, data.size());
    std::vector<uint32_t> batchLabels(batchSize);
    double lastLoss = 0.0;

    // The Adam moments are training state, shaped by the first train()
    // (zero, as Adam starts); a net that is only loaded never has any.
    for (Layer &layer : layers_) {
        if (layer.mWeights.size() != layer.weights.size()) {
            const std::size_t rows = layer.weights.rows();
            const std::size_t cols = layer.weights.cols();
            layer.mWeights = Matrix(rows, cols);
            layer.vWeights = Matrix(rows, cols);
            layer.mBias.assign(layer.bias.size(), 0.0);
            layer.vBias.assign(layer.bias.size(), 0.0);
        }
    }

    // Every buffer an iteration touches, shaped once: activations[0]
    // is the normalized minibatch, activations[l + 1] layer l's
    // output; deltas[l] is the loss gradient at layer l's output;
    // packedW[l] holds layer l's weights transposed for the delta
    // back-propagation.
    std::vector<Matrix> activations;
    std::vector<Matrix> deltas;
    std::vector<Matrix> gradW;
    std::vector<Matrix> packedW;
    std::vector<std::vector<double>> gradB;
    activations.emplace_back(batchSize, config_.inputDim);
    for (const Layer &layer : layers_) {
        activations.emplace_back(batchSize, layer.weights.cols());
        deltas.emplace_back(batchSize, layer.weights.cols());
        gradW.emplace_back(layer.weights.rows(), layer.weights.cols());
        packedW.emplace_back(layer.weights.cols(), layer.weights.rows());
        gradB.emplace_back(layer.bias.size());
    }
    Matrix &batch = activations.front();

    for (std::size_t iter = 0; iter < iterations; ++iter) {
        // Assemble the next minibatch (reshuffle at epoch boundaries).
        for (std::size_t b = 0; b < batchSize; ++b) {
            if (cursor >= order.size()) {
                rng.shuffle(order);
                cursor = 0;
            }
            const std::size_t sample = order[cursor++];
            normalize(data.features(sample), batch.row(b));
            batchLabels[b] = data.label(sample);
        }

        forwardBatch(activations);

        // Softmax + cross-entropy gradient at the output.
        Matrix &delta = deltas.back();
        delta = activations.back(); // same shape: copies in place
        double batchLoss = 0.0;
        for (std::size_t r = 0; r < batchSize; ++r) {
            double *row = delta.row(r);
            softmaxRow(row, config_.numClasses);
            const double p = std::max(row[batchLabels[r]], 1e-12);
            batchLoss -= std::log(p);
            row[batchLabels[r]] -= 1.0;
            for (std::size_t c = 0; c < config_.numClasses; ++c)
                row[c] /= static_cast<double>(batchSize);
        }
        lastLoss = batchLoss / static_cast<double>(batchSize);

        // Backpropagate and apply one Adam step per layer.
        ++adamStep_;
        const double correction1 =
            1.0 - std::pow(adam.beta1, static_cast<double>(adamStep_));
        const double correction2 =
            1.0 - std::pow(adam.beta2, static_cast<double>(adamStep_));

        for (std::size_t l = layers_.size(); l-- > 0;) {
            Layer &layer = layers_[l];
            const Matrix &activationIn = activations[l];
            const Matrix &delta = deltas[l];

            Matrix &layerGradW = gradW[l];
            matmulTransposeA(activationIn, delta, layerGradW);
            std::vector<double> &layerGradB = gradB[l];
            std::fill(layerGradB.begin(), layerGradB.end(), 0.0);
            for (std::size_t r = 0; r < delta.rows(); ++r) {
                const double *row = delta.row(r);
                for (std::size_t c = 0; c < delta.cols(); ++c)
                    layerGradB[c] += row[c];
            }

            if (l > 0) {
                Matrix &next = deltas[l - 1];
                matmulTransposeB(delta, layer.weights, next, packedW[l]);
                // ReLU derivative: gate by the post-activation sign.
                for (std::size_t r = 0; r < next.rows(); ++r) {
                    double *row = next.row(r);
                    const double *act = activationIn.row(r);
                    for (std::size_t c = 0; c < next.cols(); ++c)
                        row[c] = act[c] <= 0.0 ? 0.0 : row[c];
                }
            }

            // Adam.
            adamUpdate(adam, correction1, correction2, layer.weights.size(),
                       layer.weights.data(), layerGradW.data(),
                       layer.mWeights.data(), layer.vWeights.data(),
                       adam.weightDecay);
            adamUpdate(adam, correction1, correction2, layer.bias.size(),
                       layer.bias.data(), layerGradB.data(),
                       layer.mBias.data(), layer.vBias.data(), 0.0);
        }
    }
    return lastLoss;
}

const double *
MlpClassifier::forward(const double *features, MlpScratch &scratch) const
{
    if (scratch.ping.size() < maxWidth_) {
        scratch.ping.resize(maxWidth_);
        scratch.pong.resize(maxWidth_);
        scratch.liveInputs.resize(maxWidth_);
        scratch.liveRows.resize(maxWidth_);
    }
    double *current = scratch.ping.data();
    double *next = scratch.pong.data();
    double *values = scratch.liveInputs.data();
    const double **rows = scratch.liveRows.data();
    normalize(features, current);
    std::size_t fanIn = config_.inputDim;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Layer &layer = layers_[l];
        // Compact the non-zero inputs without a branch: every input is
        // written to the next free slot, which only a non-zero claims.
        // A skipped input adds nothing, not even a +-0 that could flip
        // a -0.0 bias.
        std::size_t count = 0;
        for (std::size_t i = 0; i < fanIn; ++i) {
            values[count] = current[i];
            rows[count] = layer.weights.row(i);
            count += current[i] != 0.0;
        }
        const std::size_t fanOut = layer.weights.cols();
        denseLayer({values, rows, count, layer.bias.data(), fanOut, next});
        // ReLU as a select, not a branch: about half the
        // pre-activations are negative in no predictable order. -0.0
        // passes through as itself.
        if (l + 1 < layers_.size()) {
            for (std::size_t j = 0; j < fanOut; ++j)
                next[j] = next[j] < 0.0 ? 0.0 : next[j];
        }
        std::swap(current, next);
        fanIn = fanOut;
    }
    softmaxRow(current, fanIn);
    return current;
}

double
MlpClassifier::loss(const Dataset &data) const
{
    COTTAGE_CHECK(!data.empty());
    MlpScratch scratch;
    double total = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double *probs = forward(data.features(i), scratch);
        total -= std::log(std::max(probs[data.label(i)], 1e-12));
    }
    return total / static_cast<double>(data.size());
}

double
MlpClassifier::accuracy(const Dataset &data) const
{
    COTTAGE_CHECK(!data.empty());
    MlpScratch scratch;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        correct += predict(data.features(i), scratch) == data.label(i);
    return static_cast<double>(correct) / static_cast<double>(data.size());
}

uint32_t
MlpClassifier::predict(const double *features, MlpScratch &scratch) const
{
    const double *probs = forward(features, scratch);
    return static_cast<uint32_t>(
        std::max_element(probs, probs + config_.numClasses) - probs);
}

uint32_t
MlpClassifier::predict(const double *features) const
{
    MlpScratch scratch;
    return predict(features, scratch);
}

uint32_t
MlpClassifier::predict(const std::vector<double> &features) const
{
    COTTAGE_CHECK(features.size() == config_.inputDim);
    return predict(features.data());
}

std::vector<double>
MlpClassifier::probabilities(const double *features) const
{
    MlpScratch scratch;
    const double *probs = forward(features, scratch);
    return std::vector<double>(probs, probs + config_.numClasses);
}

double
MlpClassifier::expectedClass(const double *features) const
{
    const std::vector<double> probs = probabilities(features);
    double expected = 0.0;
    for (std::size_t c = 0; c < probs.size(); ++c)
        expected += static_cast<double>(c) * probs[c];
    return expected;
}

std::size_t
MlpClassifier::numParameters() const
{
    std::size_t total = 0;
    for (const Layer &layer : layers_)
        total += layer.weights.size() + layer.bias.size();
    return total;
}

void
MlpClassifier::save(std::ostream &out) const
{
    out.precision(17);
    out << "cottage-mlp 1\n";
    out << config_.inputDim << ' ' << config_.numClasses << ' '
        << config_.hiddenLayers.size();
    for (std::size_t h : config_.hiddenLayers)
        out << ' ' << h;
    out << '\n';
    for (double m : featureMean_)
        out << m << ' ';
    out << '\n';
    for (double s : featureStd_)
        out << s << ' ';
    out << '\n';
    for (const Layer &layer : layers_) {
        for (std::size_t i = 0; i < layer.weights.size(); ++i)
            out << layer.weights.data()[i] << ' ';
        out << '\n';
        for (double b : layer.bias)
            out << b << ' ';
        out << '\n';
    }
}

MlpClassifier
MlpClassifier::load(std::istream &in)
{
    CheckedReader reader(in, "cottage MLP model");
    if (reader.word("magic") != "cottage-mlp")
        reader.fail("not a cottage MLP model file");
    reader.integer("version", 1, 1);

    // Bound the shape before anything is allocated: no layer wider
    // than kMaxLoadWidth, no more than kMaxLoadHiddenLayers of them.
    MlpConfig config;
    config.inputDim = reader.integer("input width", 1, kMaxLoadWidth);
    config.numClasses = reader.integer("class count", 2, kMaxLoadWidth);
    config.hiddenLayers.resize(
        reader.integer("hidden layer count", 0, kMaxLoadHiddenLayers));
    for (std::size_t &h : config.hiddenLayers)
        h = reader.integer("hidden layer width", 1, kMaxLoadWidth);

    // Shape only: every weight is read below, so none is drawn, and a
    // loaded net carries no Adam moments.
    MlpClassifier model(config, ShapeOnly{});
    for (double &m : model.featureMean_)
        m = reader.finite("feature mean");
    for (double &s : model.featureStd_) {
        s = reader.finite("feature std");
        if (!(s > 0.0))
            reader.fail("feature std: must be positive");
    }
    for (Layer &layer : model.layers_) {
        for (std::size_t i = 0; i < layer.weights.size(); ++i)
            layer.weights.data()[i] = reader.finite("weight");
        for (double &b : layer.bias)
            b = reader.finite("bias");
    }
    return model;
}

} // namespace cottage
