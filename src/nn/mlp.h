/**
 * @file
 * Multi-layer perceptron classifier with ReLU activations, softmax
 * output, sparse categorical cross-entropy loss and the Adam optimizer
 * — exactly the architecture the paper trains with Keras (§III-B:
 * 5 hidden layers x 128 ReLU neurons, Adam, sparse categorical
 * cross-entropy). Implemented from scratch on the Matrix type.
 *
 * Input features are standardized (z-scored) with statistics captured
 * from the training set; the trained normalization travels with the
 * model through save()/load().
 */

#ifndef COTTAGE_NN_MLP_H
#define COTTAGE_NN_MLP_H

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/dataset.h"
#include "nn/matrix.h"
#include "util/rng.h"

namespace cottage {

/** Network shape. */
struct MlpConfig
{
    /** Input feature count. */
    std::size_t inputDim = 0;

    /** Number of output classes. */
    std::size_t numClasses = 0;

    /** Hidden layer widths (paper default: five layers of 128). */
    std::vector<std::size_t> hiddenLayers = {128, 128, 128, 128, 128};

    /** Weight-initialization seed. */
    uint64_t seed = 1234;
};

/** Optimization hyper-parameters. */
struct AdamConfig
{
    double learningRate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    std::size_t batchSize = 64;

    /**
     * Decoupled weight decay (AdamW). Applied to weights only, not
     * biases. 0 disables it.
     */
    double weightDecay = 0.0;
};

/**
 * Caller-owned buffers for single-sample inference. One scratch serves
 * any number of networks of any widths: forward() grows it to the
 * widest layer it meets and never shrinks it, so after the first call
 * per network shape inference allocates nothing. Not thread-safe: give
 * each concurrent caller its own.
 */
struct MlpScratch
{
    /** Layer activations, ping-ponged between layers. */
    std::vector<double> ping;
    std::vector<double> pong;

    /**
     * One layer's non-zero inputs in ascending input order, and the
     * weight row each one multiplies: the dense kernel streams only
     * these.
     */
    std::vector<double> liveInputs;
    std::vector<const double *> liveRows;
};

/** ReLU MLP classifier trained with Adam on softmax cross-entropy. */
class MlpClassifier
{
  public:
    /** A fresh net: He-normal weights drawn from config.seed. */
    explicit MlpClassifier(const MlpConfig &config);

    const MlpConfig &config() const { return config_; }

    /**
     * Capture feature standardization statistics from a training set.
     * Must be called before train() / predictions (the constructor
     * starts with identity normalization, so it is optional for
     * already-normalized data).
     */
    void fitNormalization(const Dataset &data);

    /**
     * Run @p iterations minibatch Adam steps over the dataset
     * (samples drawn round-robin from a reshuffled order each epoch).
     *
     * @return Mean training loss of the final iteration.
     */
    double train(const Dataset &data, std::size_t iterations,
                 const AdamConfig &adam = {});

    /** Mean cross-entropy loss over a dataset. */
    double loss(const Dataset &data) const;

    /** Classification accuracy over a dataset, in [0, 1]. */
    double accuracy(const Dataset &data) const;

    /**
     * Softmax distribution of one raw (unnormalized) sample, computed
     * in @p scratch: the features are standardized into one buffer and
     * the layers ping-pong between the two. Returns a pointer to
     * numClasses probabilities, valid until the next call that uses
     * the same scratch. predict, probabilities, expectedClass, loss
     * and accuracy all run exactly this arithmetic.
     */
    const double *forward(const double *features, MlpScratch &scratch) const;

    /** Most probable class of a single sample. */
    uint32_t predict(const double *features, MlpScratch &scratch) const;
    uint32_t predict(const double *features) const;
    uint32_t predict(const std::vector<double> &features) const;

    /** Full softmax distribution of a single sample. */
    std::vector<double> probabilities(const double *features) const;

    /**
     * Expected class index under the softmax distribution. Useful when
     * classes are ordered bins (the latency predictor's buckets).
     */
    double expectedClass(const double *features) const;

    /** Serialize the model (architecture, normalization, weights). */
    void save(std::ostream &out) const;

    /**
     * Restore a model saved with save(). Malformed input exits 2 with
     * a diagnostic (CheckedReader): a truncated or non-numeric token,
     * a NaN or Inf mean, std or weight, a std <= 0, or a shape past
     * kMaxLoadHiddenLayers / kMaxLoadWidth, checked before allocating.
     */
    static MlpClassifier load(std::istream &in);

    /** Widest layer load() accepts (the paper's layers are 128 wide). */
    static constexpr std::size_t kMaxLoadWidth = 1024;

    /** Most hidden layers load() accepts (the paper uses 5). */
    static constexpr std::size_t kMaxLoadHiddenLayers = 8;

    /** Total trainable parameter count. */
    std::size_t numParameters() const;

  private:
    /** Constructor tag: shape the layers, draw no weights (load()). */
    struct ShapeOnly
    {
    };

    /** Zero weights and biases, identity normalization, no moments. */
    MlpClassifier(const MlpConfig &config, ShapeOnly);

    struct Layer
    {
        Matrix weights; // in x out
        std::vector<double> bias;

        // Adam state: empty until the first train().
        Matrix mWeights;
        Matrix vWeights;
        std::vector<double> mBias;
        std::vector<double> vBias;
    };

    /**
     * Batch forward pass: activations[0] holds the normalized input;
     * fills activations[1..] (post-ReLU for hidden layers, logits for
     * the last), which must already have their batch shapes.
     */
    void forwardBatch(std::vector<Matrix> &activations) const;

    /** Standardize one raw sample into @p out (inputDim values). */
    void normalize(const double *features, double *out) const;

    MlpConfig config_;
    std::vector<Layer> layers_;
    std::vector<double> featureMean_;
    std::vector<double> featureStd_;
    uint64_t adamStep_ = 0;

    /** Widest of the input and every layer output: the scratch size. */
    std::size_t maxWidth_ = 0;
};

} // namespace cottage

#endif // COTTAGE_NN_MLP_H
