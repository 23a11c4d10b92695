/**
 * @file
 * Tests for the neural-network library: matrix algebra, MLP training
 * dynamics (loss decreases, learnable functions are learned),
 * normalization, serialization round-trip and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "nn/dataset.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace cottage {
namespace {

TEST(Matrix, MatmulSmallKnownValues)
{
    Matrix a(2, 3);
    a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
    a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
    Matrix b(3, 2);
    b(0, 0) = 7;  b(0, 1) = 8;
    b(1, 0) = 9;  b(1, 1) = 10;
    b(2, 0) = 11; b(2, 1) = 12;
    Matrix c(2, 2);
    matmul(a, b, c);
    EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposedVariantsAgreeWithExplicitTranspose)
{
    Rng rng(42);
    Matrix a(4, 3);
    Matrix b(4, 5);
    for (std::size_t i = 0; i < a.size(); ++i)
        a.data()[i] = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < b.size(); ++i)
        b.data()[i] = rng.uniform(-1, 1);

    // a^T * b via matmulTransposeA vs explicit transpose.
    Matrix at(3, 4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            at(c, r) = a(r, c);
    Matrix expected(3, 5);
    matmul(at, b, expected);
    Matrix got(3, 5);
    matmulTransposeA(a, b, got);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);

    // x * b^T via matmulTransposeB vs explicit transpose.
    Matrix x(2, 5);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = rng.uniform(-1, 1);
    Matrix bt(5, 4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            bt(c, r) = b(r, c);
    Matrix expected2(2, 4);
    matmul(x, bt, expected2);
    Matrix got2(2, 4);
    matmulTransposeB(x, b, got2);
    for (std::size_t i = 0; i < expected2.size(); ++i)
        EXPECT_NEAR(got2.data()[i], expected2.data()[i], 1e-12);
}

/**
 * Entries the training kernels meet: ReLU zeros, -0.0, plain values,
 * and one all-zero row.
 */
Matrix
kernelOperand(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
        const double u = rng.uniform(0.0, 1.0);
        m.data()[i] = u < 0.3 ? 0.0 : u < 0.4 ? -0.0 : rng.uniform(-1.0, 1.0);
    }
    for (std::size_t c = 0; c < cols; ++c)
        m(rows / 2, c) = 0.0;
    return m;
}

/** C(i, j) = +0.0 + A(i, 0) B(0, j) + A(i, 1) B(1, j) + ..., in order. */
template <class AAt, class BAt>
Matrix
naiveProduct(std::size_t m, std::size_t n, std::size_t k, AAt aAt, BAt bAt)
{
    Matrix c(m, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p)
                acc += aAt(i, p) * bAt(p, j);
            c(i, j) = acc;
        }
    return c;
}

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Matrix, KernelIsBitIdenticalToNaiveLoopNest)
{
    // Every size below, at and past the 4 x 4 register block, so each
    // row and column remainder path runs, against the plain loop nest
    // byte for byte.
    const std::size_t sizes[] = {1, 3, 4, 5, 8, 11, 64};
    Rng rng(2024);
    for (std::size_t m : sizes)
        for (std::size_t n : sizes)
            for (std::size_t k : sizes) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " n=" << n << " k=" << k);
                Matrix c(m, n);

                const Matrix a = kernelOperand(m, k, rng);
                const Matrix b = kernelOperand(k, n, rng);
                matmul(a, b, c);
                EXPECT_TRUE(sameBits(
                    c, naiveProduct(
                           m, n, k,
                           [&](std::size_t i, std::size_t p) { return a(i, p); },
                           [&](std::size_t p, std::size_t j) { return b(p, j); })));

                const Matrix at = kernelOperand(k, m, rng);
                matmulTransposeA(at, b, c);
                EXPECT_TRUE(sameBits(
                    c, naiveProduct(
                           m, n, k,
                           [&](std::size_t i, std::size_t p) { return at(p, i); },
                           [&](std::size_t p, std::size_t j) { return b(p, j); })));

                const Matrix bt = kernelOperand(n, k, rng);
                matmulTransposeB(a, bt, c);
                EXPECT_TRUE(sameBits(
                    c, naiveProduct(
                           m, n, k,
                           [&](std::size_t i, std::size_t p) { return a(i, p); },
                           [&](std::size_t p, std::size_t j) { return bt(j, p); })));
                Matrix packed(k, n);
                Matrix c2(m, n);
                matmulTransposeB(a, bt, c2, packed);
                EXPECT_TRUE(sameBits(c, c2));
            }
}

/** Two interleaved Gaussian blobs per class on a ring: learnable. */
Dataset
blobDataset(std::size_t classes, std::size_t perClass, uint64_t seed)
{
    Rng rng(seed);
    Dataset data(2);
    for (std::size_t c = 0; c < classes; ++c) {
        const double angle =
            2.0 * M_PI * static_cast<double>(c) / static_cast<double>(classes);
        for (std::size_t i = 0; i < perClass; ++i) {
            data.add({3.0 * std::cos(angle) + rng.normal(0.0, 0.4),
                      3.0 * std::sin(angle) + rng.normal(0.0, 0.4)},
                     static_cast<uint32_t>(c));
        }
    }
    return data;
}

TEST(Mlp, LearnsSeparableBlobs)
{
    const Dataset train = blobDataset(4, 200, 1);
    const Dataset test = blobDataset(4, 50, 2);

    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 4;
    config.hiddenLayers = {32, 32};
    config.seed = 3;
    MlpClassifier model(config);
    model.fitNormalization(train);

    const double lossBefore = model.loss(test);
    model.train(train, 400);
    const double lossAfter = model.loss(test);

    EXPECT_LT(lossAfter, lossBefore * 0.5);
    EXPECT_GT(model.accuracy(test), 0.95);
}

TEST(Mlp, TrainingLossDecreasesMonotonicallyOnAverage)
{
    const Dataset train = blobDataset(3, 150, 4);
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 3;
    config.hiddenLayers = {16};
    MlpClassifier model(config);
    model.fitNormalization(train);

    double previous = model.loss(train);
    for (int round = 0; round < 4; ++round) {
        model.train(train, 100);
        const double current = model.loss(train);
        EXPECT_LT(current, previous + 0.05) << "round " << round;
        previous = current;
    }
    EXPECT_LT(previous, 0.3);
}

TEST(Mlp, DeterministicGivenSeed)
{
    const Dataset train = blobDataset(3, 100, 5);
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 3;
    config.hiddenLayers = {8, 8};
    config.seed = 77;

    MlpClassifier a(config);
    a.fitNormalization(train);
    a.train(train, 50);

    MlpClassifier b(config);
    b.fitNormalization(train);
    b.train(train, 50);

    const std::vector<double> probe = {1.0, -2.0};
    const auto pa = a.probabilities(probe.data());
    const auto pb = b.probabilities(probe.data());
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Mlp, ProbabilitiesFormDistribution)
{
    MlpConfig config;
    config.inputDim = 3;
    config.numClasses = 5;
    config.hiddenLayers = {8};
    const MlpClassifier model(config);
    const std::vector<double> sample = {0.3, -1.0, 2.0};
    const auto probs = model.probabilities(sample.data());
    ASSERT_EQ(probs.size(), 5u);
    double total = 0.0;
    for (double p : probs) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Mlp, ExpectedClassLiesWithinRange)
{
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 10;
    config.hiddenLayers = {8};
    const MlpClassifier model(config);
    const std::vector<double> sample = {1.0, 1.0};
    const double expected = model.expectedClass(sample.data());
    EXPECT_GE(expected, 0.0);
    EXPECT_LE(expected, 9.0);
}

TEST(Mlp, SaveLoadRoundTripPreservesOutputs)
{
    const Dataset train = blobDataset(4, 100, 6);
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 4;
    config.hiddenLayers = {16, 16};
    MlpClassifier model(config);
    model.fitNormalization(train);
    model.train(train, 100);

    std::stringstream buffer;
    model.save(buffer);
    const MlpClassifier restored = MlpClassifier::load(buffer);

    EXPECT_EQ(restored.numParameters(), model.numParameters());
    Rng rng(7);
    for (int i = 0; i < 20; ++i) {
        const std::vector<double> sample = {rng.uniform(-4, 4),
                                            rng.uniform(-4, 4)};
        const auto pa = model.probabilities(sample.data());
        const auto pb = restored.probabilities(sample.data());
        for (std::size_t c = 0; c < pa.size(); ++c)
            EXPECT_NEAR(pa[c], pb[c], 1e-12);
    }
}

/**
 * load() shapes a net without drawing weights or allocating Adam
 * moments; train() shapes the moments. An untrained net saved and
 * loaded back must therefore train to the very bytes the original
 * does (same weights, zero moments, same default seed).
 */
TEST(Mlp, LoadedNetTrainsLikeTheNetItWasSavedFrom)
{
    const Dataset train = blobDataset(3, 60, 11);
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 3;
    config.hiddenLayers = {8, 8};
    MlpClassifier fresh(config);

    std::stringstream buffer;
    fresh.save(buffer);
    MlpClassifier loaded = MlpClassifier::load(buffer);

    fresh.train(train, 40);
    loaded.train(train, 40);
    std::ostringstream a;
    std::ostringstream b;
    fresh.save(a);
    loaded.save(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Mlp, NumParametersMatchesArchitecture)
{
    MlpConfig config;
    config.inputDim = 10;
    config.numClasses = 11;
    config.hiddenLayers = {128, 128, 128, 128, 128};
    const MlpClassifier model(config);
    // 10*128+128 + 4*(128*128+128) + 128*11+11
    const std::size_t expected =
        (10 * 128 + 128) + 4 * (128 * 128 + 128) + (128 * 11 + 11);
    EXPECT_EQ(model.numParameters(), expected);
}

TEST(Mlp, NormalizationHandlesConstantFeatures)
{
    Dataset data(2);
    for (int i = 0; i < 10; ++i)
        data.add({5.0, static_cast<double>(i)}, i % 2);
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 2;
    config.hiddenLayers = {4};
    MlpClassifier model(config);
    model.fitNormalization(data);
    // Must not produce NaNs.
    const auto probs = model.probabilities(data.features(0));
    for (double p : probs)
        EXPECT_FALSE(std::isnan(p));
}

/**
 * A model read back from its serialized form (17 significant digits
 * round-trip every double), for an independent reference forward pass.
 */
struct ReferenceNet
{
    std::vector<std::size_t> widths;
    std::vector<double> mean;
    std::vector<double> stddev;
    std::vector<std::vector<double>> weights; // widths[l] x widths[l+1]
    std::vector<std::vector<double>> bias;
};

ReferenceNet
readBack(const MlpClassifier &model)
{
    std::stringstream buffer;
    model.save(buffer);
    std::string magic;
    int version = 0;
    std::size_t inputDim = 0;
    std::size_t numClasses = 0;
    std::size_t numHidden = 0;
    buffer >> magic >> version >> inputDim >> numClasses >> numHidden;
    ReferenceNet net;
    net.widths = {inputDim};
    for (std::size_t h = 0; h < numHidden; ++h) {
        std::size_t width = 0;
        buffer >> width;
        net.widths.push_back(width);
    }
    net.widths.push_back(numClasses);
    net.mean.resize(inputDim);
    net.stddev.resize(inputDim);
    for (double &m : net.mean)
        buffer >> m;
    for (double &d : net.stddev)
        buffer >> d;
    for (std::size_t l = 0; l + 1 < net.widths.size(); ++l) {
        net.weights.emplace_back(net.widths[l] * net.widths[l + 1]);
        for (double &w : net.weights.back())
            buffer >> w;
        net.bias.emplace_back(net.widths[l + 1]);
        for (double &b : net.bias.back())
            buffer >> b;
    }
    return net;
}

/**
 * Reference single-sample inference in the documented order: each
 * output starts at its bias and adds input 0, 1, ... (zero inputs
 * skipped), ReLU on hidden layers, then a max-shifted softmax.
 */
std::vector<double>
referenceProbabilities(const ReferenceNet &net, const double *features)
{
    std::vector<double> current(net.widths.front());
    for (std::size_t f = 0; f < current.size(); ++f)
        current[f] = (features[f] - net.mean[f]) / net.stddev[f];
    for (std::size_t l = 0; l < net.weights.size(); ++l) {
        const std::size_t fanOut = net.widths[l + 1];
        std::vector<double> next = net.bias[l];
        for (std::size_t i = 0; i < current.size(); ++i) {
            if (current[i] == 0.0)
                continue;
            for (std::size_t j = 0; j < fanOut; ++j)
                next[j] += current[i] * net.weights[l][i * fanOut + j];
        }
        if (l + 1 < net.weights.size()) {
            for (double &v : next)
                v = std::max(v, 0.0);
        }
        current = next;
    }
    const double peak = *std::max_element(current.begin(), current.end());
    double total = 0.0;
    for (double &v : current) {
        v = std::exp(v - peak);
        total += v;
    }
    for (double &v : current)
        v /= total;
    return current;
}

/**
 * A raw sample of @p n features in runs of one to four equal kinds:
 * exact 0.0, exact -0.0, or values drawn from [-5, 20).
 */
std::vector<double>
sampleWithZeroRuns(Rng &rng, std::size_t n)
{
    std::vector<double> sample(n);
    for (std::size_t f = 0; f < n;) {
        const double kind = rng.uniform(0.0, 1.0);
        for (int64_t run = rng.uniformInt(1, 4); run > 0 && f < n;
             --run, ++f)
            sample[f] = kind < 0.2    ? 0.0
                        : kind < 0.4 ? -0.0
                                     : rng.uniform(-5.0, 20.0);
    }
    return sample;
}

TEST(Mlp, ScratchForwardIsBitIdenticalAcrossNetworkShapes)
{
    // The predictor bank's three shapes (quality top-K head, top-K/2
    // head, latency model) plus the paper's 5 x 128, visited in turn
    // with one scratch: it grows for the widest and is then reused
    // with stale values past narrower layers' widths.
    // The last four have widths that are no multiple of the forward
    // kernel's output block (fan-in 1; layers of 1, 3, 17 and 33) and
    // keep identity normalization, so exact 0.0 and -0.0 inputs reach
    // the first layer unchanged.
    struct Shape
    {
        std::size_t inputDim;
        std::size_t numClasses;
        std::vector<std::size_t> hidden;
        bool normalize;
    };
    const std::vector<Shape> shapes = {
        {10, 11, {64, 64}, true},
        {10, 6, {64, 64}, true},
        {15, 20, {64, 64}, true},
        {10, 11, {128, 128, 128, 128, 128}, true},
        {3, 2, {5}, true},
        {1, 3, {1}, false},
        {1, 17, {33}, false},
        {3, 33, {17, 1, 3}, false},
        {33, 2, {17}, false},
    };
    Rng rng(77);
    std::vector<MlpClassifier> models;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        MlpConfig config;
        config.inputDim = shapes[i].inputDim;
        config.numClasses = shapes[i].numClasses;
        config.hiddenLayers = shapes[i].hidden;
        config.seed = 100 + i;
        MlpClassifier model(config);
        Dataset data(config.inputDim);
        for (int n = 0; n < 40; ++n) {
            std::vector<double> sample(config.inputDim);
            for (double &v : sample)
                v = rng.uniform(-5.0, 20.0);
            data.add(sample, static_cast<uint32_t>(n) % 2);
        }
        if (shapes[i].normalize)
            model.fitNormalization(data);
        model.train(data, 20); // non-zero biases
        models.push_back(std::move(model));
    }

    std::vector<ReferenceNet> references;
    for (const MlpClassifier &model : models)
        references.push_back(readBack(model));

    MlpScratch scratch;
    for (int round = 0; round < 30; ++round) {
        for (std::size_t m = 0; m < models.size(); ++m) {
            const MlpClassifier &model = models[m];
            const std::vector<double> sample =
                sampleWithZeroRuns(rng, model.config().inputDim);
            const std::vector<double> viaWrapper =
                model.probabilities(sample.data());
            const std::vector<double> reference =
                referenceProbabilities(references[m], sample.data());
            const double *viaScratch = model.forward(sample.data(), scratch);
            ASSERT_EQ(viaWrapper.size(), model.config().numClasses);
            EXPECT_EQ(0, std::memcmp(viaScratch, viaWrapper.data(),
                                     viaWrapper.size() * sizeof(double)));
            EXPECT_EQ(0, std::memcmp(viaScratch, reference.data(),
                                     reference.size() * sizeof(double)));
            EXPECT_EQ(model.predict(sample.data(), scratch),
                      model.predict(sample));
        }
    }
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char ch : bytes) {
        hash ^= ch;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * A {64, 64}-hidden network after 200 Adam steps on seeded data with
 * ReLU-style zero features.
 */
MlpClassifier
trainedNet(std::size_t inputDim, std::size_t numClasses, uint64_t seed)
{
    Rng rng(seed);
    Dataset data(inputDim);
    for (int n = 0; n < 300; ++n) {
        std::vector<double> sample(inputDim);
        double score = 0.0;
        for (std::size_t f = 0; f < inputDim; ++f) {
            sample[f] = rng.uniform(0.0, 1.0) < 0.25
                            ? 0.0
                            : rng.uniform(-2.0, 6.0);
            score += (f % 3 == 0 ? 1.0 : -0.5) * sample[f];
        }
        data.add(sample,
                 static_cast<uint32_t>(std::fabs(score)) % numClasses);
    }
    MlpConfig config;
    config.inputDim = inputDim;
    config.numClasses = numClasses;
    config.hiddenLayers = {64, 64};
    config.seed = seed;
    MlpClassifier model(config);
    model.fitNormalization(data);
    model.train(data, 200);
    return model;
}

/** FNV-1a of trainedNet()'s save() text. */
uint64_t
trainedWeightsHash(std::size_t inputDim, std::size_t numClasses,
                   uint64_t seed)
{
    std::ostringstream out;
    trainedNet(inputDim, numClasses, seed).save(out);
    return fnv1a(out.str());
}

/**
 * FNV-1a of the raw bytes of forward() over 300 seeded samples with
 * runs of 0.0 and -0.0, all through one scratch.
 */
uint64_t
forwardOutputsHash(std::size_t inputDim, std::size_t numClasses,
                   uint64_t seed)
{
    const MlpClassifier model = trainedNet(inputDim, numClasses, seed);
    Rng rng(seed + 1);
    MlpScratch scratch;
    std::string bytes;
    for (int n = 0; n < 300; ++n) {
        const std::vector<double> sample = sampleWithZeroRuns(rng, inputDim);
        const double *probs = model.forward(sample.data(), scratch);
        bytes.append(reinterpret_cast<const char *>(probs),
                     numClasses * sizeof(double));
    }
    return fnv1a(bytes);
}

TEST(Mlp, TrainedWeightsMatchGoldenHash)
{
    // The predictor bank's two shapes: latency model and quality top-K
    // head (10-64-64-11) and the 15-64-64-20 head. The constants were
    // captured from the plain loop-nest kernels; the register-blocked
    // kernel must reproduce their bytes in the AVX2 clone (default
    // build on an AVX2 host) and in the default clone (COTTAGE_NO_SIMD).
    EXPECT_EQ(trainedWeightsHash(10, 11, 31), 0x262707d5b0c4b667ull);
    EXPECT_EQ(trainedWeightsHash(15, 20, 47), 0xac2fe64d5268c404ull);
}

TEST(Mlp, ForwardOutputsMatchGoldenHash)
{
    // The same two nets' inference bytes. The constants were captured
    // from the unblocked forward loop (inputs outer, outputs inner); the
    // blocked forward kernel must reproduce them in both clones.
    EXPECT_EQ(forwardOutputsHash(10, 11, 31), 0xe2eeb38899df274eull);
    EXPECT_EQ(forwardOutputsHash(15, 20, 47), 0xb3adf188b4800b7aull);
}

/** save() text of a small trained model, for corrupting. */
std::string
savedModelText()
{
    const Dataset train = blobDataset(3, 30, 8);
    MlpConfig config;
    config.inputDim = 2;
    config.numClasses = 3;
    config.hiddenLayers = {4};
    MlpClassifier model(config);
    model.fitNormalization(train);
    model.train(train, 10);
    std::ostringstream out;
    model.save(out);
    return out.str();
}

/** Replace the @p index-th whitespace-separated token of @p text. */
std::string
replaceToken(const std::string &text, std::size_t index,
             const std::string &token)
{
    std::istringstream in(text);
    std::ostringstream out;
    std::string word;
    for (std::size_t i = 0; in >> word; ++i)
        out << (i == index ? token : word) << ' ';
    return out.str();
}

void
loadText(const std::string &text)
{
    std::istringstream in(text);
    MlpClassifier::load(in);
}

// Token layout of savedModelText(): 0 magic, 1 version, 2 input width,
// 3 class count, 4 hidden layer count, 5 hidden width, 6-7 means,
// 8-9 stds, then 2 x 4 weights, 4 biases, 4 x 3 weights, 3 biases.
TEST(MlpLoad, AcceptsItsOwnOutput)
{
    const std::string text = savedModelText();
    std::istringstream in(text);
    const MlpClassifier model = MlpClassifier::load(in);
    std::ostringstream again;
    model.save(again);
    EXPECT_EQ(again.str(), text);
}

TEST(MlpLoadDeathTest, RejectsTruncatedInput)
{
    const std::string text = savedModelText();
    EXPECT_EXIT(loadText(text.substr(0, text.size() / 2)),
                ::testing::ExitedWithCode(2), "input ends early");
    EXPECT_EXIT(loadText(""), ::testing::ExitedWithCode(2),
                "magic: input ends early");
}

TEST(MlpLoadDeathTest, RejectsNonFiniteNumbers)
{
    const std::string text = savedModelText();
    EXPECT_EXIT(loadText(replaceToken(text, 12, "nan")),
                ::testing::ExitedWithCode(2), "weight: expected a finite");
    EXPECT_EXIT(loadText(replaceToken(text, 12, "-inf")),
                ::testing::ExitedWithCode(2), "weight: expected a finite");
    EXPECT_EXIT(loadText(replaceToken(text, 6, "inf")),
                ::testing::ExitedWithCode(2), "mean: expected a finite");
    EXPECT_EXIT(loadText(replaceToken(text, 7, "1e999")),
                ::testing::ExitedWithCode(2), "mean: expected a finite");
    EXPECT_EXIT(loadText(replaceToken(text, 20, "0.5x")),
                ::testing::ExitedWithCode(2), "bias: expected a number");
}

TEST(MlpLoadDeathTest, RejectsNonPositiveStd)
{
    const std::string text = savedModelText();
    EXPECT_EXIT(loadText(replaceToken(text, 8, "0")),
                ::testing::ExitedWithCode(2), "std: must be positive");
    EXPECT_EXIT(loadText(replaceToken(text, 9, "-1")),
                ::testing::ExitedWithCode(2), "std: must be positive");
}

TEST(MlpLoadDeathTest, BoundsShapeBeforeAllocating)
{
    const std::string text = savedModelText();
    EXPECT_EXIT(loadText(replaceToken(text, 4, "1000000000")),
                ::testing::ExitedWithCode(2), "hidden layer count");
    EXPECT_EXIT(loadText(replaceToken(text, 5, "99999999999")),
                ::testing::ExitedWithCode(2), "hidden layer width");
    EXPECT_EXIT(loadText(replaceToken(text, 2, "0")),
                ::testing::ExitedWithCode(2), "input width");
    EXPECT_EXIT(loadText(replaceToken(text, 3, "-3")),
                ::testing::ExitedWithCode(2), "class count");
    EXPECT_EXIT(loadText(replaceToken(text, 1, "2")),
                ::testing::ExitedWithCode(2), "version");
    EXPECT_EXIT(loadText(replaceToken(text, 0, "cottage-mlq")),
                ::testing::ExitedWithCode(2), "not a cottage MLP model");
}

TEST(Dataset, StoresSamplesContiguously)
{
    Dataset data(3);
    data.add({1.0, 2.0, 3.0}, 0);
    data.add({4.0, 5.0, 6.0}, 2);
    EXPECT_EQ(data.size(), 2u);
    EXPECT_DOUBLE_EQ(data.features(1)[0], 4.0);
    EXPECT_DOUBLE_EQ(data.features(1)[2], 6.0);
    EXPECT_EQ(data.label(0), 0u);
    EXPECT_EQ(data.label(1), 2u);
}

} // namespace
} // namespace cottage
