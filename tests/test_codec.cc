/**
 * @file
 * StreamVByte codec tests: exact round-trips over adversarial value
 * distributions, a differential check of the production decoder (SIMD
 * or scalar, whichever this binary compiled in) against an independent
 * bit-by-bit reference decoder on randomized corpora, the fused
 * delta-decode against decode-then-integrate, and death tests for the
 * truncated/corrupt-stream contract (a hard COTTAGE_CHECK in every
 * build type).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstddef>
#include <vector>

#include "index/block_codec.h"
#include "util/rng.h"

namespace cottage {
namespace {

/** Encode and append the decoder's required tail padding. */
std::vector<uint8_t>
encodePadded(const std::vector<uint32_t> &values, std::size_t *logical)
{
    std::vector<uint8_t> bytes;
    streamVByteEncode(values.data(), values.size(), bytes);
    *logical = bytes.size();
    bytes.insert(bytes.end(), kStreamVBytePadding, uint8_t{0});
    return bytes;
}

/**
 * Independent reference decoder: walks the control region two bits at
 * a time and assembles each value byte-by-byte, sharing no code (and
 * no shuffle tables) with the production decoder. Deliberately the
 * dumbest possible implementation of the format spec.
 */
std::vector<uint32_t>
referenceDecode(const std::vector<uint8_t> &bytes, std::size_t n)
{
    const std::size_t controlBytes = streamVByteControlBytes(n);
    std::vector<uint32_t> out;
    out.reserve(n);
    std::size_t at = controlBytes;
    for (std::size_t i = 0; i < n; ++i) {
        const uint8_t control = bytes[i / 4];
        const unsigned len = ((control >> (2 * (i % 4))) & 0x3u) + 1;
        uint32_t value = 0;
        for (unsigned b = 0; b < len; ++b)
            value |= static_cast<uint32_t>(bytes[at + b]) << (8 * b);
        at += len;
        out.push_back(value);
    }
    return out;
}

void
expectRoundTrip(const std::vector<uint32_t> &values)
{
    std::size_t logical = 0;
    const std::vector<uint8_t> bytes = encodePadded(values, &logical);
    std::vector<uint32_t> decoded(
        streamVByteDecodeCapacity(values.size()));
    const std::size_t consumed = streamVByteDecode(
        bytes.data(), logical, values.size(), decoded.data());
    EXPECT_EQ(consumed, logical);
    for (std::size_t i = 0; i < values.size(); ++i)
        ASSERT_EQ(decoded[i], values[i]) << "value " << i;

    const std::vector<uint32_t> reference =
        referenceDecode(bytes, values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        ASSERT_EQ(decoded[i], reference[i]) << "reference value " << i;
}

// Lengths that straddle the 4-value group boundary plus 2^k +/- 1
// shapes: tail groups with 1..3 live lanes are where a group decoder
// over- or under-reads.
const std::size_t kAdversarialLengths[] = {0, 1,  2,  3,  4,   5,
                                           7, 8,  9,  15, 16,  17,
                                           31, 33, 63, 65, 127, 129};

TEST(StreamVByte, RoundTripsAllOnes)
{
    for (const std::size_t n : kAdversarialLengths)
        expectRoundTrip(std::vector<uint32_t>(n, 1u));
}

TEST(StreamVByte, RoundTripsMaxGaps)
{
    // Every value 0xffffffff: all length codes 3, maximal data region.
    for (const std::size_t n : kAdversarialLengths)
        expectRoundTrip(std::vector<uint32_t>(n, 0xffffffffu));
}

TEST(StreamVByte, RoundTripsAllZeros)
{
    for (const std::size_t n : kAdversarialLengths)
        expectRoundTrip(std::vector<uint32_t>(n, 0u));
}

TEST(StreamVByte, RoundTripsSingleValue)
{
    // The single-doc posting list shape, at every byte-length class.
    for (const uint32_t v :
         {0u, 1u, 0xffu, 0x100u, 0xffffu, 0x10000u, 0xffffffu,
          0x1000000u, 0xffffffffu})
        expectRoundTrip({v});
}

TEST(StreamVByte, RoundTripsByteLengthBoundaries)
{
    // One value of each length class adjacent to every other class, in
    // both orders: exercises every control-byte bit pattern the
    // shuffle table rows are generated from.
    const std::vector<uint32_t> classes = {0x01u, 0x80u, 0x100u, 0xffffu,
                                           0x10000u, 0xffffffu,
                                           0x1000000u, 0xffffffffu};
    std::vector<uint32_t> values;
    for (const uint32_t a : classes)
        for (const uint32_t b : classes) {
            values.push_back(a);
            values.push_back(b);
        }
    expectRoundTrip(values);
}

TEST(StreamVByte, DifferentialAgainstReferenceOnRandomCorpora)
{
    Rng rng(0x5eedc0dec);
    for (int round = 0; round < 50; ++round) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 700));
        std::vector<uint32_t> values;
        values.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Mix byte-length classes with skewed odds so runs of
            // short values meet occasional 3- and 4-byte outliers.
            const double roll = rng.uniform();
            uint64_t hi = 0xffull;
            if (roll > 0.55)
                hi = 0xffffull;
            if (roll > 0.85)
                hi = 0xffffffull;
            if (roll > 0.95)
                hi = 0xffffffffull;
            values.push_back(static_cast<uint32_t>(
                rng.uniformInt(0, static_cast<int64_t>(hi))));
        }
        expectRoundTrip(values);
    }
}

TEST(StreamVByte, FusedDeltaDecodeMatchesDecodeThenIntegrate)
{
    Rng rng(0xde17a);
    for (int round = 0; round < 50; ++round) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 600));
        std::vector<uint32_t> gaps;
        gaps.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            gaps.push_back(
                static_cast<uint32_t>(rng.uniformInt(0, 2000)));
        const uint32_t prev = (round % 3 == 0)
                                  ? 0xffffffffu // block-0 seed
                                  : static_cast<uint32_t>(
                                        rng.uniformInt(0, 1 << 30));

        std::size_t logical = 0;
        const std::vector<uint8_t> bytes = encodePadded(gaps, &logical);
        std::vector<uint32_t> fused(streamVByteDecodeCapacity(n));
        const std::size_t consumed = streamVByteDecodeDeltas(
            bytes.data(), logical, n, prev, fused.data());
        EXPECT_EQ(consumed, logical);

        std::vector<uint32_t> plain(streamVByteDecodeCapacity(n));
        (void)streamVByteDecode(bytes.data(), logical, n, plain.data());
        uint32_t running = prev;
        for (std::size_t i = 0; i < n; ++i) {
            running += plain[i] + 1; // mod 2^32 by unsigned wrap
            ASSERT_EQ(fused[i], running) << "posting " << i;
        }
    }
}

TEST(StreamVByte, FusedDeltaSeedCancelsForAbsoluteFirstDoc)
{
    // prev = 0xffffffff makes out[0] == gap[0]: the block-0 "first gap
    // is the absolute doc id" convention without a special case.
    const std::vector<uint32_t> gaps = {42u, 0u, 6u};
    std::size_t logical = 0;
    const std::vector<uint8_t> bytes = encodePadded(gaps, &logical);
    std::vector<uint32_t> docs(streamVByteDecodeCapacity(gaps.size()));
    (void)streamVByteDecodeDeltas(bytes.data(), logical, gaps.size(),
                                  0xffffffffu, docs.data());
    EXPECT_EQ(docs[0], 42u);
    EXPECT_EQ(docs[1], 43u);
    EXPECT_EQ(docs[2], 50u);
}

TEST(StreamVByte, CapacityHelpersAreConsistent)
{
    for (const std::size_t n : kAdversarialLengths) {
        EXPECT_EQ(streamVByteControlBytes(n), (n + 3) / 4);
        EXPECT_GE(streamVByteDecodeCapacity(n), n);
        EXPECT_EQ(streamVByteDecodeCapacity(n) % 4, 0u);
        // Worst case really is the worst case: all 4-byte values.
        const std::vector<uint32_t> wide(n, 0xffffffffu);
        std::vector<uint8_t> bytes;
        streamVByteEncode(wide.data(), wide.size(), bytes);
        EXPECT_EQ(bytes.size(), n == 0 ? 0 : streamVByteMaxBytes(n));
    }
}

TEST(StreamVByte, ReportsCompiledKernel)
{
    // COTTAGE_EXPECT_SIMD_CODEC mirrors the build system's kernel
    // choice (tests/CMakeLists.txt): the scalar-fallback CI job relies
    // on streamVByteUsesSimd() to prove it really exercised the
    // fallback, so the report must match the compiled reality.
#if defined(COTTAGE_EXPECT_SIMD_CODEC)
    EXPECT_TRUE(streamVByteUsesSimd());
#else
    EXPECT_FALSE(streamVByteUsesSimd());
#endif
}

// ---------------------------------------------------------------------
// The truncated-stream contract is a hard CHECK in every build type:
// a malformed stream must never be silently decoded into garbage.

TEST(StreamVByteDeathTest, TruncatedControlRegionFailsTheBoundsCheck)
{
    const std::vector<uint32_t> values(9, 7u); // 3 control bytes
    std::size_t logical = 0;
    const std::vector<uint8_t> bytes = encodePadded(values, &logical);
    std::vector<uint32_t> out(streamVByteDecodeCapacity(values.size()));
    // avail covers only 2 of the 3 control bytes.
    EXPECT_DEATH((void)streamVByteDecode(bytes.data(), 2, values.size(),
                                         out.data()),
                 "truncated streamvbyte control stream");
}

TEST(StreamVByteDeathTest, TruncatedDataRegionFailsTheBoundsCheck)
{
    const std::vector<uint32_t> values(8, 0x01020304u); // 4-byte data
    std::size_t logical = 0;
    const std::vector<uint8_t> bytes = encodePadded(values, &logical);
    std::vector<uint32_t> out(streamVByteDecodeCapacity(values.size()));
    // Control region intact, data region cut short.
    EXPECT_DEATH((void)streamVByteDecode(bytes.data(), logical - 5,
                                         values.size(), out.data()),
                 "truncated streamvbyte data stream");
}

TEST(StreamVByteDeathTest, CorruptControlStreamOverrunsAndDies)
{
    // Flip a 1-byte length code up to 4 bytes: the implied data region
    // now overruns the logical end, which the pre-pass must catch.
    std::vector<uint32_t> values(4, 1u);
    std::size_t logical = 0;
    std::vector<uint8_t> bytes = encodePadded(values, &logical);
    bytes[0] = 0xffu; // all four codes -> 4-byte values
    std::vector<uint32_t> out(streamVByteDecodeCapacity(values.size()));
    EXPECT_DEATH((void)streamVByteDecode(bytes.data(), logical,
                                         values.size(), out.data()),
                 "truncated streamvbyte data stream");
}

TEST(StreamVByteDeathTest, FusedDeltaDecodeHoldsTheSameContract)
{
    const std::vector<uint32_t> gaps(5, 3u);
    std::size_t logical = 0;
    const std::vector<uint8_t> bytes = encodePadded(gaps, &logical);
    std::vector<uint32_t> out(streamVByteDecodeCapacity(gaps.size()));
    EXPECT_DEATH((void)streamVByteDecodeDeltas(bytes.data(), 1,
                                               gaps.size(), 0u,
                                               out.data()),
                 "truncated streamvbyte control stream");
    EXPECT_DEATH((void)streamVByteDecodeDeltas(bytes.data(), logical - 2,
                                               gaps.size(), 0u,
                                               out.data()),
                 "truncated streamvbyte data stream");
}

} // namespace
} // namespace cottage
