/**
 * @file
 * StreamVByte group codec: the SIMD-decodable payload format behind
 * the block-max postings layer.
 *
 * Classic VByte spends a data-dependent branch per *byte*; on modern
 * cores that mispredict cost dominates inverted-index decode (Lin,
 * Paniak & Boerke, "The Performance Envelope of Inverted Indexing on
 * Modern Hardware"). StreamVByte splits the stream into a *control*
 * region (one byte per four values, two bits each encoding the value's
 * byte length minus one) and a *data* region (each value's significant
 * bytes, LSB first). Decode is then branch-free per group of four: the
 * control byte indexes a shuffle/length table, four values materialize
 * in one step, and the data pointer advances by a table lookup. Where
 * SSSE3 is available the group step is a single `pshufb`; the portable
 * scalar fallback (selected at compile time, see `COTTAGE_NO_SIMD` in
 * the top-level CMakeLists) assembles the same four values with
 * unrolled byte arithmetic and produces byte-identical output — CI
 * builds both flavors and diffs their run summaries.
 *
 * Intrinsics are confined to the codec translation unit
 * (`block_codec.cc`); nothing outside `src/index/` may touch them
 * (cottage_lint rule D6, DESIGN.md §5f/§5g).
 */

#ifndef COTTAGE_INDEX_BLOCK_CODEC_H
#define COTTAGE_INDEX_BLOCK_CODEC_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cottage {

/**
 * Bytes of zero padding every encoded stream carries after its logical
 * end. The decoder's group step always loads a full 16-byte window
 * (SIMD) or a full 4-byte window per value (scalar), so up to 15 bytes
 * past the last data byte must be readable. Appending the padding is
 * the buffer owner's job, exactly once per underlying buffer (see
 * BlockMaxPostingList's builder) — per-stream padding would bloat
 * every block.
 */
constexpr std::size_t kStreamVBytePadding = 16;

/** Control bytes needed for @p n values (four 2-bit codes per byte). */
constexpr std::size_t
streamVByteControlBytes(std::size_t n)
{
    return (n + 3) / 4;
}

/** Worst-case encoded bytes for @p n values (excluding padding). */
constexpr std::size_t
streamVByteMaxBytes(std::size_t n)
{
    return streamVByteControlBytes(n) + 4 * n;
}

/**
 * Output-buffer capacity the decoder needs for @p n values: the group
 * kernel always stores four lanes, so the tail group may write up to
 * three scratch values past @p n.
 */
constexpr std::size_t
streamVByteDecodeCapacity(std::size_t n)
{
    return (n + 3) & ~std::size_t{3};
}

/**
 * Append @p n values to @p out, StreamVByte-encoded: the control
 * region first, then the data region. Encoding is always scalar (it
 * runs once at index build), so the encoded bytes are identical in
 * SIMD and scalar builds by construction.
 */
void streamVByteEncode(const uint32_t *values, std::size_t n,
                       std::vector<uint8_t> &out);

/**
 * Decode exactly @p n values from the stream at @p in.
 *
 * @param in Start of the control region.
 * @param avail Bytes from @p in to the logical end of the stream(s);
 *        the underlying buffer must extend at least
 *        kStreamVBytePadding readable bytes past that.
 * @param n Number of values to decode.
 * @param out Destination with capacity streamVByteDecodeCapacity(n).
 * @return Bytes consumed (control + data), i.e. the offset of whatever
 *         follows this sequence in the enclosing stream.
 *
 * A control region that does not fit in @p avail, or one whose length
 * codes imply a data region overrunning @p avail, fails a
 * COTTAGE_CHECK ("truncated streamvbyte control stream" /
 * "truncated streamvbyte data stream") in every build type: a
 * malformed stream is a hard failure, never an out-of-bounds read.
 */
std::size_t streamVByteDecode(const uint8_t *in, std::size_t avail,
                              std::size_t n, uint32_t *out);

/**
 * Decode @p n delta-gap values and integrate them into absolute doc
 * ids in one pass: out[i] = prev + (gap[0] + 1) + ... + (gap[i] + 1),
 * all arithmetic mod 2^32. Same stream format, bounds contract and
 * return value as streamVByteDecode().
 *
 * The +1 folds the "gaps are distance minus one" convention into the
 * running sum, and a block whose first gap is an *absolute* id (block
 * 0 of a posting list) simply passes prev = 0xffffffff, which the
 * wrap-around cancels: 0xffffffff + gap + 1 == gap (mod 2^32). Fusing
 * the prefix sum into the group kernel saves a second pass over the
 * output array — in the SIMD build the integration is two in-register
 * shifted adds per group instead of four dependent scalar adds.
 */
std::size_t streamVByteDecodeDeltas(const uint8_t *in, std::size_t avail,
                                    std::size_t n, uint32_t prev,
                                    uint32_t *out);

/** True when this binary decodes with the SIMD (SSSE3) group kernel. */
bool streamVByteUsesSimd();

} // namespace cottage

#endif // COTTAGE_INDEX_BLOCK_CODEC_H
