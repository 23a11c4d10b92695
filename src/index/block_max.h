/**
 * @file
 * Block-max posting lists: the index's one postings format. Every
 * evaluator reads postings through BlockMaxCursor; Block-Max WAND
 * additionally prunes with the per-block maxima.
 *
 * A list is cut into fixed-size blocks of postings. Per block we keep
 * the last document id, the maximum (unweighted) BM25 contribution of
 * any posting in the block, and the byte offset of the block's payload
 * inside one StreamVByte stream (block_codec.h): the block's doc-id
 * deltas as one StreamVByte sequence, its frequencies as a second.
 * The delta-gap chain restarts at every block boundary, so a seek can
 * hop over whole blocks by metadata alone and decode only the single
 * block that contains its target — and that decode is a handful of
 * branch-free shuffle steps into the cursor's fixed buffer, not a
 * byte-at-a-time VByte walk (see DESIGN.md §5e/§5g and the cost audit
 * in docs/cycles.md).
 */

#ifndef COTTAGE_INDEX_BLOCK_MAX_H
#define COTTAGE_INDEX_BLOCK_MAX_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "index/postings.h"
#include "text/types.h"
#include "util/logging.h"

namespace cottage {

class InvertedIndex;
struct WeightedTerm;

/**
 * Block-level I/O accounting shared by all cursors of one evaluation;
 * the evaluator folds it into its SearchWork when the query finishes.
 */
struct BlockIo
{
    /** Blocks decoded (each decode is one whole-block unpack). */
    uint64_t blocksDecoded = 0;

    /** Blocks skipped without decoding, via lastDoc metadata alone. */
    uint64_t blocksSkipped = 0;

    /** Postings passed over by seeks without being scored. */
    uint64_t docsSkipped = 0;
};

/**
 * One term's postings, StreamVByte-compressed in fixed-size blocks
 * with per-block skip metadata. Immutable once built.
 */
class BlockMaxPostingList
{
  public:
    /** Per-block skip metadata. */
    struct Block
    {
        /** Last (largest) document id in the block. */
        LocalDocId lastDoc = 0;

        /** Max unweighted BM25 contribution over the block's postings. */
        double maxScore = 0.0;

        /** Byte offset of the block's payload inside the list stream. */
        uint32_t offset = 0;

        /** Number of postings in the block (== blockSize except last). */
        uint32_t count = 0;
    };

    BlockMaxPostingList() = default;

    /**
     * Compress one term's postings (ascending doc ids).
     *
     * @param term The term the postings belong to.
     * @param postings The uncompressed postings; read only here.
     * @param blockSize Postings per block (>= 1).
     * @param score Scores one posting; evaluated once per posting at
     *        build time to fill the per-block maxima. Bounds are stored
     *        unweighted and scaled by the query weight at search time.
     */
    BlockMaxPostingList(TermId term, std::span<const Posting> postings,
                        uint32_t blockSize,
                        const std::function<double(const Posting &)> &score);

    TermId term() const { return term_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    uint32_t blockSize() const { return blockSize_; }
    std::size_t numBlocks() const { return blocks_.size(); }
    const Block &block(std::size_t b) const { return blocks_[b]; }

    /** Whole-list score upper bound (max over the block maxima). */
    double maxScore() const { return listMaxScore_; }

    /** Skip-metadata plus compressed-payload footprint in bytes. */
    std::size_t
    bytes() const
    {
        return metadataBytes() + payloadBytes();
    }

    /** Per-block skip metadata (Block structs) in bytes. */
    std::size_t
    metadataBytes() const
    {
        return blocks_.size() * sizeof(Block);
    }

    /** StreamVByte payload bytes (control + data + stream padding). */
    std::size_t
    payloadBytes() const
    {
        return bytes_.size();
    }

    /**
     * Decode block @p b's document ids (delta-decoded to absolute
     * LocalDocIds) into @p docs, which must have capacity
     * streamVByteDecodeCapacity(block(b).count).
     *
     * @return The absolute byte offset of the block's frequency
     *         sequence, to pass to decodeBlockFreqs(). Returning it
     *         (rather than recomputing) lets cursors decode
     *         frequencies lazily — most decoded blocks are scanned for
     *         doc ids but never scored.
     */
    std::size_t decodeBlockDocs(std::size_t b, uint32_t *docs) const;

    /**
     * Decode block @p b's frequencies into @p freqs (same capacity
     * contract as decodeBlockDocs). @p freqOffset must be the value
     * decodeBlockDocs(b, ...) returned.
     */
    void decodeBlockFreqs(std::size_t b, std::size_t freqOffset,
                          uint32_t *freqs) const;

    /**
     * Decode the whole list into @p out (overwritten, sized to the
     * list): index-time scans read postings through this, never on a
     * query path.
     */
    void decode(std::vector<Posting> &out) const;

  private:
    TermId term_ = invalidTerm;
    std::size_t count_ = 0;
    uint32_t blockSize_ = 0;
    double listMaxScore_ = 0.0;
    std::vector<Block> blocks_;
    std::vector<uint8_t> bytes_;
};

/**
 * Read cursor over a block-max list with both *deep* positioning
 * (decode a block, walk its postings) and *shallow* positioning
 * (move the block pointer by metadata alone, never decoding). The
 * block-max evaluators interleave the two: shallow moves answer
 * "could anything here still matter?", deep moves score what does.
 *
 * The cursor position is (block, posting-in-block). Deep positioning
 * is decode-whole-block-then-scan: the first deep access after a
 * shallow move unpacks the block's doc ids into a fixed decode buffer
 * in a few branch-free group steps, and every subsequent doc
 * comparison is a plain array read. Frequencies decode lazily, only
 * when a posting is actually scored.
 *
 * The decode buffer (doc ids and freqs back to back) is caller-owned
 * scratch of scratchSlots(list) slots, never resized. Keeping it out
 * of the object proper matters: the evaluators walk arrays of cursors
 * every round, and a cursor whose metadata fits in ~1.5 cache lines
 * sorts/bounds/seeks materially faster than one bloated by an inline
 * buffer (measured ~10% on the full bench).
 */
class BlockMaxCursor
{
  public:
    /**
     * doc() of an exhausted cursor: larger than every real document
     * (local ids are dense from 0), so the evaluators' "smallest
     * current doc" and "stands on the candidate" tests need no
     * separate exhaustion check.
     */
    static constexpr LocalDocId kExhaustedDoc =
        std::numeric_limits<LocalDocId>::max();

    /**
     * @param io Shared per-query I/O counters; must outlive the cursor.
     * @param scratch Decode storage of scratchSlots(list) uint32_ts
     *        that outlives the cursor (moves included). The evaluators
     *        carve every cursor's scratch out of ONE per-query slab
     *        (QueryCursors) — per-list heap allocations were a
     *        measurable share of short-query latency.
     */
    BlockMaxCursor(const BlockMaxPostingList &list, BlockIo &io,
                   uint32_t *scratch);

    /** Scratch slots (doc ids + freqs halves) a cursor on @p list needs. */
    static std::size_t scratchSlots(const BlockMaxPostingList &list);

    // docs_/freqs_ point into the caller's scratch, which is stable
    // across moves, so the defaulted moves stay valid; copies would
    // need re-anchoring and nothing needs them, so they are disallowed.
    BlockMaxCursor(BlockMaxCursor &&other) noexcept = default;
    BlockMaxCursor &operator=(BlockMaxCursor &&other) noexcept = default;
    BlockMaxCursor(const BlockMaxCursor &) = delete;
    BlockMaxCursor &operator=(const BlockMaxCursor &) = delete;
    ~BlockMaxCursor() = default;

    /**
     * True when the cursor has moved past the last posting. The block
     * count is cached at construction: this predicate runs inside the
     * evaluators' per-round sort keys, where an indirection through
     * the list's block vector would cost a dependent load per call.
     */
    bool
    exhausted() const
    {
        return blockIdx_ >= numBlocks_;
    }

    /**
     * Current document id (kExhaustedDoc once exhausted); decodes the
     * current block if needed. The id is cached so the hot path
     * (evaluators compare doc() inside sort comparators, many times
     * per pivot round) is one branch and one member read — decode
     * happens only right after a block move.
     */
    LocalDocId
    doc()
    {
        if (docValid_)
            return curDoc_;
        ensureDecoded();
        curDoc_ = docs_[pos_];
        docValid_ = true;
        return curDoc_;
    }

    /**
     * Current term frequency; decodes the freq sequence lazily. The
     * evaluators' scoring loops pair it with the doc id they already
     * hold.
     */
    uint32_t
    freq()
    {
        ensureDecoded();
        if (!freqsDecoded_)
            decodeFreqs();
        return freqs_[pos_];
    }

    /**
     * Move to the next posting (current block must be decoded). Inline
     * on purpose: the evaluators call this once per scored posting, and
     * the in-block case is a bump plus one cached array read.
     */
    void
    advance()
    {
        COTTAGE_CHECK_MSG(decodedBlock_ ==
                              static_cast<std::ptrdiff_t>(blockIdx_),
                          "advance on an undecoded block");
        ++pos_;
        if (pos_ < count_) {
            curDoc_ = docs_[pos_];
            docValid_ = true;
        } else {
            ++blockIdx_;
            pos_ = 0;
            docValid_ = false;
            refreshBlockMeta();
        }
    }

    /** Deep seek: first posting with doc >= target, counting skips. */
    void
    seek(LocalDocId target)
    {
        while (!exhausted() && blockLastDoc() < target)
            skipCurrentBlock();
        if (exhausted())
            return;
        ensureDecoded();
        // target <= lastDoc, so the scan always lands inside the block.
        // Hybrid probe: the typical in-block hop is a handful of
        // postings, where a predictable forward scan beats lower_bound's
        // mispredicted halving branches — but a hop that survives 16
        // linear steps is usually aimed deep into the block, where
        // binary search wins. The skip charge is it-begin either way.
        const uint32_t *begin = docs_ + pos_;
        const uint32_t *it = begin;
        while (*it < target) {
            if (++it - begin == 16) {
                const uint32_t *end = docs_ + count_;
                it = std::lower_bound(it, end, target);
                break;
            }
        }
        io_->docsSkipped += static_cast<uint64_t>(it - begin);
        pos_ = static_cast<std::size_t>(it - docs_);
        curDoc_ = *it;
        docValid_ = true;
    }

    /**
     * Shallow seek: move the block pointer to the first block whose
     * lastDoc >= target, without decoding anything. Skipped blocks are
     * charged to BlockIo exactly as in a deep seek.
     */
    void
    shallowSeek(LocalDocId target)
    {
        while (!exhausted() && blockLastDoc() < target)
            skipCurrentBlock();
    }

    /**
     * Position at the first posting with doc >= target WITHOUT
     * charging skip counters: places a cursor at the start of a
     * document slice, where the skipped prefix belongs to other
     * workers (see DocRange in evaluator.h). The landing-block decode
     * IS charged — it is real work this worker performs (and it may be
     * a decode the sequential pass would have shallow-skipped; the
     * slice sum's small block-boundary surplus is deterministic).
     */
    void
    positionAt(LocalDocId target)
    {
        while (!exhausted() && blockLastDoc() < target) {
            ++blockIdx_;
            pos_ = 0;
            docValid_ = false;
            refreshBlockMeta();
        }
        if (exhausted() || target == 0)
            return;
        ensureDecoded();
        // target <= lastDoc, so the probe lands inside the block.
        const uint32_t *it =
            std::lower_bound(docs_ + pos_, docs_ + count_, target);
        pos_ = static_cast<std::size_t>(it - docs_);
        curDoc_ = *it;
        docValid_ = true;
    }

    /**
     * Last document of the current block (metadata only). Cached on
     * block moves: the shallow-bound and block-skip loops read this
     * every round, and the cache turns a double indirection through
     * the list's block vector into a member load.
     */
    LocalDocId
    blockLastDoc() const
    {
        return curLastDoc_;
    }

    /** Unweighted score bound of the current block (cached likewise). */
    double
    blockMaxScore() const
    {
        return curBlockMax_;
    }

  private:
    /**
     * Make the current block's doc ids available in docs_. Inline
     * fast path: when the block is already decoded this is a single
     * compare. The decode itself (and the exhaustion check guarding
     * it) lives out of line in decodeCurrentBlock().
     */
    void
    ensureDecoded()
    {
        if (decodedBlock_ != static_cast<std::ptrdiff_t>(blockIdx_))
            decodeCurrentBlock();
    }

    void decodeCurrentBlock();
    void decodeFreqs();

    /** Drop the rest of the current block, charging the skips. */
    void
    skipCurrentBlock()
    {
        io_->docsSkipped += curBlockCount_ - pos_;
        if (decodedBlock_ != static_cast<std::ptrdiff_t>(blockIdx_))
            ++io_->blocksSkipped;
        ++blockIdx_;
        pos_ = 0;
        docValid_ = false;
        refreshBlockMeta();
    }

    /**
     * Refresh the cached block metadata after a block move; past the
     * last block, pin doc() to kExhaustedDoc.
     */
    void
    refreshBlockMeta()
    {
        if (blockIdx_ < numBlocks_) {
            const BlockMaxPostingList::Block &b = list_->block(blockIdx_);
            curLastDoc_ = b.lastDoc;
            curBlockMax_ = b.maxScore;
            curBlockCount_ = b.count;
        } else {
            curDoc_ = kExhaustedDoc;
            docValid_ = true;
        }
    }

    const BlockMaxPostingList *list_;
    BlockIo *io_; // never null; a pointer so cursors stay movable
    std::size_t numBlocks_ = 0;
    std::size_t blockIdx_ = 0;
    std::size_t pos_ = 0;
    std::size_t count_ = 0;
    std::ptrdiff_t decodedBlock_ = -1;
    std::size_t freqOffset_ = 0;
    bool freqsDecoded_ = false;
    LocalDocId curDoc_ = 0;
    bool docValid_ = false;
    LocalDocId curLastDoc_ = 0;
    uint32_t curBlockCount_ = 0;
    double curBlockMax_ = 0.0;

    // Decode storage in the caller's scratch, doc ids first then
    // freqs; each half has streamVByteDecodeCapacity(blockSize) slots
    // because group decodes store four lanes at a time.
    uint32_t *docs_ = nullptr;
    uint32_t *freqs_ = nullptr;
};

/**
 * Per-query scratch-slab size (uint32 slots) QueryCursors keeps on the
 * stack: queries whose cursors' combined scratchSlots() fit (boundary
 * inclusive) decode into a stack array, anything larger spills to one
 * heap slab. Exported so the stack/heap boundary is a single number
 * tests can target exactly (tests/test_blockmax.cc pins both sides of
 * it).
 */
constexpr std::size_t kEvaluatorStackSlabSlots = 2048;

/** One query term's cursor with the constants evaluators score and
 *  prune it with. */
struct TermCursor
{
    BlockMaxCursor cursor;

    /** Global idf times the query weight. */
    double idf;

    /**
     * Whole-list rank-safe bound: the list maximum times the weight,
     * and 0 for a demoting (negative-weight) term — BM25 posting
     * scores are non-negative, so maxScore × weight would be its
     * *lower* bound.
     */
    double maxScore;

    /** The weight clamped at 0: scales the unweighted block maxima. */
    double boundScale;

    /**
     * Ordering key: the current doc, or kExhaustedDoc once the cursor
     * is exhausted or stands at or past the slice end @p end (postings
     * from there on belong to other workers' slices; the peek that
     * learns this may decode one block — see DocRange).
     */
    LocalDocId
    key(LocalDocId end)
    {
        const LocalDocId doc = cursor.doc();
        return doc >= end ? BlockMaxCursor::kExhaustedDoc : doc;
    }
};

/**
 * The cursors of one query evaluation, the one way every evaluator
 * opens them: one TermCursor per query term with a non-empty list on
 * the shard, in query-term order (load-bearing: scoring sums a
 * candidate's contributions in this order, which keeps scores
 * bit-identical across evaluators), each positioned at the slice
 * start without charging skips (BlockMaxCursor::positionAt).
 *
 * Every cursor carves its decode buffer out of ONE per-query slab: a
 * stack array when the combined demand fits kEvaluatorStackSlabSlots,
 * one heap allocation otherwise. Per-list heap allocations were a
 * measurable share of short-query latency. The cursors point into the
 * slab, so the object is neither copied nor moved.
 */
class QueryCursors
{
  public:
    /**
     * @param index The shard.
     * @param terms Query terms with their weights.
     * @param begin Slice start: cursors are positioned at the first
     *        posting with doc >= begin.
     * @param io Shared per-query I/O counters.
     */
    QueryCursors(const InvertedIndex &index,
                 const std::vector<WeightedTerm> &terms, LocalDocId begin,
                 BlockIo &io);

    QueryCursors(const QueryCursors &) = delete;
    QueryCursors &operator=(const QueryCursors &) = delete;

    /** The opened cursors, in query-term order. */
    std::vector<TermCursor> &cursors() { return cursors_; }

  private:
    // Never value-initialized: a block decode writes every slot it
    // later reads (see BlockMaxCursor's decode storage).
    uint32_t stackSlab_[kEvaluatorStackSlabSlots];
    std::unique_ptr<uint32_t[]> heapSlab_;
    std::vector<TermCursor> cursors_;
};

} // namespace cottage

#endif // COTTAGE_INDEX_BLOCK_MAX_H
