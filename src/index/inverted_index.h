/**
 * @file
 * One shard's inverted index: StreamVByte block-max posting lists (the
 * one postings format), document metadata, and the shard-local BM25
 * machinery (sharing global collection statistics so scores merge
 * exactly across shards).
 */

#ifndef COTTAGE_INDEX_INVERTED_INDEX_H
#define COTTAGE_INDEX_INVERTED_INDEX_H

#include <cstdint>
#include <memory>
#include <vector>

#include "index/block_max.h"
#include "index/bm25.h"
#include "index/collection_stats.h"
#include "index/postings.h"
#include "text/corpus.h"
#include "text/types.h"

namespace cottage {

/**
 * Immutable per-shard inverted index.
 */
class InvertedIndex
{
  public:
    /**
     * Build the index over a subset of a corpus.
     *
     * @param corpus The full corpus.
     * @param docIds Global ids of the documents assigned to this shard.
     * @param stats Shared global collection statistics.
     * @param params BM25 parameters.
     * @param blockSize Postings per block in the block-max skip layer.
     */
    InvertedIndex(const Corpus &corpus, const std::vector<DocId> &docIds,
                  std::shared_ptr<const CollectionStats> stats,
                  Bm25Params params = {}, uint32_t blockSize = 128);

    /** slot() of a term the shard lacks. */
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /**
     * A term's position in blockLists() and in every per-shard table
     * kept in that order (TermStatsStore), or kNoSlot when the shard
     * lacks it. Ids past the vocabulary are absent too.
     */
    uint32_t
    slot(TermId term) const
    {
        return term < termSlot_.size() ? termSlot_[term] : kNoSlot;
    }

    /**
     * Posting list for a term, or nullptr when the shard lacks it.
     * Block maxima are unweighted (queries scale them by the term
     * weight).
     */
    const BlockMaxPostingList *blockMax(TermId term) const;

    /**
     * Every posting list, ascending by term: index-time scans (term
     * statistics, score histograms) walk these.
     */
    const std::vector<BlockMaxPostingList> &
    blockLists() const
    {
        return blockLists_;
    }

    /** Postings per block in the block-max layer. */
    uint32_t blockSize() const { return blockSize_; }

    /** Number of documents on this shard. */
    uint32_t numDocs() const { return static_cast<uint32_t>(lengths_.size()); }

    /** Token length of a shard-local document. */
    uint32_t docLength(LocalDocId local) const { return lengths_[local]; }

    /** Global id of a shard-local document. */
    DocId globalDoc(LocalDocId local) const { return globalIds_[local]; }

    /** Number of distinct terms present on this shard. */
    std::size_t numTerms() const { return blockLists_.size(); }

    /** The scorer (global statistics, shared across shards). */
    const Bm25 &scorer() const { return scorer_; }

    /** Global IDF of a term (from the shared collection statistics). */
    double idf(TermId term) const;

    /**
     * Exact per-shard upper bound of a term's BM25 contribution: the
     * max over this shard's postings, computed at build time (the
     * list's maximum over its block maxima). Returns 0 for absent
     * terms. This is what MaxScore/WAND prune with.
     */
    double maxScore(TermId term) const;

    /** Total number of postings on this shard. */
    uint64_t totalPostings() const { return totalPostings_; }

    /** Index storage accounting (raw vs StreamVByte-compressed postings). */
    struct Footprint
    {
        /**
         * Uncompressed posting bytes (8 per posting): what flat lists
         * would take. The index stores none.
         */
        std::size_t rawPostingBytes = 0;

        /**
         * Bytes the postings take compressed: the StreamVByte block
         * payloads, the only compressed form the index stores
         * (== blockPayloadBytes).
         */
        std::size_t compressedPostingBytes = 0;

        /** Document-metadata bytes (lengths + global id map). */
        std::size_t docTableBytes = 0;

        /**
         * Block-max skip layer, total: per-block metadata plus the
         * StreamVByte payload streams (== blockMetadataBytes +
         * blockPayloadBytes).
         */
        std::size_t blockMaxBytes = 0;

        /** Per-block skip metadata (lastDoc/maxScore/offset/count). */
        std::size_t blockMetadataBytes = 0;

        /** StreamVByte block payloads (control + data + padding). */
        std::size_t blockPayloadBytes = 0;
    };

    /**
     * Compute the storage footprint: one pass over the lists, for
     * reports, not hot paths.
     */
    Footprint footprint() const;

    /** Score one posting of a term (helper shared by evaluators). */
    double
    scorePosting(double termIdf, const Posting &posting) const
    {
        return scorer_.score(termIdf, posting.freq, lengths_[posting.doc]);
    }

  private:
    std::shared_ptr<const CollectionStats> stats_;
    Bm25 scorer_;
    std::vector<uint32_t> lengths_;
    std::vector<DocId> globalIds_;
    std::vector<uint32_t> termSlot_; // dense over the vocabulary
    std::vector<BlockMaxPostingList> blockLists_;
    uint32_t blockSize_ = 128;
    uint64_t totalPostings_ = 0;
};

} // namespace cottage

#endif // COTTAGE_INDEX_INVERTED_INDEX_H
