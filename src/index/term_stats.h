/**
 * @file
 * Indexing-time per-term score statistics.
 *
 * Cottage's two predictors consume only features derived from term
 * statistics computed during the indexing phase (paper §III-B/III-C,
 * Tables I and II). This store computes, for every term of a shard, the
 * full score distribution summary of that term's postings plus the
 * pruning-behaviour features (local maxima, documents ever in top-K,
 * near-max counts) that make service time predictable under
 * MaxScore/WAND.
 */

#ifndef COTTAGE_INDEX_TERM_STATS_H
#define COTTAGE_INDEX_TERM_STATS_H

#include <cstdint>
#include <vector>

#include "index/inverted_index.h"
#include "text/types.h"

namespace cottage {

/** Score-distribution statistics of one term on one shard. */
struct TermStats
{
    /** Shard-local posting-list length (document count). */
    double postingLength = 0.0;

    /** First quartile of per-document scores. */
    double firstQuartile = 0.0;

    /** Median per-document score. */
    double median = 0.0;

    /** Third quartile of per-document scores. */
    double thirdQuartile = 0.0;

    /** Arithmetic mean score. */
    double meanScore = 0.0;

    /** Geometric mean score. */
    double geoMeanScore = 0.0;

    /** Harmonic mean score. */
    double harmMeanScore = 0.0;

    /** Population variance of scores. */
    double scoreVariance = 0.0;

    /** K-th largest score (smallest score when fewer than K docs). */
    double kthScore = 0.0;

    /** Maximum score (the exact pruning bound). */
    double maxScore = 0.0;

    /**
     * Heap insertions while streaming this term's postings in DocId
     * order through a top-K accumulator ("documents ever in top-K",
     * Table II) — a direct proxy for pruning work.
     */
    double docsEverInTopK = 0.0;

    /** Strict local maxima of the DocId-ordered score sequence. */
    double localMaxima = 0.0;

    /** Local maxima whose score exceeds the mean score. */
    double localMaximaAboveMean = 0.0;

    /** Number of documents achieving the maximum score. */
    double numMaxScore = 0.0;

    /** Documents scoring within 5% of the maximum score. */
    double docsNearMax = 0.0;

    /** Documents scoring within 5% of the K-th score. */
    double docsNearKth = 0.0;

    /**
     * Static score upper bound (tf -> infinity limit), the "Estimated
     * max score" approximation of Macdonald et al. [37].
     */
    double estimatedMaxScore = 0.0;

    /** Global IDF of the term. */
    double idf = 0.0;
};

/**
 * All term statistics of one shard, built once at indexing time.
 */
class TermStatsStore
{
  public:
    /**
     * Compute statistics for every term on the shard.
     *
     * @param index The shard's inverted index; it must outlive the
     *        store, whose lookups go through its slot table.
     * @param k Result depth the engine serves (the K of top-K).
     */
    TermStatsStore(const InvertedIndex &index, std::size_t k);

    /** Statistics of a term, or nullptr when the shard lacks it. */
    const TermStats *
    get(TermId term) const
    {
        const uint32_t slot = index_->slot(term);
        return slot == InvertedIndex::kNoSlot ? nullptr : &stats_[slot];
    }

    /** Result depth the statistics were computed for. */
    std::size_t k() const { return k_; }

    /** Number of terms with statistics. */
    std::size_t size() const { return stats_.size(); }

  private:
    const InvertedIndex *index_;
    std::size_t k_;
    std::vector<TermStats> stats_; // in the index's slot order
};

} // namespace cottage

#endif // COTTAGE_INDEX_TERM_STATS_H
