/**
 * @file
 * Query-evaluation strategy interface and its work accounting.
 *
 * The work counters are the bridge between real retrieval and the
 * simulated testbed: the cluster simulator converts postings/documents
 * scored into CPU cycles, so the simulated service times inherit the
 * real long-tailed work distribution (Fig. 2a) and respond to dynamic
 * pruning exactly as the paper's Solr deployment does.
 */

#ifndef COTTAGE_INDEX_EVALUATOR_H
#define COTTAGE_INDEX_EVALUATOR_H

#include <cstdint>
#include <limits>
#include <vector>

#include "index/inverted_index.h"
#include "index/top_k.h"
#include "text/types.h"

namespace cottage {

/** "No document cap" sentinel for anytime evaluation. */
constexpr uint64_t noDocCap = std::numeric_limits<uint64_t>::max();

/**
 * Half-open shard-local document range [begin, end) an evaluation is
 * restricted to. The parallel traversal driver (src/engine) splits a
 * shard's dense local-id space into contiguous slices, one per worker;
 * the default range covers every document, and evaluating the full
 * range is byte-identical to the pre-range code path.
 *
 * Positioning to `begin` is uncharged (no skip counters): the skipped
 * prefix belongs to *other* workers' slices, so charging it here would
 * double-count work across the slice sum. Work done strictly inside
 * the range is charged exactly as in a full evaluation.
 */
struct DocRange
{
    LocalDocId begin = 0;
    LocalDocId end = std::numeric_limits<LocalDocId>::max();

    /** True when the range covers the whole local-id space. */
    bool
    full() const
    {
        return begin == 0 &&
               end == std::numeric_limits<LocalDocId>::max();
    }
};

/** The whole shard: the default range of every evaluation. */
constexpr DocRange fullDocRange{};

/** Work performed while evaluating one query on one shard. */
struct SearchWork
{
    /** Postings decoded and scored. */
    uint64_t postingsScored = 0;

    /** Distinct candidate documents evaluated. */
    uint64_t docsScored = 0;

    /** Top-K heap insertions (a MaxScore/WAND behaviour feature). */
    uint64_t heapInsertions = 0;

    /** Postings skipped by dynamic pruning (never decoded). */
    uint64_t postingsSkipped = 0;

    /**
     * Candidate documents passed over by seeks without being scored.
     * For the flat evaluators this mirrors seek-skipped postings; for
     * the block-max evaluators it additionally counts the postings of
     * whole skipped blocks, so traces show the pruning savings.
     */
    uint64_t docsSkipped = 0;

    /** Posting blocks decoded by the block-max evaluators. */
    uint64_t blocksDecoded = 0;

    /** Posting blocks skipped undecoded via their block maxima. */
    uint64_t blocksSkipped = 0;

    /**
     * True if the evaluation stopped at its maxScoredDocs cap while
     * scoreable candidates remained: the top-K is the anytime
     * best-so-far, not the full shard ranking.
     */
    bool truncated = false;

    /** Counter-for-counter equality (the bench's repeat-determinism
     *  CHECK and tests compare whole work records). */
    bool operator==(const SearchWork &other) const = default;

    SearchWork &
    operator+=(const SearchWork &other)
    {
        postingsScored += other.postingsScored;
        docsScored += other.docsScored;
        heapInsertions += other.heapInsertions;
        postingsSkipped += other.postingsSkipped;
        docsSkipped += other.docsSkipped;
        blocksDecoded += other.blocksDecoded;
        blocksSkipped += other.blocksSkipped;
        truncated = truncated || other.truncated;
        return *this;
    }
};

/** Result of one shard-local query evaluation. */
struct SearchResult
{
    /** Best-first ranking of at most K hits (global DocIds). */
    std::vector<ScoredDoc> topK;

    /** Work accounting for the latency model. */
    SearchWork work;
};

/**
 * One query term with its personalization weight: the term's BM25
 * contribution is multiplied by the weight (1.0 = unpersonalized).
 */
struct WeightedTerm
{
    TermId term = invalidTerm;
    double weight = 1.0;
};

/** Uniform-weight lift of a plain term list. */
std::vector<WeightedTerm> toWeighted(const std::vector<TermId> &terms);

/**
 * A top-K retrieval strategy over one shard. Implementations must all
 * return exactly the same top-K ranking (rank-safe pruning); only the
 * work differs. Tests enforce this equivalence property.
 *
 * Every strategy is additionally an *anytime* algorithm: capped at
 * maxScoredDocs candidate documents it stops there, returns its
 * best-so-far heap and flags the work as truncated. The cap is counted
 * in deterministic evaluation order, so a capped run is a bit-exact
 * prefix replay — never a wall-clock race (see DESIGN.md §5c).
 */
class Evaluator
{
  public:
    virtual ~Evaluator() = default;

    /**
     * Strategy name for reports ("exhaustive", "maxscore", "wand",
     * "bmw").
     */
    virtual const char *name() const = 0;

    /**
     * Evaluate a weighted (personalized) query on a shard slice.
     *
     * @param index The shard's index.
     * @param terms Distinct query terms with non-zero weights (negative
     *        weights demote; pruning bounds stay rank-safe).
     * @param k Result depth.
     * @param maxScoredDocs Anytime cap: stop after scoring this many
     *        candidate documents (noDocCap = run to completion).
     * @param range Shard-local document slice to evaluate; candidates
     *        outside [range.begin, range.end) are neither scored nor
     *        charged (positioning to the slice start is free — see
     *        DocRange). The slice's top-K is rank-safe over the slice.
     */
    virtual SearchResult search(const InvertedIndex &index,
                                const std::vector<WeightedTerm> &terms,
                                std::size_t k, uint64_t maxScoredDocs,
                                DocRange range) const = 0;

    /** Convenience: whole-shard evaluation. */
    SearchResult
    search(const InvertedIndex &index,
           const std::vector<WeightedTerm> &terms, std::size_t k,
           uint64_t maxScoredDocs) const
    {
        return search(index, terms, k, maxScoredDocs, fullDocRange);
    }

    /** Convenience: uncapped evaluation. */
    SearchResult
    search(const InvertedIndex &index,
           const std::vector<WeightedTerm> &terms, std::size_t k) const
    {
        return search(index, terms, k, noDocCap);
    }

    /** Convenience: uniform-weight evaluation. */
    SearchResult
    search(const InvertedIndex &index, const std::vector<TermId> &terms,
           std::size_t k, uint64_t maxScoredDocs = noDocCap) const
    {
        return search(index, toWeighted(terms), k, maxScoredDocs);
    }
};

} // namespace cottage

#endif // COTTAGE_INDEX_EVALUATOR_H
