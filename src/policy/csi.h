/**
 * @file
 * Central Sample Index (CSI): a small uniform sample of every shard's
 * documents, indexed at the aggregator with the same global scoring
 * statistics. The shared substrate of the CSI family of selective
 * search algorithms, here Rank-S [17].
 */

#ifndef COTTAGE_POLICY_CSI_H
#define COTTAGE_POLICY_CSI_H

#include <memory>
#include <vector>

#include "index/evaluator.h"
#include "index/inverted_index.h"
#include "shard/sharded_index.h"
#include "text/corpus.h"

namespace cottage {

/** Sampled central index with shard attribution. */
class CentralSampleIndex
{
  public:
    /**
     * Sample every shard at @p sampleRate (at least one document per
     * shard, so none is structurally invisible).
     */
    CentralSampleIndex(const Corpus &corpus, const ShardedIndex &index,
                       double sampleRate, uint64_t seed);

    /** Number of sampled documents. */
    std::size_t size() const { return sampledPerShard_.empty() ? 0 : total_; }

    /** Sampled documents from one shard. */
    std::size_t sampledFrom(ShardId shard) const;

    /** Top-@p depth CSI results for a query (global DocIds). */
    std::vector<ScoredDoc> search(const std::vector<TermId> &terms,
                                  std::size_t depth) const;

    /** Weighted (personalized) CSI search. */
    std::vector<ScoredDoc> search(const std::vector<WeightedTerm> &terms,
                                  std::size_t depth) const;

    /** Shard that owns a CSI hit. */
    ShardId shardOf(DocId doc) const;

  private:
    const ShardedIndex *index_;
    std::unique_ptr<InvertedIndex> csi_;
    std::vector<std::size_t> sampledPerShard_;
    std::size_t total_ = 0;
};

} // namespace cottage

#endif // COTTAGE_POLICY_CSI_H
