#include "policy/csi.h"

#include <algorithm>
#include <functional>

#include "index/exhaustive_evaluator.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cottage {

CentralSampleIndex::CentralSampleIndex(const Corpus &corpus,
                                       const ShardedIndex &index,
                                       double sampleRate, uint64_t seed)
    : index_(&index), sampledPerShard_(index.numShards(), 0)
{
    COTTAGE_CHECK_MSG(sampleRate > 0.0 && sampleRate <= 1.0,
                      "CSI sample rate must be in (0, 1]");
    Rng rng(seed);
    std::vector<DocId> sampled;
    for (ShardId s = 0; s < index.numShards(); ++s) {
        const std::vector<DocId> &docs = index.shardDocs(s);
        bool any = false;
        for (DocId doc : docs) {
            if (rng.bernoulli(sampleRate)) {
                sampled.push_back(doc);
                ++sampledPerShard_[s];
                any = true;
            }
        }
        if (!any) {
            sampled.push_back(
                docs[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(docs.size()) - 1))]);
            ++sampledPerShard_[s];
        }
    }
    std::sort(sampled.begin(), sampled.end(), std::less<DocId>());
    total_ = sampled.size();

    auto stats = std::make_shared<CollectionStats>(corpus);
    csi_ = std::make_unique<InvertedIndex>(corpus, sampled,
                                           std::move(stats),
                                           index.config().bm25);
}

std::size_t
CentralSampleIndex::sampledFrom(ShardId shard) const
{
    COTTAGE_CHECK(shard < sampledPerShard_.size());
    return sampledPerShard_[shard];
}

std::vector<ScoredDoc>
CentralSampleIndex::search(const std::vector<TermId> &terms,
                           std::size_t depth) const
{
    return search(toWeighted(terms), depth);
}

std::vector<ScoredDoc>
CentralSampleIndex::search(const std::vector<WeightedTerm> &terms,
                           std::size_t depth) const
{
    const ExhaustiveEvaluator evaluator;
    return evaluator.search(*csi_, terms, depth).topK;
}

ShardId
CentralSampleIndex::shardOf(DocId doc) const
{
    return index_->shardOf(doc);
}

} // namespace cottage
