#include "index/inverted_index.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace cottage {

InvertedIndex::InvertedIndex(const Corpus &corpus,
                             const std::vector<DocId> &docIds,
                             std::shared_ptr<const CollectionStats> stats,
                             Bm25Params params, uint32_t blockSize)
    : stats_(std::move(stats)),
      scorer_(stats_->numDocs(), stats_->avgDocLength(), params),
      blockSize_(blockSize)
{
    COTTAGE_CHECK_MSG(!docIds.empty(), "a shard needs documents");
    COTTAGE_CHECK_MSG(blockSize >= 1, "block size must be positive");
    lengths_.reserve(docIds.size());
    globalIds_.reserve(docIds.size());

    // First pass: count distinct terms to size the slot table.
    std::unordered_map<TermId, uint32_t> termCounts;
    for (DocId id : docIds)
        for (const TermFreq &tf : corpus.document(id).terms)
            ++termCounts[tf.term];

    lists_.resize(termCounts.size());
    maxScores_.assign(termCounts.size(), 0.0);
    termSlot_.reserve(termCounts.size() * 2);

    // Assign slots in ascending TermId order so the list layout never
    // depends on the standard library's hash ordering. The collection
    // loop itself may read the hash map in whatever order it likes:
    std::vector<TermId> terms;
    terms.reserve(termCounts.size());
    // cottage-lint: allow(D1): order-independent key harvest, sorted below
    for (const auto &entry : termCounts)
        terms.push_back(entry.first);
    std::sort(terms.begin(), terms.end(), std::less<TermId>());

    uint32_t nextSlot = 0;
    for (TermId term : terms) {
        termSlot_.emplace(term, nextSlot);
        lists_[nextSlot].term = term;
        lists_[nextSlot].postings.reserve(termCounts.at(term));
        ++nextSlot;
    }

    // Second pass: fill postings. Documents are visited in docIds
    // order, so postings stay ascending by local doc index.
    for (LocalDocId local = 0; local < docIds.size(); ++local) {
        const Document &doc = corpus.document(docIds[local]);
        lengths_.push_back(doc.length);
        globalIds_.push_back(doc.id);
        for (const TermFreq &tf : doc.terms) {
            PostingList &list = lists_[termSlot_.at(tf.term)];
            list.postings.push_back({local, tf.freq});
            ++totalPostings_;
        }
    }

    // One scoring pass per list builds the block-max skip layer; the
    // whole-list bound the flat pruning evaluators use is the max over
    // the block maxima, so both layers agree exactly.
    blockLists_.reserve(lists_.size());
    for (uint32_t slot = 0; slot < lists_.size(); ++slot) {
        const double termIdf = idf(lists_[slot].term);
        blockLists_.emplace_back(
            lists_[slot], blockSize_, [&](const Posting &posting) {
                return scorePosting(termIdf, posting);
            });
        maxScores_[slot] = blockLists_[slot].maxScore();
    }
}

const PostingList *
InvertedIndex::postings(TermId term) const
{
    const auto it = termSlot_.find(term);
    return it == termSlot_.end() ? nullptr : &lists_[it->second];
}

const BlockMaxPostingList *
InvertedIndex::blockMax(TermId term) const
{
    const auto it = termSlot_.find(term);
    return it == termSlot_.end() ? nullptr : &blockLists_[it->second];
}

double
InvertedIndex::idf(TermId term) const
{
    return scorer_.idf(stats_->docFreq(term));
}

InvertedIndex::Footprint
InvertedIndex::footprint() const
{
    Footprint fp;
    for (const PostingList &list : lists_)
        fp.rawPostingBytes += list.size() * sizeof(Posting);
    for (const BlockMaxPostingList &list : blockLists_) {
        fp.blockMetadataBytes += list.metadataBytes();
        fp.blockPayloadBytes += list.payloadBytes();
    }
    fp.compressedPostingBytes = fp.blockPayloadBytes;
    fp.blockMaxBytes = fp.blockMetadataBytes + fp.blockPayloadBytes;
    fp.docTableBytes = lengths_.size() * sizeof(uint32_t) +
                       globalIds_.size() * sizeof(DocId);
    return fp;
}

double
InvertedIndex::maxScore(TermId term) const
{
    const auto it = termSlot_.find(term);
    return it == termSlot_.end() ? 0.0 : maxScores_[it->second];
}

} // namespace cottage
