#include "index/inverted_index.h"

#include <algorithm>
#include <functional>
#include <span>

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

    // First pass: count each term's postings to size the slot table
    // and the staging array.
    std::unordered_map<TermId, uint32_t> termCounts;
    for (DocId id : docIds)
        for (const TermFreq &tf : corpus.document(id).terms)
            ++termCounts[tf.term];
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

    // Each slot's postings get one contiguous run of the staging array.
    std::vector<std::size_t> offsets(terms.size() + 1, 0);
    for (uint32_t slot = 0; slot < terms.size(); ++slot) {
        termSlot_.emplace(terms[slot], slot);
        offsets[slot + 1] = offsets[slot] + termCounts.at(terms[slot]);
    }

    // Second pass: stage the flat postings. Documents are visited in
    // docIds order, so each run stays ascending by local doc index.
    // The staging array lives only in this constructor: the block
    // lists below are the index's one copy of the postings.
    std::vector<Posting> staged(offsets.back());
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    for (LocalDocId local = 0; local < docIds.size(); ++local) {
        const Document &doc = corpus.document(docIds[local]);
        lengths_.push_back(doc.length);
        globalIds_.push_back(doc.id);
        for (const TermFreq &tf : doc.terms)
            staged[fill[termSlot_.at(tf.term)]++] = {local, tf.freq};
    }
    totalPostings_ = staged.size();

    // One scoring pass per list fills its block maxima; the whole-list
    // bound the pruning evaluators use is the max over them.
    blockLists_.reserve(terms.size());
    for (uint32_t slot = 0; slot < terms.size(); ++slot) {
        const double termIdf = idf(terms[slot]);
        blockLists_.emplace_back(
            terms[slot],
            std::span<const Posting>(staged).subspan(
                offsets[slot], offsets[slot + 1] - offsets[slot]),
            blockSize_, [&](const Posting &posting) {
                return scorePosting(termIdf, posting);
            });
    }
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
    fp.rawPostingBytes = totalPostings_ * sizeof(Posting);
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
    const BlockMaxPostingList *list = blockMax(term);
    return list == nullptr ? 0.0 : list->maxScore();
}

} // namespace cottage
