#include "index/inverted_index.h"

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

    // First pass: count each term's postings, dense over the
    // vocabulary. One ascending scan then turns each count into a
    // slot, so slots follow TermId order and each slot's postings get
    // one contiguous run of the staging array.
    termSlot_.assign(corpus.vocabulary().size(), 0);
    for (DocId id : docIds)
        for (const TermFreq &tf : corpus.document(id).terms)
            ++termSlot_[tf.term];
    std::vector<TermId> terms;
    std::vector<std::size_t> offsets{0};
    for (TermId term = 0; term < termSlot_.size(); ++term) {
        const uint32_t count = termSlot_[term];
        if (count == 0) {
            termSlot_[term] = kNoSlot;
            continue;
        }
        termSlot_[term] = static_cast<uint32_t>(terms.size());
        terms.push_back(term);
        offsets.push_back(offsets.back() + count);
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
            staged[fill[termSlot_[tf.term]]++] = {local, tf.freq};
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
    const uint32_t s = slot(term);
    return s == kNoSlot ? nullptr : &blockLists_[s];
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
