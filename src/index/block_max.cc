#include "index/block_max.h"

#include <algorithm>
#include <limits>

#include "index/block_codec.h"
#include "index/evaluator.h"
#include "index/inverted_index.h"
#include "util/logging.h"

namespace cottage {

BlockMaxPostingList::BlockMaxPostingList(
    TermId term, std::span<const Posting> postings, uint32_t blockSize,
    const std::function<double(const Posting &)> &score)
    : term_(term), count_(postings.size()), blockSize_(blockSize)
{
    COTTAGE_CHECK_MSG(blockSize >= 1, "block size must be positive");
    blocks_.reserve((count_ + blockSize - 1) / blockSize);
    bytes_.reserve(count_ * 2 + kStreamVBytePadding);

    // Per-block scratch: deltas and freqs are staged flat, then each
    // becomes one StreamVByte sequence in the shared payload stream.
    std::vector<uint32_t> deltas;
    std::vector<uint32_t> freqs;
    deltas.reserve(std::min<std::size_t>(blockSize, count_));
    freqs.reserve(std::min<std::size_t>(blockSize, count_));

    LocalDocId last = 0;
    for (std::size_t begin = 0; begin < count_; begin += blockSize) {
        const std::size_t end = std::min<std::size_t>(begin + blockSize,
                                                      count_);
        Block block;
        COTTAGE_CHECK_MSG(bytes_.size() <=
                              std::numeric_limits<uint32_t>::max(),
                          "block payload stream exceeds 4 GiB");
        block.offset = static_cast<uint32_t>(bytes_.size());
        block.count = static_cast<uint32_t>(end - begin);
        deltas.clear();
        freqs.clear();
        for (std::size_t i = begin; i < end; ++i) {
            const Posting &posting = postings[i];
            // The gap chain restarts at each block: the block's first
            // gap is relative to the *previous block's* lastDoc (or
            // absolute for block 0), so a block decodes standalone.
            const uint32_t gap =
                (begin == 0 && i == begin) ? posting.doc
                                           : posting.doc - last - 1;
            COTTAGE_CHECK_MSG((begin == 0 && i == begin) ||
                                  posting.doc > last,
                              "postings must ascend by doc");
            deltas.push_back(gap);
            freqs.push_back(posting.freq);
            last = posting.doc;
            block.maxScore = std::max(block.maxScore, score(posting));
        }
        streamVByteEncode(deltas.data(), deltas.size(), bytes_);
        streamVByteEncode(freqs.data(), freqs.size(), bytes_);
        block.lastDoc = last;
        listMaxScore_ = std::max(listMaxScore_, block.maxScore);
        blocks_.push_back(block);
    }
    // One tail pad serves every block: the decoder may read up to
    // kStreamVBytePadding bytes past a sequence's logical end.
    bytes_.insert(bytes_.end(), kStreamVBytePadding, uint8_t{0});
    bytes_.shrink_to_fit();
}

std::size_t
BlockMaxPostingList::decodeBlockDocs(std::size_t b, uint32_t *docs) const
{
    COTTAGE_CHECK_MSG(b < blocks_.size(), "block index out of range");
    const Block &block = blocks_[b];
    COTTAGE_CHECK_MSG(bytes_.size() >=
                          block.offset + kStreamVBytePadding,
                      "truncated streamvbyte control stream");
    const std::size_t avail =
        bytes_.size() - kStreamVBytePadding - block.offset;
    // Block 0's first gap is the absolute doc id; the 0xffffffff seed
    // makes the codec's uniform "+ gap + 1" chain yield exactly that
    // (see streamVByteDecodeDeltas). Every other block chains from the
    // previous block's lastDoc.
    const uint32_t prev =
        b == 0 ? 0xffffffffu : blocks_[b - 1].lastDoc;
    const std::size_t consumed =
        streamVByteDecodeDeltas(bytes_.data() + block.offset, avail,
                                block.count, prev, docs);
    return block.offset + consumed;
}

void
BlockMaxPostingList::decodeBlockFreqs(std::size_t b,
                                      std::size_t freqOffset,
                                      uint32_t *freqs) const
{
    const Block &block = blocks_[b];
    COTTAGE_CHECK_MSG(bytes_.size() >= freqOffset + kStreamVBytePadding,
                      "truncated streamvbyte control stream");
    const std::size_t avail =
        bytes_.size() - kStreamVBytePadding - freqOffset;
    (void)streamVByteDecode(bytes_.data() + freqOffset, avail,
                            block.count, freqs);
}

void
BlockMaxPostingList::decode(std::vector<Posting> &out) const
{
    std::vector<uint32_t> docs(streamVByteDecodeCapacity(blockSize_));
    std::vector<uint32_t> freqs(streamVByteDecodeCapacity(blockSize_));
    out.clear();
    out.reserve(count_);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const std::size_t freqOffset = decodeBlockDocs(b, docs.data());
        decodeBlockFreqs(b, freqOffset, freqs.data());
        for (uint32_t i = 0; i < blocks_[b].count; ++i)
            out.push_back({docs[i], freqs[i]});
    }
}

BlockMaxCursor::BlockMaxCursor(const BlockMaxPostingList &list,
                               BlockIo &io, uint32_t *scratch)
    : list_(&list), io_(&io), numBlocks_(list.numBlocks())
{
    const std::size_t cap = streamVByteDecodeCapacity(list.blockSize());
    docs_ = scratch;
    freqs_ = scratch + cap;
    refreshBlockMeta();
}

std::size_t
BlockMaxCursor::scratchSlots(const BlockMaxPostingList &list)
{
    return 2 * streamVByteDecodeCapacity(list.blockSize());
}

void
BlockMaxCursor::decodeCurrentBlock()
{
    COTTAGE_CHECK_MSG(!exhausted(), "cursor exhausted");
    count_ = list_->block(blockIdx_).count;
    freqOffset_ = list_->decodeBlockDocs(blockIdx_, docs_);
    freqsDecoded_ = false;
    decodedBlock_ = static_cast<std::ptrdiff_t>(blockIdx_);
    ++io_->blocksDecoded;
}

void
BlockMaxCursor::decodeFreqs()
{
    list_->decodeBlockFreqs(blockIdx_, freqOffset_, freqs_);
    freqsDecoded_ = true;
}

QueryCursors::QueryCursors(const InvertedIndex &index,
                           const std::vector<WeightedTerm> &terms,
                           LocalDocId begin, BlockIo &io)
{
    // Size pass: the slab must be fully allocated before the first
    // cursor is built. The second blockMax() hash probe per term is
    // far cheaper than a vector of picked lists on short queries.
    std::size_t slabSlots = 0;
    std::size_t live = 0;
    for (const WeightedTerm &wt : terms) {
        const BlockMaxPostingList *list = index.blockMax(wt.term);
        if (list != nullptr && !list->empty()) {
            slabSlots += BlockMaxCursor::scratchSlots(*list);
            ++live;
        }
    }
    uint32_t *slab = stackSlab_;
    if (slabSlots > kEvaluatorStackSlabSlots) {
        heapSlab_ = std::make_unique_for_overwrite<uint32_t[]>(slabSlots);
        slab = heapSlab_.get();
    }

    cursors_.reserve(live);
    for (const WeightedTerm &wt : terms) {
        const BlockMaxPostingList *list = index.blockMax(wt.term);
        if (list == nullptr || list->empty())
            continue;
        const double bound =
            wt.weight >= 0.0 ? list->maxScore() * wt.weight : 0.0;
        cursors_.push_back({BlockMaxCursor(*list, io, slab),
                            index.idf(wt.term) * wt.weight, bound,
                            std::max(wt.weight, 0.0)});
        slab += BlockMaxCursor::scratchSlots(*list);
    }
    if (begin > 0)
        for (TermCursor &tc : cursors_)
            tc.cursor.positionAt(begin);
}

} // namespace cottage
