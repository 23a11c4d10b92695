#include "index/exhaustive_evaluator.h"

#include <algorithm>

#include "index/block_max.h"

namespace cottage {

SearchResult
ExhaustiveEvaluator::search(const InvertedIndex &index,
                            const std::vector<WeightedTerm> &terms,
                            std::size_t k, uint64_t maxScoredDocs,
                            DocRange range) const
{
    SearchResult result;
    TopKHeap heap(k);
    // Nothing is skipped; the block decodes are not reported.
    BlockIo io;
    QueryCursors open(index, terms, range.begin, io);
    std::vector<TermCursor> &cursors = open.cursors();

    while (true) {
        // Next candidate: the smallest current doc across cursors
        // (exhausted ones stand on kExhaustedDoc, past any slice end).
        LocalDocId candidate = BlockMaxCursor::kExhaustedDoc;
        for (TermCursor &tc : cursors)
            candidate = std::min(candidate, tc.cursor.doc());
        if (candidate >= range.end)
            break;
        // Anytime cap: a scoreable candidate remains, so the heap is
        // the best-so-far of a strict prefix of the shard's candidates.
        if (result.work.docsScored >= maxScoredDocs) {
            result.work.truncated = true;
            break;
        }

        double score = 0.0;
        for (TermCursor &tc : cursors) {
            if (tc.cursor.doc() == candidate) {
                score += index.scorePosting(
                    tc.idf, Posting{candidate, tc.cursor.freq()});
                tc.cursor.advance();
                ++result.work.postingsScored;
            }
        }
        ++result.work.docsScored;
        if (heap.push({index.globalDoc(candidate), score}))
            ++result.work.heapInsertions;
    }

    result.topK = heap.extractSorted();
    return result;
}

} // namespace cottage
