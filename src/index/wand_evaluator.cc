#include "index/wand_evaluator.h"

#include <algorithm>

#include "index/block_max.h"

namespace cottage {

SearchResult
WandEvaluator::search(const InvertedIndex &index,
                      const std::vector<WeightedTerm> &terms,
                      std::size_t k, uint64_t maxScoredDocs,
                      DocRange range) const
{
    SearchResult result;
    TopKHeap heap(k);
    BlockIo io;
    QueryCursors open(index, terms, range.begin, io);
    std::vector<TermCursor> &cursors = open.cursors();
    if (cursors.empty() || k == 0) {
        result.topK = heap.extractSorted();
        return result;
    }

    // Live cursor pointers, kept sorted by current doc each round.
    std::vector<TermCursor *> order;
    order.reserve(cursors.size());
    for (TermCursor &cursor : cursors)
        order.push_back(&cursor);

    const LocalDocId end = range.end;
    while (true) {
        // Order by (current doc, construction order) with an insertion
        // pass: the array holds one pointer per query term, and a
        // round moves only the cursors the previous round touched.
        // Ties (several cursors parked on the same doc) break by
        // construction order — &cursors[i] ascends with i — so the
        // sequence, and with it the pivot doc's floating-point
        // summation order, is a pure function of the cursor state:
        // cursors on the pivot sit contiguously in original term
        // order. That keeps scores bit-identical across DocRange
        // slices. Cursors exhausted or past the slice end key to
        // kExhaustedDoc and retire from the tail; postings beyond
        // `end` belong to other workers and are never touched or
        // charged.
        for (std::size_t i = 1; i < order.size(); ++i) {
            TermCursor *moved = order[i];
            const LocalDocId key = moved->key(end);
            std::size_t j = i;
            for (; j > 0; --j) {
                const LocalDocId before = order[j - 1]->key(end);
                if (before < key || (before == key && order[j - 1] < moved))
                    break;
                order[j] = order[j - 1];
            }
            order[j] = moved;
        }
        while (!order.empty() &&
               order.back()->key(end) == BlockMaxCursor::kExhaustedDoc) {
            order.pop_back();
        }
        if (order.empty())
            break;

        // Pivot: first cursor where the cumulative bound could reach
        // the heap. >= keeps ties evaluable (rank-safe with DocId
        // tie-breaking). threshold() is -inf while the heap is filling,
        // so every candidate pivots — even all-negative scores (a -1.0
        // sentinel here used to prune legitimate demoted results).
        const double threshold = heap.threshold();
        double accumulated = 0.0;
        std::size_t pivot = order.size();
        for (std::size_t i = 0; i < order.size(); ++i) {
            accumulated += order[i]->maxScore;
            if (accumulated >= threshold) {
                pivot = i;
                break;
            }
        }
        if (pivot == order.size())
            break; // nothing remaining can enter the top-K

        const LocalDocId pivotDoc = order[pivot]->cursor.doc();
        if (order[0]->cursor.doc() == pivotDoc) {
            // Anytime cap: the next step would score a fresh candidate.
            if (result.work.docsScored >= maxScoredDocs) {
                result.work.truncated = true;
                break;
            }
            // All cursors up to the pivot sit on pivotDoc: score it.
            double score = 0.0;
            for (TermCursor *tc : order) {
                if (tc->cursor.doc() != pivotDoc)
                    continue;
                score += index.scorePosting(
                    tc->idf, Posting{pivotDoc, tc->cursor.freq()});
                tc->cursor.advance();
                ++result.work.postingsScored;
            }
            ++result.work.docsScored;
            if (heap.push({index.globalDoc(pivotDoc), score}))
                ++result.work.heapInsertions;
        } else {
            // Advance the strongest cursor before the pivot; fewer
            // future seeks than advancing the weakest.
            TermCursor *advance = order[0];
            for (std::size_t i = 1; i < pivot; ++i) {
                if (order[i]->cursor.doc() < pivotDoc &&
                    order[i]->maxScore > advance->maxScore) {
                    advance = order[i];
                }
            }
            advance->cursor.seek(pivotDoc);
        }
    }

    // The seeks' skips, one per posting passed over; block decodes and
    // skips stay bmw's pruning counters (DESIGN.md §5e).
    result.work.postingsSkipped = io.docsSkipped;
    result.work.docsSkipped = io.docsSkipped;
    result.topK = heap.extractSorted();
    return result;
}

} // namespace cottage
