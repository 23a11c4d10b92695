#include "index/bmw_evaluator.h"

#include <algorithm>
#include <limits>

#include "index/block_max.h"

namespace cottage {

SearchResult
BmwEvaluator::search(const InvertedIndex &index,
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

    constexpr LocalDocId endDoc = std::numeric_limits<LocalDocId>::max();
    const LocalDocId end = range.end;

    if (cursors.size() == 1) {
        // Single-term fast path: the pivot is always the one cursor, so
        // the per-round ordering and bound-accumulation machinery is
        // pure overhead. Same decisions as the generic loop (identical
        // threshold and block-bound tests, so identical docsScored and
        // an identical heap), but a rejected block is passed over by
        // metadata alone — no decode just to learn a doc id the next
        // round's (nonexistent) sort would have wanted.
        TermCursor &tc = cursors.front();
        // The threshold moves only when a push succeeds, so it is
        // cached across postings instead of re-read from the heap.
        double threshold = heap.threshold();
        while (!tc.cursor.exhausted()) {
            // Slice end: once the current block reaches `end`, one
            // boundary peek (possibly a decode) decides whether any
            // in-range posting remains. Full-range runs never take it.
            if (end != endDoc && tc.cursor.blockLastDoc() >= end &&
                tc.cursor.doc() >= end) {
                break;
            }
            if (tc.maxScore < threshold)
                break; // nothing remaining can enter the top-K
            if (tc.cursor.blockMaxScore() * tc.boundScale >= threshold) {
                if (result.work.docsScored >= maxScoredDocs) {
                    result.work.truncated = true;
                    break;
                }
                const LocalDocId doc = tc.cursor.doc();
                const double score = index.scorePosting(
                    tc.idf, Posting{doc, tc.cursor.freq()});
                tc.cursor.advance();
                ++result.work.postingsScored;
                ++result.work.docsScored;
                if (heap.push({index.globalDoc(doc), score})) {
                    ++result.work.heapInsertions;
                    threshold = heap.threshold();
                }
            } else {
                const uint64_t next =
                    static_cast<uint64_t>(tc.cursor.blockLastDoc()) + 1;
                tc.cursor.shallowSeek(static_cast<LocalDocId>(
                    std::min<uint64_t>(next, endDoc)));
            }
        }
        result.work.docsSkipped = io.docsSkipped;
        result.work.blocksDecoded = io.blocksDecoded;
        result.work.blocksSkipped = io.blocksSkipped;
        result.topK = heap.extractSorted();
        return result;
    }

    std::vector<TermCursor *> order;
    order.reserve(cursors.size());
    for (TermCursor &cursor : cursors)
        order.push_back(&cursor);
    while (true) {
        // Re-order by current doc with a stable insertion pass: the
        // array holds one pointer per query term, and most rounds move
        // only the cursors the previous round touched, so this beats a
        // remove_if sweep plus a std::sort call per round. Exhausted
        // cursors key to kExhaustedDoc and retire from the tail.
        for (std::size_t i = 1; i < order.size(); ++i) {
            TermCursor *moved = order[i];
            const LocalDocId key = moved->key(end);
            std::size_t j = i;
            while (j > 0 && order[j - 1]->key(end) > key) {
                order[j] = order[j - 1];
                --j;
            }
            order[j] = moved;
        }
        while (!order.empty() &&
               order.back()->key(end) == BlockMaxCursor::kExhaustedDoc) {
            order.pop_back();
        }
        if (order.empty())
            break;

        // Pivot on whole-list bounds, exactly like WAND (>= keeps score
        // ties evaluable; threshold() is -inf while the heap fills).
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

        // Cursors past the pivot sitting on the same doc contribute to
        // it too; fold them in so the shallow bound and the block-skip
        // target below account for every list containing pivotDoc.
        const LocalDocId pivotDoc = order[pivot]->cursor.doc();
        while (pivot + 1 < order.size() &&
               order[pivot + 1]->cursor.doc() == pivotDoc) {
            ++pivot;
        }

        if (order[0]->cursor.doc() == pivotDoc) {
            // All cursors up to the pivot sit on pivotDoc, so each
            // one's *current block* contains it: the sum of the block
            // maxima is a bound on pivotDoc's score that needs no
            // shallow seeks.
            double blockBound = 0.0;
            for (std::size_t i = 0; i <= pivot; ++i) {
                blockBound += order[i]->cursor.blockMaxScore() *
                              order[i]->boundScale;
            }
            if (blockBound >= threshold) {
                // Anytime cap: the next step scores a fresh candidate.
                // Checked only after the shallow test passes, so a
                // capped run stops at exactly the same docsScored
                // count an uncapped run would have accumulated.
                if (result.work.docsScored >= maxScoredDocs) {
                    result.work.truncated = true;
                    break;
                }
                double score = 0.0;
                for (TermCursor &tc : cursors) {
                    if (tc.cursor.doc() == pivotDoc) {
                        score += index.scorePosting(
                            tc.idf, Posting{pivotDoc, tc.cursor.freq()});
                        tc.cursor.advance();
                        ++result.work.postingsScored;
                    }
                }
                ++result.work.docsScored;
                if (heap.push({index.globalDoc(pivotDoc), score}))
                    ++result.work.heapInsertions;
            } else {
                // Shallow rejection: no doc covered only by the
                // current blocks of [0..pivot] can reach the heap.
                // Jump past the nearest block boundary (or to the next
                // cursor's doc, whichever is closer) — threshold is
                // finite here, so the heap is full and the skipped
                // range is provably out.
                uint64_t next = endDoc;
                for (std::size_t i = 0; i <= pivot; ++i) {
                    next = std::min<uint64_t>(
                        next,
                        static_cast<uint64_t>(
                            order[i]->cursor.blockLastDoc()) +
                            1);
                }
                if (pivot + 1 < order.size()) {
                    next = std::min<uint64_t>(
                        next, order[pivot + 1]->cursor.doc());
                }
                // Clamped at the slice end: postings beyond it belong
                // to other workers and are neither skipped nor charged.
                const auto target = static_cast<LocalDocId>(
                    std::min<uint64_t>(next, end));
                for (std::size_t i = 0; i <= pivot; ++i)
                    order[i]->cursor.seek(target);
            }
        } else {
            // Not aligned yet: advance the strongest cursor before the
            // pivot (same heuristic as WAND).
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

    result.work.docsSkipped = io.docsSkipped;
    result.work.blocksDecoded = io.blocksDecoded;
    result.work.blocksSkipped = io.blocksSkipped;
    result.topK = heap.extractSorted();
    return result;
}

} // namespace cottage
