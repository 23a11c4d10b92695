#include "index/maxscore_evaluator.h"

#include <algorithm>
#include <numeric>

#include "index/block_max.h"

namespace cottage {

SearchResult
MaxScoreEvaluator::search(const InvertedIndex &index,
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

    // Ascending by score bound through a sorted index view (original
    // index breaks ties, so the walk order never depends on sort
    // implementation details). Cursors stay in original term order:
    // candidates that survive the bound checks have their
    // contributions re-summed in that order, which makes the scores
    // bit-identical to the exhaustive evaluator's — and, crucially,
    // independent of where the adaptive essential boundary sits, so a
    // DocRange slice of the traversal returns the same bytes as the
    // full walk (the parallel driver's determinism contract).
    std::vector<std::size_t> order(cursors.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (cursors[a].maxScore != cursors[b].maxScore)
                      return cursors[a].maxScore < cursors[b].maxScore;
                  return a < b;
              });
    std::vector<double> prefix(cursors.size() + 1, 0.0);
    for (std::size_t i = 0; i < order.size(); ++i)
        prefix[i + 1] = prefix[i] + cursors[order[i]].maxScore;

    // Non-essential prefix [0, essential): documents appearing only
    // there cannot beat the current threshold. Strict < keeps pruning
    // rank-safe under score ties (equal score can still win by DocId).
    std::size_t essential = 0;
    const auto updateEssential = [&]() {
        if (!heap.full())
            return;
        while (essential < order.size() &&
               prefix[essential + 1] < heap.threshold()) {
            ++essential;
        }
    };

    std::vector<double> contrib(cursors.size(), 0.0);
    std::vector<std::size_t> touched;
    touched.reserve(cursors.size());

    while (essential < order.size()) {
        // Candidate: smallest current doc among essential cursors. It
        // lies inside the slice, so below, a cursor standing on it is
        // inside the slice too (and not exhausted).
        LocalDocId candidate = BlockMaxCursor::kExhaustedDoc;
        for (std::size_t i = essential; i < order.size(); ++i)
            candidate = std::min(candidate, cursors[order[i]].cursor.doc());
        if (candidate >= range.end)
            break;
        // Anytime cap: stop before evaluating a fresh candidate.
        if (result.work.docsScored >= maxScoredDocs) {
            result.work.truncated = true;
            break;
        }

        // Score essential contributions. walkScore drives the pruning
        // decisions only; the offered score is re-summed below.
        touched.clear();
        double walkScore = 0.0;
        for (std::size_t i = essential; i < order.size(); ++i) {
            TermCursor &tc = cursors[order[i]];
            if (tc.cursor.doc() == candidate) {
                const double value = index.scorePosting(
                    tc.idf, Posting{candidate, tc.cursor.freq()});
                tc.cursor.advance();
                contrib[order[i]] = value;
                touched.push_back(order[i]);
                walkScore += value;
                ++result.work.postingsScored;
            }
        }
        ++result.work.docsScored;

        // Walk the non-essential lists strongest-first, bailing out as
        // soon as even a full remaining bound cannot reach the heap.
        bool complete = true;
        for (std::size_t i = essential; i-- > 0;) {
            if (heap.full() &&
                walkScore + prefix[i + 1] < heap.threshold()) {
                complete = false;
                break;
            }
            TermCursor &tc = cursors[order[i]];
            tc.cursor.seek(candidate);
            if (tc.cursor.doc() == candidate) {
                const double value = index.scorePosting(
                    tc.idf, Posting{candidate, tc.cursor.freq()});
                tc.cursor.advance();
                contrib[order[i]] = value;
                touched.push_back(order[i]);
                walkScore += value;
                ++result.work.postingsScored;
            }
        }

        // A broken walk proved the candidate cannot enter the heap;
        // only complete candidates are offered, scored in original
        // term order.
        if (complete) {
            std::sort(touched.begin(), touched.end(),
                      std::less<std::size_t>());
            double score = 0.0;
            for (std::size_t idx : touched)
                score += contrib[idx];
            if (heap.push({index.globalDoc(candidate), score})) {
                ++result.work.heapInsertions;
                updateEssential();
            }
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
