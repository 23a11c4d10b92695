#include "index/term_stats.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "index/top_k.h"
#include "stats/summary.h"
#include "util/logging.h"

namespace cottage {

TermStatsStore::TermStatsStore(const InvertedIndex &index, std::size_t k)
    : index_(&index), k_(k)
{
    COTTAGE_CHECK_MSG(k >= 1, "term stats need k >= 1");
    stats_.reserve(index.numTerms());

    std::vector<Posting> postings; // decoded list, reused across terms
    std::vector<double> scores;    // DocId-ordered, reused across terms
    std::vector<double> sorted;
    for (const BlockMaxPostingList &list : index.blockLists()) {
        const double termIdf = index.idf(list.term());
        list.decode(postings);

        scores.clear();
        scores.reserve(postings.size());
        TopKHeap heap(k);
        uint64_t insertions = 0;
        for (const Posting &posting : postings) {
            const double s = index.scorePosting(termIdf, posting);
            scores.push_back(s);
            if (heap.push({index.globalDoc(posting.doc), s}))
                ++insertions;
        }

        TermStats &ts = stats_.emplace_back();
        ts.postingLength = static_cast<double>(scores.size());
        ts.idf = termIdf;
        ts.estimatedMaxScore = index.scorer().staticUpperBound(termIdf);
        ts.docsEverInTopK = static_cast<double>(insertions);

        sorted = scores;
        std::sort(sorted.begin(), sorted.end(), std::less<double>());
        ts.firstQuartile = percentileSorted(sorted, 0.25);
        ts.median = percentileSorted(sorted, 0.5);
        ts.thirdQuartile = percentileSorted(sorted, 0.75);
        ts.meanScore = mean(scores);
        ts.geoMeanScore = geometricMean(scores);
        ts.harmMeanScore = harmonicMean(scores);
        ts.scoreVariance = variance(scores);
        ts.maxScore = sorted.back();
        ts.kthScore = sorted[sorted.size() - std::min(k, sorted.size())];

        // Pruning-behaviour features over the DocId-ordered sequence.
        std::size_t maxima = 0;
        std::size_t maximaAboveMean = 0;
        for (std::size_t i = 0; i < scores.size(); ++i) {
            const bool leftOk = i == 0 || scores[i] > scores[i - 1];
            const bool rightOk =
                i + 1 == scores.size() || scores[i] > scores[i + 1];
            if (scores.size() > 1 && leftOk && rightOk) {
                ++maxima;
                if (scores[i] > ts.meanScore)
                    ++maximaAboveMean;
            }
        }
        ts.localMaxima = static_cast<double>(maxima);
        ts.localMaximaAboveMean = static_cast<double>(maximaAboveMean);

        std::size_t atMax = 0;
        std::size_t nearMax = 0;
        std::size_t nearKth = 0;
        for (double s : scores) {
            if (s == ts.maxScore)
                ++atMax;
            if (s >= 0.95 * ts.maxScore)
                ++nearMax;
            if (s >= 0.95 * ts.kthScore)
                ++nearKth;
        }
        ts.numMaxScore = static_cast<double>(atMax);
        ts.docsNearMax = static_cast<double>(nearMax);
        ts.docsNearKth = static_cast<double>(nearKth);
    }
}

} // namespace cottage
