#include "predict/features.h"

#include <algorithm>

#include "util/logging.h"

namespace cottage {

namespace {

const char *const qualityNames[numQualityFeatures] = {
    "first-quartile-score", "arithmetic-average-score", "median-score",
    "geometric-average-score", "harmonic-average-score",
    "third-quartile-score", "kth-score", "max-score", "score-variance",
    "posting-list-length",
};

const char *const latencyNames[numLatencyFeatures] = {
    "posting-list-length", "documents-ever-in-top-k", "local-score-maxima",
    "local-score-maxima-above-mean", "number-of-max-score", "query-length",
    "documents-in-5pct-of-max-score", "documents-in-5pct-of-kth-score",
    "arithmetic-average-score", "geometric-average-score",
    "harmonic-average-score", "max-score", "estimated-max-score",
    "score-variance", "idf",
};

/** Fold one term's value into a MAX-aggregated slot. */
void
foldMax(double &slot, double value)
{
    slot = std::max(slot, value);
}

/**
 * Compress a count-valued feature. Posting lengths and the other
 * document-count features span four orders of magnitude; the MLPs
 * train far better on log-compressed counts (z-scoring alone cannot
 * linearize a Zipf tail). Scores are left untouched.
 */
double
logCount(double value)
{
    return std::log1p(value);
}

} // namespace

const char *
qualityFeatureName(std::size_t index)
{
    COTTAGE_CHECK(index < numQualityFeatures);
    return qualityNames[index];
}

const char *
latencyFeatureName(std::size_t index)
{
    COTTAGE_CHECK(index < numLatencyFeatures);
    return latencyNames[index];
}

void
qualityFeatures(const TermStatsStore &stats,
                const std::vector<WeightedTerm> &terms, double *features)
{
    std::fill(features, features + numQualityFeatures, 0.0);
    for (const WeightedTerm &wt : terms) {
        const TermStats *ts = stats.get(wt.term);
        if (ts == nullptr)
            continue;
        const double w = wt.weight;
        foldMax(features[0], w * ts->firstQuartile);
        foldMax(features[1], w * ts->meanScore);
        foldMax(features[2], w * ts->median);
        foldMax(features[3], w * ts->geoMeanScore);
        foldMax(features[4], w * ts->harmMeanScore);
        foldMax(features[5], w * ts->thirdQuartile);
        foldMax(features[6], w * ts->kthScore);
        foldMax(features[7], w * ts->maxScore);
        foldMax(features[8], w * w * ts->scoreVariance);
        foldMax(features[9], logCount(ts->postingLength));
    }
}

std::vector<double>
qualityFeatures(const TermStatsStore &stats,
                const std::vector<WeightedTerm> &terms)
{
    std::vector<double> features(numQualityFeatures);
    qualityFeatures(stats, terms, features.data());
    return features;
}

std::vector<double>
qualityFeatures(const TermStatsStore &stats, const std::vector<TermId> &terms)
{
    return qualityFeatures(stats, toWeighted(terms));
}

void
latencyFeatures(const TermStatsStore &stats,
                const std::vector<WeightedTerm> &terms, double *features)
{
    std::fill(features, features + numLatencyFeatures, 0.0);
    features[5] = static_cast<double>(terms.size()); // query length
    for (const WeightedTerm &wt : terms) {
        const TermStats *ts = stats.get(wt.term);
        if (ts == nullptr)
            continue;
        const double w = wt.weight;
        foldMax(features[0], logCount(ts->postingLength));
        foldMax(features[1], logCount(ts->docsEverInTopK));
        foldMax(features[2], logCount(ts->localMaxima));
        foldMax(features[3], logCount(ts->localMaximaAboveMean));
        foldMax(features[4], logCount(ts->numMaxScore));
        foldMax(features[6], logCount(ts->docsNearMax));
        foldMax(features[7], logCount(ts->docsNearKth));
        foldMax(features[8], w * ts->meanScore);
        foldMax(features[9], w * ts->geoMeanScore);
        foldMax(features[10], w * ts->harmMeanScore);
        foldMax(features[11], w * ts->maxScore);
        foldMax(features[12], w * ts->estimatedMaxScore);
        foldMax(features[13], w * w * ts->scoreVariance);
        foldMax(features[14], w * ts->idf);
    }
}

std::vector<double>
latencyFeatures(const TermStatsStore &stats,
                const std::vector<WeightedTerm> &terms)
{
    std::vector<double> features(numLatencyFeatures);
    latencyFeatures(stats, terms, features.data());
    return features;
}

std::vector<double>
latencyFeatures(const TermStatsStore &stats, const std::vector<TermId> &terms)
{
    return latencyFeatures(stats, toWeighted(terms));
}

} // namespace cottage
