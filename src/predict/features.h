/**
 * @file
 * Query-feature extraction for the two predictors, following the
 * paper's Tables I and II exactly. All features derive from per-term,
 * per-shard statistics computed at indexing time (TermStatsStore);
 * multi-term queries aggregate per-term values with the MAX operator,
 * the paper's choice (§III-C).
 */

#ifndef COTTAGE_PREDICT_FEATURES_H
#define COTTAGE_PREDICT_FEATURES_H

#include <cstddef>
#include <string>
#include <vector>

#include "index/evaluator.h"
#include "index/term_stats.h"
#include "text/types.h"

namespace cottage {

/** Number of quality-prediction features (Table I). */
constexpr std::size_t numQualityFeatures = 10;

/** Number of latency-prediction features (Table II). */
constexpr std::size_t numLatencyFeatures = 15;

/** Human-readable name of a Table I feature (for reports). */
const char *qualityFeatureName(std::size_t index);

/** Human-readable name of a Table II feature (for reports). */
const char *latencyFeatureName(std::size_t index);

/**
 * Table I feature vector of a query on one shard. Terms absent from
 * the shard contribute zeros (MAX-neutral).
 */
std::vector<double> qualityFeatures(const TermStatsStore &stats,
                                    const std::vector<TermId> &terms);

/**
 * Personalized variant (the paper's future-work extension): each
 * term's score-valued statistics scale with its user-profile weight
 * (variance with weight squared); count-valued features are weight
 * independent. With unit weights this equals the plain form.
 */
std::vector<double> qualityFeatures(const TermStatsStore &stats,
                                    const std::vector<WeightedTerm> &terms);

/** Allocation-free form: fills @p features (numQualityFeatures values). */
void qualityFeatures(const TermStatsStore &stats,
                     const std::vector<WeightedTerm> &terms,
                     double *features);

/**
 * Table II feature vector of a query on one shard. Query length is the
 * only non-MAX feature (it is a property of the query itself).
 */
std::vector<double> latencyFeatures(const TermStatsStore &stats,
                                    const std::vector<TermId> &terms);

/** Personalized variant; see the quality overload. */
std::vector<double> latencyFeatures(const TermStatsStore &stats,
                                    const std::vector<WeightedTerm> &terms);

/** Allocation-free form: fills @p features (numLatencyFeatures values). */
void latencyFeatures(const TermStatsStore &stats,
                     const std::vector<WeightedTerm> &terms,
                     double *features);

} // namespace cottage

#endif // COTTAGE_PREDICT_FEATURES_H
