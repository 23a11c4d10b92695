/**
 * @file
 * Cottage-withoutML ablation (paper §V-D): the coordinated budget
 * machinery of Cottage is kept intact, but the learned quality
 * predictor is replaced by Taily's Gamma-distribution estimate.
 * Isolates the value of the ML quality model: with the distribution
 * fit, shard cutoffs become imprecise and both quality and resource
 * usage degrade (Fig. 15).
 */

#ifndef COTTAGE_CORE_COTTAGE_WITHOUT_ML_POLICY_H
#define COTTAGE_CORE_COTTAGE_WITHOUT_ML_POLICY_H

#include <cmath>

#include "core/cottage_policy.h"
#include "policy/taily_estimator.h"
#include "policy/taily_policy.h"

namespace cottage {

/** Cottage with Gamma-estimated (non-ML) quality predictions. */
class CottageWithoutMlPolicy : public CottagePolicy
{
  public:
    /**
     * @param taily The same estimation parameters the Taily baseline
     *        runs with (the ablation swaps the predictor, not its
     *        tuning).
     */
    CottageWithoutMlPolicy(const PredictorBank &bank,
                           const ShardedIndex &index,
                           CottageConfig config = {},
                           TailyConfig taily = {})
        : CottagePolicy(bank, config), taily_(taily),
          estimator_(index, taily.unionSemantics)
    {
    }

    const char *name() const override { return "cottage-without-ml"; }

  protected:
    bool
    presetQuality(const DistributedEngine &,
                  const std::vector<WeightedTerm> &terms,
                  std::vector<IsnPrediction> &predictions) const override
    {
        // Same Gamma machinery and cutoff tuning as the Taily
        // baseline; the halved ranking depth supplies the top-K/2
        // signal Algorithm 1 needs.
        const std::vector<double> expectedK =
            estimator_.expectedTopContributions(terms,
                                                taily_.rankingDepth);
        const std::vector<double> expectedHalf =
            estimator_.expectedTopContributions(terms,
                                                taily_.rankingDepth / 2.0);
        const auto count = [this](double expected) {
            return expected >= taily_.docCutoff
                       ? static_cast<uint32_t>(std::ceil(expected))
                       : 0;
        };
        for (std::size_t s = 0; s < predictions.size(); ++s) {
            predictions[s].qualityK = count(expectedK[s]);
            predictions[s].qualityHalf = count(expectedHalf[s]);
        }
        return true;
    }

  private:
    TailyConfig taily_;
    TailyEstimator estimator_;
};

} // namespace cottage

#endif // COTTAGE_CORE_COTTAGE_WITHOUT_ML_POLICY_H
