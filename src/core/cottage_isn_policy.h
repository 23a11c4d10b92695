/**
 * @file
 * Cottage-ISN ablation (paper §V-D): the learned quality predictor
 * stays, but the aggregator-side coordination is removed. Each ISN
 * decides *independently* whether to serve the query (participate iff
 * its own predicted Q^K > 0); there is no global budget, no straggler
 * cut and no frequency boosting, because no component has the global
 * view needed to pick them. Isolates the value of coordination.
 */

#ifndef COTTAGE_CORE_COTTAGE_ISN_POLICY_H
#define COTTAGE_CORE_COTTAGE_ISN_POLICY_H

#include "policy/policy.h"
#include "predict/training.h"

namespace cottage {

/** Per-ISN local decisions; no aggregator optimization. */
class CottageIsnPolicy : public Policy
{
  public:
    /**
     * @param participationThreshold Same recall-biased non-zero
     *        probability rule the full Cottage uses (CottageConfig).
     */
    explicit CottageIsnPolicy(const PredictorBank &bank,
                              double participationThreshold = 0.15)
        : bank_(&bank), threshold_(participationThreshold)
    {
    }

    const char *name() const override { return "cottage-isn"; }

    QueryPlan
    plan(const Query &query, const DistributedEngine &engine) override
    {
        const ShardId numShards = engine.index().numShards();
        QueryPlan plan = QueryPlan::allIsns(numShards);
        // Local inference only: no extra coordination round trip.
        plan.decisionOverheadSeconds = bank_->inferenceOverheadSeconds();

        bool anySelected = false;
        const std::vector<WeightedTerm> terms =
            DistributedEngine::weightedTerms(query);
        MlpScratch scratch;
        for (ShardId s = 0; s < numShards; ++s) {
            double features[numQualityFeatures];
            qualityFeatures(engine.index().termStats(s), terms, features);
            const HeadEstimate topK =
                bank_->quality(s).estimateTopK(features, scratch);
            plan.isns[s].participate =
                topK.count > 0 || topK.probNonzero >= threshold_;
            anySelected |= plan.isns[s].participate;
        }
        if (!anySelected) {
            for (IsnDirective &directive : plan.isns)
                directive.participate = true;
        }
        return plan;
    }

  private:
    const PredictorBank *bank_;
    double threshold_;
};

} // namespace cottage

#endif // COTTAGE_CORE_COTTAGE_ISN_POLICY_H
