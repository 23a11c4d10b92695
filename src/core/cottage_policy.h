/**
 * @file
 * The full Cottage policy: the coordinated aggregator<->ISN protocol of
 * Fig. 5 driving Algorithm 1, plus frequency assignment (boosting slow
 * high-quality ISNs, slowing fast ones down to the budget for power).
 *
 * Per query:
 *   step 1-2  each ISN evaluates its quality (Q^K, Q^{K/2}) and cycle
 *             predictors on indexing-time term statistics;
 *   step 3    predictions return to the aggregator; latencies are
 *             "equivalent latencies" — queue backlog plus service time
 *             scaled by frequency (Eqs. 1-2);
 *   step 4    Algorithm 1 picks the budget T and the ISN cut;
 *   step 5-6  selected ISNs pick the lowest frequency that still meets
 *             T (boost = the ladder top when needed) and execute;
 *   step 7    the engine merges responses, dropping stragglers at T.
 */

#ifndef COTTAGE_CORE_COTTAGE_POLICY_H
#define COTTAGE_CORE_COTTAGE_POLICY_H

#include <cstdint>
#include <limits>
#include <vector>

#include "core/budget_algorithm.h"
#include "policy/policy.h"
#include "predict/training.h"

namespace cottage {

/** Cottage deployment knobs. */
struct CottageConfig
{
    /**
     * Multiplier applied to Algorithm 1's budget before dispatch,
     * absorbing cycle-bucket quantization error. 1.0 = paper-exact.
     */
    double budgetSlack = 1.5;

    /**
     * When true, ISNs whose equivalent latency fits the budget at a
     * lower-than-default frequency run there (the DVFS power saving of
     * step 6, after [30], [14]). When false, ISNs run at default or
     * boost, never below.
     */
    bool dvfsPowerSaving = true;

    /**
     * An ISN counts as a top-K contributor when its predicted
     * probability of a non-zero contribution exceeds this. Below 0.5
     * the rule is recall-biased: borderline contributors stay selected
     * (dropping a real contributor costs P@10 directly; keeping a
     * non-contributor only costs some work).
     */
    double participationThreshold = 0.15;

    /** Same threshold for the top-K/2 budget-pinning test. */
    double halfThreshold = 0.2;

    /**
     * Widest intra-query gang step 6 may assign per ISN (clamped to
     * each ISN's worker complement). 1 (the default) disables the
     * (cores x frequency) grid and reproduces the paper's
     * frequency-only assignment byte for byte.
     */
    uint32_t maxCoresPerQuery = 1;

    /**
     * Per-ISN active-power ceiling for the grid search, watts
     * (infinity = uncapped). Lets a deployment trade the widest gangs
     * away under a power budget without touching the deadline.
     */
    double isnPowerCapWatts = std::numeric_limits<double>::infinity();
};

/** Coordinated time-budget assignment (the paper's contribution). */
class CottagePolicy : public Policy
{
  public:
    /**
     * @param bank Trained per-ISN predictors (borrowed; must outlive).
     * @param config Deployment knobs.
     */
    CottagePolicy(const PredictorBank &bank, CottageConfig config = {});

    const char *name() const override { return "cottage"; }

    QueryPlan plan(const Query &query,
                   const DistributedEngine &engine) override;

    /**
     * The per-ISN predictions Cottage would report for a query — the
     * raw material of Fig. 9 — with latency filled for every ISN.
     * Exposed for benches and tests; plan() computes latency only for
     * the ISNs Algorithm 1 can select.
     */
    std::vector<IsnPrediction>
    predictions(const Query &query, const DistributedEngine &engine) const;

  protected:
    /**
     * Hook for a quality estimate that needs every shard at once, run
     * once per query before the per-ISN fan-out: fill qualityK and
     * qualityHalf of every entry of @p predictions (one per shard) and
     * return true. The default returns false, and each ISN's task runs
     * its learned predictor instead. The Cottage-withoutML ablation
     * swaps in Taily's Gamma estimate here while keeping everything
     * else identical.
     */
    virtual bool
    presetQuality(const DistributedEngine &engine,
                  const std::vector<WeightedTerm> &terms,
                  std::vector<IsnPrediction> &predictions) const;

    const PredictorBank &bank() const { return *bank_; }
    const CottageConfig &cottageConfig() const { return config_; }

  private:
    /**
     * One pool fan-out over the ISNs. Each task computes its ISN's
     * quality, then its equivalent latency, or, with @p survivorsOnly,
     * the latency only when Q^K > 0: Algorithm 1 drops the rest at
     * stage 1 without reading their latency, so their latency fields
     * stay zero.
     */
    std::vector<IsnPrediction> predictIsns(const Query &query,
                                           const DistributedEngine &engine,
                                           bool survivorsOnly) const;

    const PredictorBank *bank_;
    CottageConfig config_;
};

} // namespace cottage

#endif // COTTAGE_CORE_COTTAGE_POLICY_H
