#include "core/cottage_policy.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace cottage {

namespace {

/**
 * This thread's inference buffers. A per-ISN task runs start to end on
 * one thread and starts no pool work of its own, so no two tasks ever
 * share a scratch.
 */
MlpScratch &
threadScratch()
{
    thread_local MlpScratch scratch;
    return scratch;
}

/**
 * Recall-biased floor: a head whose non-zero probability clears the
 * threshold counts as a contributor even when its argmax says 0 (see
 * CottageConfig).
 */
uint32_t
flooredCount(const HeadEstimate &head, double threshold)
{
    return head.count == 0 && head.probNonzero >= threshold ? 1
                                                            : head.count;
}

} // namespace

CottagePolicy::CottagePolicy(const PredictorBank &bank, CottageConfig config)
    : bank_(&bank), config_(config)
{
    COTTAGE_CHECK_MSG(config.budgetSlack >= 1.0,
                      "budget slack below 1 guarantees deadline misses");
}

bool
CottagePolicy::presetQuality(const DistributedEngine &,
                             const std::vector<WeightedTerm> &,
                             std::vector<IsnPrediction> &) const
{
    return false;
}

std::vector<IsnPrediction>
CottagePolicy::predictIsns(const Query &query,
                           const DistributedEngine &engine,
                           bool survivorsOnly) const
{
    const ShardId numShards = engine.index().numShards();
    const FrequencyLadder &ladder = engine.cluster().ladder();
    const std::vector<WeightedTerm> terms =
        DistributedEngine::weightedTerms(query);

    std::vector<IsnPrediction> predictions(numShards);
    const bool learned = !presetQuality(engine, terms, predictions);

    // Each ISN runs its own predictors (as in the paper's deployment):
    // one task per ISN, each writing only its own slot.
    ThreadPool::global().parallelFor(0, numShards, [&](std::size_t i) {
        const auto s = static_cast<ShardId>(i);
        IsnPrediction &prediction = predictions[s];
        prediction.isn = s;
        const TermStatsStore &stats = engine.index().termStats(s);
        if (learned) {
            double features[numQualityFeatures];
            qualityFeatures(stats, terms, features);
            const QualityEstimate estimate =
                bank_->quality(s).estimate(features, threadScratch());
            prediction.qualityK =
                flooredCount(estimate.topK, config_.participationThreshold);
            prediction.qualityHalf =
                flooredCount(estimate.topHalf, config_.halfThreshold);
        }
        if (survivorsOnly && prediction.qualityK == 0)
            return;

        double features[numLatencyFeatures];
        latencyFeatures(stats, terms, features);
        // Conservative (bucket-upper-edge) prediction: a missed
        // deadline drops the whole response, so under-prediction is
        // the expensive direction.
        const double predictedCycles =
            bank_->latency(s).predictCyclesConservative(features,
                                                        threadScratch());

        // Equivalent latency (Eq. 2): queue backlog ahead of this
        // request plus its own frequency-scaled service time. Queued
        // requests keep the frequencies they were dispatched with, so
        // the backlog term is fixed in seconds and only the service
        // term rescales (a refinement of Eq. 2, which assumes the
        // whole queue shares one frequency).
        const IsnServerSim &server = engine.cluster().isn(s);
        prediction.backlogSeconds =
            server.backlogSeconds(query.arrivalSeconds);
        prediction.serviceCycles = predictedCycles;
        prediction.latencyCurrent =
            prediction.backlogSeconds +
            predictedCycles / (server.currentFreqGhz() * 1e9);
        prediction.latencyBoosted =
            prediction.backlogSeconds +
            predictedCycles / (ladder.maxGhz() * 1e9);
    });
    return predictions;
}

std::vector<IsnPrediction>
CottagePolicy::predictions(const Query &query,
                           const DistributedEngine &engine) const
{
    return predictIsns(query, engine, false);
}

QueryPlan
CottagePolicy::plan(const Query &query, const DistributedEngine &engine)
{
    const ShardId numShards = engine.index().numShards();
    const FrequencyLadder &ladder = engine.cluster().ladder();

    QueryPlan plan;
    plan.isns.assign(numShards, IsnDirective{});
    // Step 2-5 coordination cost: predictor inference plus the extra
    // prediction round trip between aggregator and ISNs.
    plan.decisionOverheadSeconds = bank_->inferenceOverheadSeconds() +
                                   engine.cluster().network().rttSeconds;

    const std::vector<IsnPrediction> preds =
        predictIsns(query, engine, true);
    const BudgetDecision decision = determineTimeBudget(preds);

    if (decision.selected.empty()) {
        // Every ISN predicted zero contribution — a misprediction by
        // construction (some shard owns each top-K doc). Degenerate to
        // exhaustive search rather than answering with nothing.
        return QueryPlan::allIsns(numShards);
    }

    // The slack widens only the aggregator's wait deadline; frequency
    // selection still targets the raw Algorithm-1 budget, so the slack
    // acts as a safety margin against one-bucket under-predictions.
    plan.budgetSeconds = decision.budgetSeconds * config_.budgetSlack;

    // Nothing outside the selection participates.
    for (IsnDirective &directive : plan.isns)
        directive.participate = false;

    for (ShardId isn : decision.selected) {
        IsnDirective &directive = plan.isns[isn];
        directive.participate = true;

        // Step 6, extended: search the (cores x frequency) grid for
        // the minimum-energy operating point that meets the budget
        // under the power cap. At maxCoresPerQuery = 1 this is exactly
        // the paper's "slowest ladder frequency that still meets the
        // budget, boost when even that is required" loop.
        const IsnPrediction &prediction = preds[isn];
        const IsnServerSim &server = engine.cluster().isn(isn);
        const uint32_t maxCores =
            std::min(config_.maxCoresPerQuery, server.workers());
        // Backlog per candidate gang width: a c-core gang starts only
        // when the c-th earliest worker frees, so wider gangs see a
        // longer queue. Entry 0 equals the prediction's single-core
        // backlog by construction.
        std::vector<double> backlogByCores(maxCores);
        for (uint32_t c = 1; c <= maxCores; ++c)
            backlogByCores[c - 1] =
                server.backlogSeconds(query.arrivalSeconds, c);
        const CoreFreqChoice choice = chooseCoresAndFrequency(
            backlogByCores, prediction.serviceCycles,
            decision.budgetSeconds, ladder, server.speedupCurve(),
            engine.cluster().power(), maxCores, config_.isnPowerCapWatts,
            bank_->coreCycleFactors(), config_.dvfsPowerSaving);
        directive.freqGhz = choice.freqGhz;
        directive.cores = choice.cores;
    }
    return plan;
}

} // namespace cottage
