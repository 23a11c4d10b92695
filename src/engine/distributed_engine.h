/**
 * @file
 * The distributed search engine: a partition-aggregate execution loop
 * over the sharded index and the simulated cluster.
 *
 * Retrieval is real (the configured evaluator runs over real posting
 * lists and its merged top-K is bit-exact); time and energy come from
 * the cluster simulator driven by the evaluator's work counters. This
 * split lets every policy be compared on true quality while keeping
 * latency/power deterministic.
 */

#ifndef COTTAGE_ENGINE_DISTRIBUTED_ENGINE_H
#define COTTAGE_ENGINE_DISTRIBUTED_ENGINE_H

#include <memory>
#include <vector>

#include "engine/query_plan.h"
#include "index/evaluator.h"
#include "obs/metrics_registry.h"
#include "obs/query_tracer.h"
#include "shard/sharded_index.h"
#include "sim/cluster.h"
#include "sim/work_model.h"
#include "text/query.h"

namespace cottage {

/** Aggregator + ISNs over a sharded index and a simulated cluster. */
class DistributedEngine
{
  public:
    /**
     * @param index The sharded collection (borrowed; must outlive).
     * @param cluster The simulated cluster (borrowed; must outlive);
     *        its ISN count must match the index's shard count.
     * @param evaluator Retrieval strategy every ISN runs (borrowed).
     * @param work Cost model converting evaluator work to cycles.
     * @param anytimePartials Whether a deadline-missing ISN responds
     *        with its best-so-far partial top-K (the paper's anytime
     *        early-termination contract, default) or its whole
     *        response is dropped (the pre-anytime degradation model,
     *        kept for comparison experiments).
     */
    DistributedEngine(const ShardedIndex &index, ClusterSim &cluster,
                      const Evaluator &evaluator, WorkModel work = {},
                      bool anytimePartials = true);

    /**
     * Execute one query under a plan, advancing the cluster state.
     *
     * A participating ISN that misses the deadline is truncated by the
     * simulator; the engine converts its completed service fraction
     * into a docs cap (WorkModel::docsCapForFraction) and re-runs the
     * evaluator capped to recover the exact anytime partial top-K the
     * ISN would have returned. Work accounting (docsSearched) is
     * prorated to that prefix; energy is already prorated by the
     * simulator's busy-interval meter.
     *
     * @param query The query (its arrivalSeconds stamps the dispatch).
     * @param plan Participation, frequencies and budget. Any explicit
     *        per-ISN frequency must be a FrequencyLadder step.
     * @param groundTruth The exhaustive global top-K for this query
     *        (use globalTopK() / a cached copy) used to measure P@K.
     */
    QueryMeasurement execute(const Query &query, const QueryPlan &plan,
                             const std::vector<ScoredDoc> &groundTruth);

    /**
     * When a plan's requests leave the aggregator: arrival + decision
     * overhead + half a round trip. execute() dispatches at it.
     */
    double dispatchSeconds(const Query &query, const QueryPlan &plan) const;

    /** Latency of a query rejected after planning: decision + RTT. */
    double rejectLatencySeconds(const QueryPlan &plan) const;

    /** Toggle the anytime-partial-results contract (default on). */
    void setAnytimePartials(bool enabled) { anytimePartials_ = enabled; }
    bool anytimePartials() const { return anytimePartials_; }

    /**
     * Cores an ISN spans per request when the plan leaves the choice
     * to the engine (IsnDirective::cores == 0). Wired from
     * --isn-cores; 1 (the default) keeps the sequential traversal and
     * every measured byte of it. Values > 1 route phase 1 and the
     * anytime re-run through parallelShardSearch, whose merged top-K
     * and work counters are bit-identical at any host thread count.
     */
    void setDefaultIsnCores(uint32_t cores);
    uint32_t defaultIsnCores() const { return defaultIsnCores_; }

    /**
     * Attach a per-query tracer (nullptr detaches). While attached,
     * every execute() appends one QueryTraceRecord with per-ISN spans
     * in ascending shard order. Recording only reads values the
     * simulation already computed, during the sequential cluster
     * advance, so it is deterministic at any host thread count and
     * never perturbs a measured byte (tests/test_obs.cc,
     * tests/test_parallel.cc).
     */
    void setTracer(QueryTracer *tracer) { tracer_ = tracer; }
    QueryTracer *tracer() const { return tracer_; }

    /**
     * Attach a metrics registry (nullptr detaches). While attached,
     * execute() bumps the engine-side counters/histograms documented
     * in EXPERIMENTS.md ("Observability"): per-query latency, per-ISN
     * queue backlog at dispatch, service time, boost and truncation
     * counts. Same determinism contract as the tracer.
     */
    void setMetrics(MetricsRegistry *metrics) { metrics_ = metrics; }
    MetricsRegistry *metrics() const { return metrics_; }

    /**
     * The exhaustive global top-K for a set of terms: every shard's
     * full top-K merged. This is the paper's quality ground truth;
     * it performs no simulation and leaves cluster state untouched.
     * The per-shard evaluations fan out over ThreadPool::global();
     * the merge is order-invariant so the result is unaffected.
     */
    std::vector<ScoredDoc> globalTopK(const std::vector<TermId> &terms) const;

    /** Ground truth honouring a query's personalization weights. */
    std::vector<ScoredDoc> globalTopK(const Query &query) const;

    /**
     * Per-shard contribution counts to a given global ranking
     * (how many of its documents each ISN owns) — the quality labels
     * of §III-B and the Fig. 2(b) distribution.
     */
    std::vector<uint32_t>
    shardContributions(const std::vector<ScoredDoc> &ranking) const;

    /**
     * Predicted-work helper: run the evaluator for one shard without
     * touching the simulator, returning its work counters. Used by
     * training-set builders and oracle policies.
     */
    SearchWork shardWork(ShardId shard,
                         const std::vector<TermId> &terms) const;

    /** shardWork honouring a query's personalization weights. */
    SearchWork shardWork(ShardId shard, const Query &query) const;

    /**
     * shardWork for every shard at once, fanned out over the pool.
     * Batch path for oracle policies and training-set builders that
     * need the full per-shard work vector anyway.
     */
    std::vector<SearchWork>
    shardWorkAll(const std::vector<TermId> &terms) const;

    /** shardWorkAll honouring a query's personalization weights. */
    std::vector<SearchWork> shardWorkAll(const Query &query) const;

    /** A query's terms with their weights attached. */
    static std::vector<WeightedTerm> weightedTerms(const Query &query);

    const ShardedIndex &index() const { return *index_; }
    ClusterSim &cluster() { return *cluster_; }
    const ClusterSim &cluster() const { return *cluster_; }
    const WorkModel &workModel() const { return work_; }
    const Evaluator &evaluator() const { return *evaluator_; }
    std::size_t topK() const { return index_->topK(); }

  private:
    /** Every shard's evaluation of @p terms, fanned out over the pool. */
    std::vector<SearchResult>
    searchAllShards(const std::vector<WeightedTerm> &terms) const;

    /** Deterministic (ascending-shard) merge into the global top-K. */
    std::vector<ScoredDoc>
    mergeShardResults(const std::vector<SearchResult> &results) const;

    const ShardedIndex *index_;
    ClusterSim *cluster_;
    const Evaluator *evaluator_;
    WorkModel work_;
    bool anytimePartials_;
    uint32_t defaultIsnCores_ = 1;
    QueryTracer *tracer_ = nullptr;
    MetricsRegistry *metrics_ = nullptr;
};

} // namespace cottage

#endif // COTTAGE_ENGINE_DISTRIBUTED_ENGINE_H
