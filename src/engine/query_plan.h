/**
 * @file
 * The decision a selection/budget policy hands to the engine for one
 * query, and the measurement record the engine hands back. These two
 * structs are the contract between src/policy (and src/core) and the
 * execution engine.
 */

#ifndef COTTAGE_ENGINE_QUERY_PLAN_H
#define COTTAGE_ENGINE_QUERY_PLAN_H

#include <cstdint>
#include <limits>
#include <vector>

#include "index/top_k.h"
#include "text/query.h"
#include "text/types.h"

namespace cottage {

/** "No deadline" sentinel. */
constexpr double noBudget = std::numeric_limits<double>::infinity();

/** Per-ISN dispatch directive. */
struct IsnDirective
{
    /** Whether the ISN receives (and executes) the query at all. */
    bool participate = true;

    /**
     * Core frequency for this request, GHz. Zero means "the ISN's
     * current operating frequency" (no DVFS action).
     */
    double freqGhz = 0.0;

    /**
     * Worker cores this request spans at the ISN (intra-query
     * parallelism: the engine range-partitions the traversal across
     * this many slices and the simulator charges a gang of this many
     * cores). Zero means "the engine's default" (--isn-cores; 1 when
     * unset). A non-zero value is validated at dispatch against the
     * ISN's worker count, exactly like freqGhz against the ladder.
     */
    uint32_t cores = 0;
};

/** A policy's decision for one query. */
struct QueryPlan
{
    /** One directive per ISN (size must equal the shard count). */
    std::vector<IsnDirective> isns;

    /**
     * Relative time budget: the aggregator stops waiting this many
     * seconds after dispatch. noBudget disables the deadline.
     */
    double budgetSeconds = noBudget;

    /**
     * Aggregator-side decision latency added before dispatch
     * (prediction round-trip + optimizer for Cottage; ~0 for the
     * baselines).
     */
    double decisionOverheadSeconds = 0.0;

    /** Convenience: a plan where every ISN participates untouched. */
    static QueryPlan
    allIsns(std::size_t numIsns)
    {
        QueryPlan plan;
        plan.isns.assign(numIsns, IsnDirective{});
        return plan;
    }

    /** Number of participating ISNs. */
    uint32_t
    participants() const
    {
        uint32_t count = 0;
        for (const IsnDirective &directive : isns)
            count += directive.participate;
        return count;
    }
};

/** Everything measured while executing one query. */
struct QueryMeasurement
{
    QueryMeasurement() = default;

    /** @p query's record: id, arrival and tenant stamped, the rest zero. */
    explicit QueryMeasurement(const Query &query)
        : id(query.id), arrivalSeconds(query.arrivalSeconds),
          tenant(query.tenant)
    {
    }

    QueryId id = 0;
    double arrivalSeconds = 0.0;

    /** Owning tenant (copied from the query; 0 outside scenarios). */
    uint32_t tenant = 0;

    /** Client-observed latency (decision + network + wait + merge). */
    double latencySeconds = 0.0;

    /** The budget the plan imposed (noBudget if none). */
    double budgetSeconds = noBudget;

    /** ISNs the query was dispatched to. */
    uint32_t isnsUsed = 0;

    /** ISNs whose response made it back before the deadline. */
    uint32_t isnsCompleted = 0;

    /**
     * Deadline-missing ISNs that still contributed a non-empty anytime
     * partial top-K to the merge (the paper's early-termination
     * contract; isnsCompleted + partialResponses <= isnsUsed).
     */
    uint32_t partialResponses = 0;

    /** ISNs that ran above the default frequency. */
    uint32_t isnsBoosted = 0;

    /** ISNs that ran the query across more than one core. */
    uint32_t isnsParallel = 0;

    /**
     * Mean completed service fraction across used ISNs: 1.0 when every
     * response completed, the simulator's per-request fraction for
     * truncated ones (1.0 when no ISN participates).
     */
    double completedFraction = 1.0;

    /**
     * Documents scored across used ISNs (the paper's C_RES). Truncated
     * ISNs count only the documents their anytime prefix actually
     * evaluated, not the full evaluation they were cut off from.
     */
    uint64_t docsSearched = 0;

    /**
     * Candidate documents passed over by pruning seeks across used
     * ISNs without being scored (the visible half of what dynamic
     * pruning saved). Like docsSearched, truncated ISNs contribute
     * only their anytime prefix's skips.
     */
    uint64_t docsSkipped = 0;

    /** Posting blocks decoded across used ISNs (block-max evaluators). */
    uint64_t blocksDecoded = 0;

    /** Posting blocks skipped undecoded across used ISNs. */
    uint64_t blocksSkipped = 0;

    /** Overlap with the exhaustive global top-K, in [0, 1] (P@K). */
    double precisionAtK = 0.0;

    /**
     * Rank-aware quality: binary NDCG@K against the exhaustive global
     * top-K (a hit's gain is 1, discounted by log2(rank + 1),
     * normalized by the ideal ordering). Stricter than P@K: losing a
     * rank-1 document costs more than losing rank 10.
     */
    double ndcgAtK = 0.0;

    /** The merged ranking actually returned to the client. */
    std::vector<ScoredDoc> results;
};

} // namespace cottage

#endif // COTTAGE_ENGINE_QUERY_PLAN_H
