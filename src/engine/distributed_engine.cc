#include "engine/distributed_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "engine/parallel_search.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cottage {

DistributedEngine::DistributedEngine(const ShardedIndex &index,
                                     ClusterSim &cluster,
                                     const Evaluator &evaluator,
                                     WorkModel work, bool anytimePartials)
    : index_(&index), cluster_(&cluster), evaluator_(&evaluator),
      work_(work), anytimePartials_(anytimePartials)
{
    COTTAGE_CHECK_MSG(index.numShards() == cluster.numIsns(),
                      "cluster size must match shard count");
}

void
DistributedEngine::setDefaultIsnCores(uint32_t cores)
{
    COTTAGE_CHECK_MSG(cores >= 1, "default ISN cores must be positive");
    defaultIsnCores_ = cores;
}

std::vector<WeightedTerm>
DistributedEngine::weightedTerms(const Query &query)
{
    std::vector<WeightedTerm> weighted;
    weighted.reserve(query.terms.size());
    for (std::size_t i = 0; i < query.terms.size(); ++i)
        weighted.push_back({query.terms[i], query.weight(i)});
    return weighted;
}

std::vector<SearchResult>
DistributedEngine::searchAllShards(
    const std::vector<WeightedTerm> &terms) const
{
    const ShardId numShards = index_->numShards();
    std::vector<SearchResult> results(numShards);
    ThreadPool::global().parallelFor(0, numShards, [&](std::size_t s) {
        results[s] = evaluator_->search(
            index_->shard(static_cast<ShardId>(s)), terms, index_->topK());
    });
    return results;
}

std::vector<ScoredDoc>
DistributedEngine::mergeShardResults(
    const std::vector<SearchResult> &results) const
{
    // Merge in ascending shard order. The (score, doc) total order
    // makes the merged set order-invariant anyway (tests assert it),
    // but a fixed order keeps the determinism argument trivial.
    TopKHeap merged(index_->topK());
    for (const SearchResult &result : results)
        for (const ScoredDoc &hit : result.topK)
            merged.push(hit);
    return merged.extractSorted();
}

std::vector<ScoredDoc>
DistributedEngine::globalTopK(const std::vector<TermId> &terms) const
{
    return mergeShardResults(searchAllShards(toWeighted(terms)));
}

std::vector<ScoredDoc>
DistributedEngine::globalTopK(const Query &query) const
{
    return mergeShardResults(searchAllShards(weightedTerms(query)));
}

std::vector<uint32_t>
DistributedEngine::shardContributions(
    const std::vector<ScoredDoc> &ranking) const
{
    std::vector<uint32_t> contributions(index_->numShards(), 0);
    for (const ScoredDoc &hit : ranking)
        ++contributions[index_->shardOf(hit.doc)];
    return contributions;
}

SearchWork
DistributedEngine::shardWork(ShardId shard,
                             const std::vector<TermId> &terms) const
{
    return evaluator_->search(index_->shard(shard), terms, index_->topK())
        .work;
}

SearchWork
DistributedEngine::shardWork(ShardId shard, const Query &query) const
{
    return evaluator_
        ->search(index_->shard(shard), weightedTerms(query),
                 index_->topK())
        .work;
}

std::vector<SearchWork>
DistributedEngine::shardWorkAll(const std::vector<TermId> &terms) const
{
    const std::vector<SearchResult> results =
        searchAllShards(toWeighted(terms));
    std::vector<SearchWork> work(results.size());
    for (std::size_t s = 0; s < results.size(); ++s)
        work[s] = results[s].work;
    return work;
}

std::vector<SearchWork>
DistributedEngine::shardWorkAll(const Query &query) const
{
    const std::vector<SearchResult> results =
        searchAllShards(weightedTerms(query));
    std::vector<SearchWork> work(results.size());
    for (std::size_t s = 0; s < results.size(); ++s)
        work[s] = results[s].work;
    return work;
}

double
DistributedEngine::dispatchSeconds(const Query &query,
                                   const QueryPlan &plan) const
{
    return query.arrivalSeconds + plan.decisionOverheadSeconds +
           0.5 * cluster_->network().rttSeconds;
}

double
DistributedEngine::rejectLatencySeconds(const QueryPlan &plan) const
{
    return plan.decisionOverheadSeconds + cluster_->network().rttSeconds;
}

QueryMeasurement
DistributedEngine::execute(const Query &query, const QueryPlan &plan,
                           const std::vector<ScoredDoc> &groundTruth)
{
    COTTAGE_CHECK_MSG(plan.isns.size() == index_->numShards(),
                      "plan size must match shard count");

    QueryMeasurement measurement(query);
    measurement.budgetSeconds = plan.budgetSeconds;

    const NetworkModel &network = cluster_->network();
    const double dispatch = dispatchSeconds(query, plan);
    const double deadline = plan.budgetSeconds == noBudget
                                ? noBudget
                                : dispatch + plan.budgetSeconds;

    const ShardId numShards = index_->numShards();
    const std::vector<WeightedTerm> terms = weightedTerms(query);

    // Cores pre-pass: resolve each ISN's intra-query width before any
    // parallel work so phases 1/2a/2b agree on it. Like the frequency
    // check below, a plan may leave the width to the engine (0), but
    // anything it does pick must fit the ISN's worker complement — an
    // oversubscribed gang would silently corrupt the service model.
    std::vector<uint32_t> coresOf(numShards, 1);
    for (ShardId s = 0; s < numShards; ++s) {
        const IsnDirective &directive = plan.isns[s];
        if (!directive.participate)
            continue;
        const uint32_t cores =
            directive.cores > 0 ? directive.cores : defaultIsnCores_;
        COTTAGE_CHECK_MSG(cores <= cluster_->isn(s).workers(),
                          "plan cores " << cores << " for ISN " << s
                                        << " exceed its "
                                        << cluster_->isn(s).workers()
                                        << " workers");
        coresOf[s] = cores;
    }

    // Phase 1 — the real retrieval, fanned out across the pool. The
    // evaluator is pure over the immutable index, so each shard's
    // result is independent of scheduling; non-participants stay
    // empty slots. Multi-core ISNs traverse through the parallel
    // driver, whose merged top-K and work counters are themselves
    // bit-identical at any host thread count (cores = 1 is exactly
    // the sequential call).
    std::vector<SearchResult> results(numShards);
    ThreadPool::global().parallelFor(0, numShards, [&](std::size_t s) {
        if (plan.isns[s].participate)
            results[s] = parallelShardSearch(
                *evaluator_, index_->shard(static_cast<ShardId>(s)),
                terms, index_->topK(), noDocCap, coresOf[s]);
    });

    // Phase 2a — the simulated cluster, advanced sequentially in
    // ascending shard order so the ISN queue/energy state is
    // bit-identical to the single-threaded replay. Deadline misses do
    // not drop the response: the simulator reports what fraction of
    // the service fit the budget, and the work model converts that
    // fraction into a deterministic anytime docs cap.
    double slowestResponse = 0.0; // relative to dispatch
    bool anyMissed = false;
    double fractionSum = 0.0;
    std::vector<uint64_t> partialCap(numShards, 0);
    std::vector<char> completed(numShards, 0);

    // Observability: recording happens entirely inside this sequential
    // shard-order loop (and the fixed-order merge below), so the span
    // stream and every metric sample are deterministic at any host
    // thread count. Both hooks only read values the simulation already
    // computed — with them detached, not one measured byte changes.
    QueryTraceRecord record;
    std::vector<int> spanOf;
    if (tracer_ != nullptr) {
        record.id = query.id;
        record.tenant = query.tenant;
        record.arrivalSeconds = query.arrivalSeconds;
        record.dispatchSeconds = dispatch;
        record.budgetSeconds =
            plan.budgetSeconds == noBudget ? -1.0 : plan.budgetSeconds;
        record.decisionOverheadSeconds = plan.decisionOverheadSeconds;
        record.rttSeconds = network.rttSeconds;
        record.mergeSeconds = network.mergeSeconds;
        spanOf.assign(numShards, -1);
    }

    for (ShardId s = 0; s < numShards; ++s) {
        const IsnDirective &directive = plan.isns[s];
        if (!directive.participate)
            continue;
        ++measurement.isnsUsed;

        IsnServerSim &server = cluster_->isn(s);
        const double backlog = metrics_ != nullptr
                                   ? server.backlogSeconds(dispatch)
                                   : 0.0;
        // A plan may leave the frequency to the ISN (0), but anything
        // it does pick must be a real P-state: a fabricated frequency
        // would silently corrupt the service-time and power models.
        COTTAGE_CHECK_MSG(
            directive.freqGhz == 0.0 ||
                cluster_->ladder().contains(directive.freqGhz),
            "plan frequency " << directive.freqGhz
                              << " GHz for ISN " << s
                              << " is not a ladder step");
        const double freq = directive.freqGhz > 0.0
                                ? directive.freqGhz
                                : server.currentFreqGhz();
        if (freq > cluster_->ladder().defaultGhz() + 1e-12)
            ++measurement.isnsBoosted;

        if (coresOf[s] > 1)
            ++measurement.isnsParallel;

        const SearchResult &result = results[s];
        const IsnExecution exec =
            server.execute(dispatch, work_.cycles(result.work), freq,
                           deadline, coresOf[s]);
        fractionSum += exec.completedFraction;

        if (tracer_ != nullptr) {
            IsnSpan span;
            span.isn = s;
            span.queueWaitSeconds = exec.startSeconds - dispatch;
            span.serviceStartSeconds = exec.startSeconds;
            span.serviceFinishSeconds = exec.finishSeconds;
            span.busySeconds = exec.busySeconds;
            span.cycles = work_.cycles(result.work);
            span.freqGhz = exec.freqGhz;
            span.cores = exec.cores;
            span.boosted =
                freq > cluster_->ladder().defaultGhz() + 1e-12;
            span.energyJoules = exec.energyJoules;
            span.completed = exec.completed;
            span.completedFraction = exec.completedFraction;
            spanOf[s] = static_cast<int>(record.isns.size());
            record.isns.push_back(span);
        }
        if (metrics_ != nullptr) {
            metrics_->histogram("backlog_at_dispatch_s", 1e-6, 1.0, 30)
                .add(backlog);
            metrics_->histogram("service_busy_s", 1e-5, 1.0, 30)
                .add(exec.busySeconds);
        }

        if (exec.completed) {
            completed[s] = 1;
            ++measurement.isnsCompleted;
            slowestResponse =
                std::max(slowestResponse, exec.finishSeconds - dispatch);
        } else {
            anyMissed = true;
            partialCap[s] = work_.docsCapForFraction(
                result.work, exec.completedFraction);
        }
    }

    // Phase 2b — truncated ISNs re-run their evaluator capped at the
    // docs the deadline allowed, recovering the exact best-so-far
    // top-K the anytime ISN would have responded with. The capped
    // evaluation is pure (a deterministic prefix replay of phase 1),
    // so it fans out over the pool without touching the contract.
    //
    // The prefix is always the CANONICAL (single-slice) traversal
    // order, even when the full run ganged cores: intra-ISN workers
    // share their top-K threshold through the shared heap, so a
    // truncated gang's best-so-far is the warm-threshold prefix of the
    // traversal — not `cores` independent cold-start slice prefixes,
    // each of which would re-pay the pruning warmup and waste the docs
    // budget on candidates a shared threshold had already ruled out.
    // This also makes the truncated response's bytes independent of
    // the planned gang width, by construction.
    std::vector<SearchResult> partials(numShards);
    if (anyMissed && anytimePartials_) {
        ThreadPool::global().parallelFor(0, numShards, [&](std::size_t s) {
            if (plan.isns[s].participate && !completed[s]) {
                partials[s] = parallelShardSearch(
                    *evaluator_, index_->shard(static_cast<ShardId>(s)),
                    terms, index_->topK(), partialCap[s], 1);
            }
        });
    }

    // Phase 2c — fixed-order merge and prorated work accounting.
    // Truncated ISNs contribute (and count) only their anytime prefix,
    // so C_RES reflects work actually performed before the cutoff
    // (energy already does, via the simulator's busy-interval meter).
    TopKHeap merged(index_->topK());
    for (ShardId s = 0; s < numShards; ++s) {
        if (!plan.isns[s].participate)
            continue;
        IsnSpan *span = tracer_ != nullptr && spanOf[s] >= 0
                            ? &record.isns[static_cast<std::size_t>(
                                  spanOf[s])]
                            : nullptr;
        if (completed[s]) {
            measurement.docsSearched += results[s].work.docsScored;
            measurement.docsSkipped += results[s].work.docsSkipped;
            measurement.blocksDecoded += results[s].work.blocksDecoded;
            measurement.blocksSkipped += results[s].work.blocksSkipped;
            if (span != nullptr) {
                span->docsScored = results[s].work.docsScored;
                span->docsSkipped = results[s].work.docsSkipped;
                span->blocksDecoded = results[s].work.blocksDecoded;
                span->blocksSkipped = results[s].work.blocksSkipped;
            }
            for (const ScoredDoc &hit : results[s].topK)
                merged.push(hit);
        } else if (anytimePartials_) {
            measurement.docsSearched += partials[s].work.docsScored;
            measurement.docsSkipped += partials[s].work.docsSkipped;
            measurement.blocksDecoded += partials[s].work.blocksDecoded;
            measurement.blocksSkipped += partials[s].work.blocksSkipped;
            if (!partials[s].topK.empty())
                ++measurement.partialResponses;
            if (span != nullptr) {
                span->docsScored = partials[s].work.docsScored;
                span->docsSkipped = partials[s].work.docsSkipped;
                span->blocksDecoded = partials[s].work.blocksDecoded;
                span->blocksSkipped = partials[s].work.blocksSkipped;
                span->partial = !partials[s].topK.empty();
            }
            for (const ScoredDoc &hit : partials[s].topK)
                merged.push(hit);
        } else {
            // Drop-whole-response mode keeps the prorated accounting:
            // the ISN still burned cycles until the cutoff even though
            // its response is discarded.
            measurement.docsSearched += partialCap[s];
            if (span != nullptr)
                span->docsScored = partialCap[s];
        }
    }
    measurement.completedFraction =
        measurement.isnsUsed > 0
            ? fractionSum / static_cast<double>(measurement.isnsUsed)
            : 1.0;

    // The aggregator returns when the last awaited response arrives,
    // or at the budget if any participant missed it.
    double waited = slowestResponse;
    if (anyMissed && plan.budgetSeconds != noBudget)
        waited = plan.budgetSeconds;

    measurement.latencySeconds = plan.decisionOverheadSeconds +
                                 network.rttSeconds + waited +
                                 network.mergeSeconds;
    measurement.results = merged.extractSorted();

    if (tracer_ != nullptr) {
        record.waitedSeconds = waited;
        record.latencySeconds = measurement.latencySeconds;
        tracer_->record(std::move(record));
    }
    if (metrics_ != nullptr) {
        metrics_->incr("queries");
        metrics_->incr("isns_dispatched", measurement.isnsUsed);
        metrics_->incr("isns_boosted", measurement.isnsBoosted);
        metrics_->incr("isns_parallel", measurement.isnsParallel);
        metrics_->incr("responses_truncated",
                       measurement.isnsUsed - measurement.isnsCompleted);
        metrics_->incr("partial_responses", measurement.partialResponses);
        metrics_->incr("docs_scored", measurement.docsSearched);
        metrics_->incr("docs_skipped", measurement.docsSkipped);
        metrics_->incr("blocks_decoded", measurement.blocksDecoded);
        metrics_->incr("blocks_skipped", measurement.blocksSkipped);
        metrics_->histogram("latency_s", 1e-4, 10.0, 40)
            .add(measurement.latencySeconds);
    }

    // P@K and binary NDCG@K against the exhaustive ground truth. Truth
    // membership is a hash-set probe: the result walk stays in rank
    // order, so the DCG summation order (and hence every bit of the
    // quality metrics) is identical to the former O(K^2) scan. The set
    // is only ever probed with count(), never iterated, which keeps it
    // clean under cottage_lint rule D1 (hash iteration order must not
    // reach measured output).
    if (!groundTruth.empty()) {
        std::unordered_set<DocId> truthDocs;
        truthDocs.reserve(groundTruth.size());
        for (const ScoredDoc &truth : groundTruth)
            truthDocs.insert(truth.doc);
        std::size_t overlap = 0;
        double dcg = 0.0;
        for (std::size_t rank = 0; rank < measurement.results.size();
             ++rank) {
            if (truthDocs.count(measurement.results[rank].doc) != 0) {
                ++overlap;
                dcg += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
            }
        }
        double idealDcg = 0.0;
        for (std::size_t rank = 0; rank < groundTruth.size(); ++rank)
            idealDcg += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
        measurement.precisionAtK = static_cast<double>(overlap) /
                                   static_cast<double>(groundTruth.size());
        measurement.ndcgAtK = dcg / idealDcg;
    } else {
        // A query matching nothing anywhere is trivially perfect.
        measurement.precisionAtK = 1.0;
        measurement.ndcgAtK = 1.0;
    }
    return measurement;
}

} // namespace cottage
