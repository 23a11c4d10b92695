/**
 * @file
 * Serving front-end suite: LRU cache mechanics, Poisson re-timing,
 * the admission shed/degrade ladder, and the serving loop's contracts
 * — determinism across host thread counts, byte-identity of the
 * replay path with serving off, cache-hit identity with the uncached
 * ranking, shed engagement under overload, and cache hit rates
 * flowing into MetricsRegistry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "serve/admission.h"
#include "serve/arrivals.h"
#include "serve/lru_cache.h"
#include "serve/result_cache.h"
#include "serve/serving.h"
#include "util/thread_pool.h"

namespace cottage {
namespace {

// ---------------------------------------------------------------- LRU

TEST(LruCache, ZeroCapacityIsDisabledAndCountsNothing)
{
    LruCache<int, int> cache(0);
    EXPECT_FALSE(cache.enabled());
    EXPECT_EQ(cache.find(1), nullptr);
    cache.insert(1, 10);
    EXPECT_EQ(cache.find(1), nullptr);
    // A disabled cache must not accumulate phantom misses: its hit
    // rate reads 0 because nothing was ever counted.
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.0);
}

TEST(LruCache, CountsHitsMissesAndEvictsLeastRecent)
{
    LruCache<int, int> cache(2);
    cache.insert(1, 10);
    cache.insert(2, 20);

    const int *one = cache.find(1); // hit, promotes 1 over 2
    ASSERT_NE(one, nullptr);
    EXPECT_EQ(*one, 10);

    cache.insert(3, 30); // evicts 2 (least recent), not 1
    EXPECT_EQ(cache.find(2), nullptr);
    ASSERT_NE(cache.find(1), nullptr);
    ASSERT_NE(cache.find(3), nullptr);

    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.75);
}

TEST(LruCache, OverwritePromotesWithoutEvicting)
{
    LruCache<int, int> cache(2);
    cache.insert(1, 10);
    cache.insert(2, 20);
    cache.insert(1, 11); // overwrite: promotes 1, size stays 2
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);

    cache.insert(3, 30); // now 2 is the least recent
    EXPECT_EQ(cache.find(2), nullptr);
    const int *one = cache.find(1);
    ASSERT_NE(one, nullptr);
    EXPECT_EQ(*one, 11);
}

TEST(LruCache, PeekNeverCountsOrPromotes)
{
    LruCache<int, int> cache(2);
    cache.insert(1, 10);
    cache.insert(2, 20);
    ASSERT_NE(cache.peek(1), nullptr); // no promotion...
    EXPECT_EQ(cache.peek(9), nullptr); // ...and no miss counted
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    cache.insert(3, 30); // 1 is still least recent despite the peek
    EXPECT_EQ(cache.peek(1), nullptr);
    EXPECT_NE(cache.peek(2), nullptr);
}

TEST(LruCache, CapacityOneEvictsOnEveryNewKey)
{
    LruCache<int, int> cache(1);
    EXPECT_TRUE(cache.enabled());
    cache.insert(1, 10);
    ASSERT_NE(cache.find(1), nullptr);

    cache.insert(2, 20); // evicts 1, the only resident
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.find(1), nullptr);
    const int *two = cache.find(2);
    ASSERT_NE(two, nullptr);
    EXPECT_EQ(*two, 20);

    // Overwriting the sole resident is not an eviction.
    cache.insert(2, 21);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(*cache.find(2), 21);
}

TEST(LruCache, OverwriteAtCapacityKeepsEvictionOrder)
{
    LruCache<int, int> cache(3);
    cache.insert(1, 10);
    cache.insert(2, 20);
    cache.insert(3, 30);

    // Overwrite the oldest key at full capacity: size must not grow,
    // nothing is evicted, and the overwrite promotes 1 to most recent
    // so the next eviction takes 2, then 3, then 1.
    cache.insert(1, 11);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 0u);

    cache.insert(4, 40);
    EXPECT_EQ(cache.peek(2), nullptr);
    cache.insert(5, 50);
    EXPECT_EQ(cache.peek(3), nullptr);
    cache.insert(6, 60);
    EXPECT_EQ(cache.peek(1), nullptr);
    EXPECT_NE(cache.peek(4), nullptr);
    EXPECT_EQ(cache.evictions(), 3u);
}

TEST(LruCache, ClearKeepsCountersResetDropsThem)
{
    LruCache<int, int> cache(2);
    cache.insert(1, 10);
    (void)cache.find(1);
    (void)cache.find(2);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

// ------------------------------------------------------- result keys

TEST(ResultCacheKey, DistinguishesTermBoundariesAndWeights)
{
    Query a;
    a.terms = {12, 3};
    Query b;
    b.terms = {1, 23};
    EXPECT_NE(resultCacheKey(a), resultCacheKey(b));

    Query plain;
    plain.terms = {5, 7};
    Query weighted = plain;
    weighted.weights = {1.0, 1.0};
    // Uniform explicit weights still differ from the unweighted form:
    // the engine treats personalization as a distinct retrieval mode.
    EXPECT_NE(resultCacheKey(plain), resultCacheKey(weighted));

    Query reweighted = weighted;
    reweighted.weights = {1.0, 1.5};
    EXPECT_NE(resultCacheKey(weighted), resultCacheKey(reweighted));
    EXPECT_EQ(resultCacheKey(plain), resultCacheKey(plain));
}

// --------------------------------------------------------- re-timing

TEST(RetimeTrace, KeepsContentReplacesArrivals)
{
    TraceConfig tc;
    tc.numQueries = 200;
    tc.vocabSize = 5000;
    tc.arrivalQps = 50.0;
    tc.seed = 11;
    const QueryTrace base = QueryTrace::generate(tc);

    const QueryTrace retimed = retimeTrace(base, 500.0, 99);
    ASSERT_EQ(retimed.size(), base.size());
    EXPECT_EQ(retimed.name(), base.name());
    double previous = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const Query &was = base.query(i);
        const Query &now = retimed.query(i);
        EXPECT_EQ(now.id, was.id);
        EXPECT_EQ(now.terms, was.terms);
        EXPECT_EQ(now.weights, was.weights);
        EXPECT_GT(now.arrivalSeconds, previous);
        previous = now.arrivalSeconds;
    }
    // 10x the rate compresses the span roughly 10x.
    EXPECT_LT(retimed.durationSeconds(), base.durationSeconds());
}

TEST(RetimeTrace, SeededAndRateFaithful)
{
    TraceConfig tc;
    tc.numQueries = 2000;
    tc.vocabSize = 5000;
    tc.seed = 11;
    const QueryTrace base = QueryTrace::generate(tc);

    const QueryTrace a = retimeTrace(base, 400.0, 7);
    const QueryTrace b = retimeTrace(base, 400.0, 7);
    const QueryTrace c = retimeTrace(base, 400.0, 8);
    for (std::size_t i = 0; i < base.size(); ++i)
        ASSERT_EQ(a.query(i).arrivalSeconds, b.query(i).arrivalSeconds);
    EXPECT_NE(a.query(0).arrivalSeconds, c.query(0).arrivalSeconds);

    // Mean inter-arrival gap over 2000 draws sits near 1/400 s.
    const double meanGap =
        a.durationSeconds() / static_cast<double>(a.size());
    EXPECT_NEAR(meanGap, 1.0 / 400.0, 0.15 / 400.0);
}

// --------------------------------------------------------- admission

class AdmissionTest : public ::testing::Test
{
  protected:
    AdmissionTest() : cluster_(2, FrequencyLadder(), PowerModel()) {}

    /** Occupy an ISN's core for @p seconds starting at time 0. */
    void
    occupy(ShardId id, double seconds)
    {
        const double freq = cluster_.ladder().defaultGhz();
        const double cycles = seconds * freq * 1e9;
        cluster_.isn(id).execute(0.0, cycles, freq,
                                 std::numeric_limits<double>::infinity());
    }

    ClusterSim cluster_;
    AdmissionConfig config_;
};

TEST_F(AdmissionTest, IdleClusterPassesPlansThrough)
{
    QueryPlan plan = QueryPlan::allIsns(2);
    const AdmissionDecision decision =
        applyAdmission(plan, cluster_, 0.0, config_);
    EXPECT_FALSE(decision.shedQuery);
    EXPECT_FALSE(decision.degraded);
    EXPECT_EQ(decision.isnsShed, 0u);
    EXPECT_EQ(plan.participants(), 2u);
    EXPECT_EQ(plan.budgetSeconds, noBudget);
}

TEST_F(AdmissionTest, ShedsIsnsPastTheBacklogLineThenTheQuery)
{
    occupy(0, config_.shedBacklogSeconds * 2.0);
    QueryPlan plan = QueryPlan::allIsns(2);
    const AdmissionDecision decision =
        applyAdmission(plan, cluster_, 0.0, config_);
    EXPECT_FALSE(decision.shedQuery);
    EXPECT_EQ(decision.isnsShed, 1u);
    EXPECT_FALSE(plan.isns[0].participate);
    EXPECT_TRUE(plan.isns[1].participate);

    occupy(1, config_.shedBacklogSeconds * 2.0);
    QueryPlan doomed = QueryPlan::allIsns(2);
    const AdmissionDecision rejected =
        applyAdmission(doomed, cluster_, 0.0, config_);
    EXPECT_TRUE(rejected.shedQuery);
    EXPECT_EQ(rejected.isnsShed, 2u);
}

TEST_F(AdmissionTest, DegradationTightensBudgetsWithBacklogDepth)
{
    // An overload budget that outlives any in-band backlog, so the
    // zero-progress cut stays out of this test's way (the default
    // 50 ms budget would shed a 150 ms-backlogged ISN outright —
    // ZeroProgressCutShedsIsnsThatCannotStart covers that rung).
    config_.overloadBudgetSeconds = 1.0;
    // Halfway into the degrade band on both ISNs.
    const double mid = (config_.degradeBacklogSeconds +
                        config_.shedBacklogSeconds) /
                       2.0;
    occupy(0, mid);
    occupy(1, mid);

    QueryPlan open = QueryPlan::allIsns(2); // no deadline
    const AdmissionDecision decision =
        applyAdmission(open, cluster_, 0.0, config_);
    EXPECT_TRUE(decision.degraded);
    EXPECT_FALSE(decision.shedQuery);
    // The imposed budget starts from overloadBudgetSeconds and sits
    // strictly inside (floor * base, base) mid-band.
    EXPECT_LT(open.budgetSeconds, config_.overloadBudgetSeconds);
    EXPECT_GT(open.budgetSeconds,
              config_.degradeFloor * config_.overloadBudgetSeconds);

    // Deeper backlog tightens further (monotone ladder).
    ClusterSim deeper(2, FrequencyLadder(), PowerModel());
    const double deep = config_.shedBacklogSeconds * 0.95;
    const double freq = deeper.ladder().defaultGhz();
    deeper.isn(0).execute(0.0, deep * freq * 1e9, freq,
                          std::numeric_limits<double>::infinity());
    deeper.isn(1).execute(0.0, deep * freq * 1e9, freq,
                          std::numeric_limits<double>::infinity());
    QueryPlan deepPlan = QueryPlan::allIsns(2);
    const AdmissionDecision deepDecision =
        applyAdmission(deepPlan, deeper, 0.0, config_);
    EXPECT_TRUE(deepDecision.degraded);
    EXPECT_LT(deepPlan.budgetSeconds, open.budgetSeconds);
}

TEST_F(AdmissionTest, ZeroProgressCutShedsIsnsThatCannotStart)
{
    // Backlog below the absolute shed line but beyond the plan's own
    // budget: dispatching would produce a zero-progress truncation,
    // so admission sheds the ISN instead.
    const double backlog = config_.degradeBacklogSeconds / 2.0;
    occupy(0, backlog);
    QueryPlan plan = QueryPlan::allIsns(2);
    plan.budgetSeconds = backlog / 2.0;
    const AdmissionDecision decision =
        applyAdmission(plan, cluster_, 0.0, config_);
    EXPECT_FALSE(decision.degraded);
    EXPECT_EQ(decision.isnsShed, 1u);
    EXPECT_FALSE(plan.isns[0].participate);
    EXPECT_TRUE(plan.isns[1].participate);
}

// Regression: --shed-backlog-ms == --degrade-backlog-ms is a legal CLI
// combination. The degrade band collapses to nothing — budgets jump
// straight to the floor at the threshold — and must not abort.
TEST_F(AdmissionTest, EqualThresholdsCollapseTheDegradeBand)
{
    config_.degradeBacklogSeconds = config_.shedBacklogSeconds;

    // Below the collapsed line: healthy, untouched.
    occupy(0, config_.shedBacklogSeconds / 2.0);
    QueryPlan healthy = QueryPlan::allIsns(2);
    const AdmissionDecision pass =
        applyAdmission(healthy, cluster_, 0.0, config_);
    EXPECT_FALSE(pass.shedQuery);
    EXPECT_FALSE(pass.degraded);
    EXPECT_EQ(pass.isnsShed, 0u);
    EXPECT_EQ(healthy.budgetSeconds, noBudget);

    // Past the line: shed outright, no degrade rung in between.
    occupy(0, config_.shedBacklogSeconds);
    QueryPlan loaded = QueryPlan::allIsns(2);
    const AdmissionDecision shed =
        applyAdmission(loaded, cluster_, 0.0, config_);
    EXPECT_EQ(shed.isnsShed, 1u);
    EXPECT_FALSE(loaded.isns[0].participate);
    EXPECT_TRUE(loaded.isns[1].participate);
    EXPECT_FALSE(shed.degraded);
}

// Regression: the degrade depth must be recomputed over the post-cut
// participant set. ISN 0's backlog lands deep in the degrade band but
// also beyond the plan's budget, so the zero-progress cut sheds it —
// the surviving ISN 1 is nearly idle and its budget must NOT stay
// tightened by the backlog of an ISN that is no longer dispatched to.
TEST_F(AdmissionTest, DegradeDepthRecomputedOverPostCutParticipants)
{
    const double deep = config_.shedBacklogSeconds * 0.8; // in band
    const double idle = config_.degradeBacklogSeconds / 5.0;
    occupy(0, deep);
    occupy(1, idle);

    QueryPlan plan = QueryPlan::allIsns(2);
    plan.budgetSeconds = deep / 2.0; // cut sheds ISN 0
    const double original = plan.budgetSeconds;
    const AdmissionDecision decision =
        applyAdmission(plan, cluster_, 0.0, config_);

    EXPECT_FALSE(decision.shedQuery);
    EXPECT_EQ(decision.isnsShed, 1u);
    EXPECT_FALSE(plan.isns[0].participate);
    EXPECT_TRUE(plan.isns[1].participate);
    // The survivor sits below the degrade threshold: not degraded,
    // budget untouched, and the reported worst backlog is its own.
    EXPECT_FALSE(decision.degraded);
    EXPECT_EQ(plan.budgetSeconds, original);
    EXPECT_DOUBLE_EQ(decision.worstBacklogSeconds, idle);
}

// Regression: overloadBudgetSeconds is only consulted when a
// no-deadline plan enters the degrade band, so it must only be
// validated on that path. A scenario config that omits it (0) is fine
// as long as every plan carries its own budget.
TEST_F(AdmissionTest, OverloadBudgetOnlyValidatedWhenConsulted)
{
    config_.overloadBudgetSeconds = 0.0;

    // Finite-budget plan on a loaded cluster: never consults the
    // overload budget, must not abort.
    const double mid = (config_.degradeBacklogSeconds +
                        config_.shedBacklogSeconds) /
                       2.0;
    occupy(0, mid);
    QueryPlan plan = QueryPlan::allIsns(2);
    plan.budgetSeconds = 1.0;
    const AdmissionDecision decision =
        applyAdmission(plan, cluster_, 0.0, config_);
    EXPECT_TRUE(decision.degraded);
    EXPECT_LT(plan.budgetSeconds, 1.0);

    // A no-deadline plan degrading with no overload budget to impose
    // is a genuine config error on the path that reads the knob.
    QueryPlan open = QueryPlan::allIsns(2);
    EXPECT_DEATH((void)applyAdmission(open, cluster_, 0.0, config_),
                 "overload budget");
}

TEST_F(AdmissionTest, RejectsGenuinelyInvalidConfigs)
{
    AdmissionConfig inverted;
    inverted.shedBacklogSeconds = inverted.degradeBacklogSeconds / 2.0;
    QueryPlan plan = QueryPlan::allIsns(2);
    EXPECT_DEATH((void)applyAdmission(plan, cluster_, 0.0, inverted),
                 "shed threshold");

    AdmissionConfig zeroFloor;
    zeroFloor.degradeFloor = 0.0;
    EXPECT_DEATH((void)applyAdmission(plan, cluster_, 0.0, zeroFloor),
                 "degrade floor");

    AdmissionConfig bigFloor;
    bigFloor.degradeFloor = 1.5;
    EXPECT_DEATH((void)applyAdmission(plan, cluster_, 0.0, bigFloor),
                 "degrade floor");
}

// Boundary equality: the shed line is strict (> sheds), the
// zero-progress cut is inclusive (>= sheds) — a queue that drains
// exactly at the deadline leaves zero seconds to run.
TEST_F(AdmissionTest, BoundaryEqualityAtShedLineAndAtBudget)
{
    // Backlog exactly equal to the shed threshold survives the shed
    // rung and lands exactly on the floor fraction of the imposed
    // budget. The overload budget is chosen large enough that the
    // floored budget still exceeds the backlog, keeping the
    // zero-progress cut out of this half of the test.
    config_.overloadBudgetSeconds = 2.0;
    occupy(0, config_.shedBacklogSeconds);
    QueryPlan plan = QueryPlan::allIsns(2);
    const AdmissionDecision decision =
        applyAdmission(plan, cluster_, 0.0, config_);
    EXPECT_EQ(decision.isnsShed, 0u);
    EXPECT_TRUE(plan.isns[0].participate);
    EXPECT_TRUE(decision.degraded);
    EXPECT_DOUBLE_EQ(plan.budgetSeconds,
                     config_.degradeFloor * config_.overloadBudgetSeconds);

    // Backlog exactly equal to the budget is cut: equality means the
    // ISN could start only at the deadline itself.
    ClusterSim exact(2, FrequencyLadder(), PowerModel());
    const double freq = exact.ladder().defaultGhz();
    const double budget = config_.degradeBacklogSeconds / 2.0;
    exact.isn(0).execute(0.0, budget * freq * 1e9, freq,
                         std::numeric_limits<double>::infinity());
    ASSERT_DOUBLE_EQ(exact.isn(0).backlogSeconds(0.0), budget);
    QueryPlan capped = QueryPlan::allIsns(2);
    capped.budgetSeconds = budget;
    const AdmissionDecision cut =
        applyAdmission(capped, exact, 0.0, config_);
    EXPECT_EQ(cut.isnsShed, 1u);
    EXPECT_FALSE(capped.isns[0].participate);
    EXPECT_TRUE(capped.isns[1].participate);
}

// ------------------------------------------------- serving contracts

template <typename T>
void
appendBytes(std::string &buffer, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const char *raw = reinterpret_cast<const char *>(&value);
    buffer.append(raw, sizeof(T));
}

std::string
serializeMeasurements(const std::vector<QueryMeasurement> &measurements)
{
    std::string buffer;
    for (const QueryMeasurement &m : measurements) {
        appendBytes(buffer, m.id);
        appendBytes(buffer, m.tenant);
        appendBytes(buffer, m.arrivalSeconds);
        appendBytes(buffer, m.latencySeconds);
        appendBytes(buffer, m.budgetSeconds);
        appendBytes(buffer, m.isnsUsed);
        appendBytes(buffer, m.isnsCompleted);
        appendBytes(buffer, m.isnsBoosted);
        appendBytes(buffer, m.docsSearched);
        appendBytes(buffer, m.docsSkipped);
        appendBytes(buffer, m.blocksDecoded);
        appendBytes(buffer, m.blocksSkipped);
        appendBytes(buffer, m.partialResponses);
        appendBytes(buffer, m.completedFraction);
        appendBytes(buffer, m.precisionAtK);
        appendBytes(buffer, m.ndcgAtK);
        for (const ScoredDoc &hit : m.results) {
            appendBytes(buffer, hit.doc);
            appendBytes(buffer, hit.score);
        }
    }
    return buffer;
}

std::string
serializeServing(const std::vector<ServingMeasurement> &measurements)
{
    std::string buffer;
    for (const ServingMeasurement &record : measurements) {
        appendBytes(buffer, record.outcome);
        appendBytes(buffer, record.worstBacklogSeconds);
        appendBytes(buffer, record.isnsShed);
        appendBytes(buffer, record.isnsUnavailable);
    }
    std::vector<QueryMeasurement> inner;
    inner.reserve(measurements.size());
    for (const ServingMeasurement &record : measurements)
        inner.push_back(record.measurement);
    return buffer + serializeMeasurements(inner);
}

ExperimentConfig
servingConfig(std::size_t resultCache = 256,
              std::size_t statsCache = 1024)
{
    ExperimentConfig config;
    config.corpus.numDocs = 2000;
    config.corpus.vocabSize = 6000;
    config.corpus.meanDocLength = 90.0;
    config.shards.numShards = 8;
    config.traceQueries = 200;
    config.serving.enabled = true;
    config.serving.resultCacheCapacity = resultCache;
    config.serving.statsCacheCapacity = statsCache;
    return config;
}

TEST(ServingDeterminism, ServeIsBitExactAcrossThreadCounts)
{
    Experiment experiment(servingConfig());
    // A rate deep enough into overload that degradation and shedding
    // both engage, so the comparison covers every outcome path.
    const double qps = 4000.0;
    for (const char *policy : {"exhaustive", "taily"}) {
        ThreadPool::setGlobalThreads(1);
        const ServingRunResult sequential =
            experiment.runServing(policy, TraceFlavor::Wikipedia, qps);
        ThreadPool::setGlobalThreads(8);
        const ServingRunResult parallel =
            experiment.runServing(policy, TraceFlavor::Wikipedia, qps);
        ThreadPool::setGlobalThreads(1);

        ASSERT_EQ(sequential.measurements.size(),
                  parallel.measurements.size());
        EXPECT_EQ(serializeServing(sequential.measurements),
                  serializeServing(parallel.measurements))
            << policy
            << ": serving streams diverge across thread counts";
        EXPECT_EQ(toJson(sequential.summary), toJson(parallel.summary))
            << policy
            << ": serving summaries diverge across thread counts";
    }
}

TEST(ServingOff, ReplayIgnoresServingKnobsByteForByte)
{
    // The hard contract: run() is ServingFrontEnd::serve with the
    // front-end off, so it must produce the exact bytes of a bare
    // plan -> execute -> observe replay whatever the serving knobs
    // are set to — `enabled` included, which only runServing()
    // honours.
    ExperimentConfig plain;
    plain.corpus.numDocs = 2000;
    plain.corpus.vocabSize = 6000;
    plain.corpus.meanDocLength = 90.0;
    plain.shards.numShards = 8;
    plain.traceQueries = 200;

    ExperimentConfig knobbed = plain;
    knobbed.serving.enabled = true;
    knobbed.serving.resultCacheCapacity = 64;
    knobbed.serving.statsCacheCapacity = 64;
    knobbed.serving.admission.shedBacklogSeconds = 1e-6;

    Experiment a(std::move(plain));
    Experiment b(std::move(knobbed));
    for (const char *policy : {"exhaustive", "taily"}) {
        const RunResult off = a.run(policy, TraceFlavor::Wikipedia);
        const RunResult on = b.run(policy, TraceFlavor::Wikipedia);
        EXPECT_EQ(serializeMeasurements(off.measurements),
                  serializeMeasurements(on.measurements))
            << policy << ": serving knobs perturbed the replay path";
        EXPECT_EQ(toJson(off.summary), toJson(on.summary));
    }
}

TEST(ServingOff, RunServingHonoursEnabled)
{
    // runServing() with the front-end off is replay at the re-timed
    // arrivals: every query executes, nothing is probed, charged,
    // degraded or shed — even with caches sized and a shed line that
    // rejects queries as soon as the front-end is switched on.
    ExperimentConfig config = servingConfig();
    config.serving.admission.degradeBacklogSeconds = 1e-4;
    config.serving.admission.shedBacklogSeconds = 1e-4;
    ExperimentConfig offConfig = config;
    offConfig.serving.enabled = false;
    Experiment on(std::move(config));
    Experiment off(std::move(offConfig));
    const double qps = 20000.0;
    const ServingRunResult served =
        on.runServing("exhaustive", TraceFlavor::Wikipedia, qps);
    const ServingRunResult replayed =
        off.runServing("exhaustive", TraceFlavor::Wikipedia, qps);
    EXPECT_GT(served.summary.shedQueries, 0u);

    ASSERT_EQ(replayed.measurements.size(), replayed.summary.offered);
    for (const ServingMeasurement &record : replayed.measurements)
        ASSERT_EQ(record.outcome, ServingOutcome::Served);
    EXPECT_EQ(replayed.summary.completed, replayed.summary.offered);
    EXPECT_EQ(replayed.summary.resultCacheHits +
                  replayed.summary.resultCacheMisses,
              0u);
    EXPECT_EQ(replayed.summary.statsCacheHits +
                  replayed.summary.statsCacheMisses,
              0u);
    EXPECT_EQ(replayed.summary.isnsShed, 0u);
    // With nothing shed, the queues the front-end would have cut grow
    // instead: the open-loop replay's tail is the longer one.
    EXPECT_GT(replayed.summary.run.p99LatencySeconds,
              served.summary.run.p99LatencySeconds);
}

TEST(ServingCaches, CachedRankingsMatchUncachedByteForByte)
{
    // At a rate the cluster absorbs without degradation, a run with
    // the result cache on must return, query for query, the same
    // ranking as a run with it off: only fully-completed responses
    // are cached, so a hit is the response the engine would recompute.
    Experiment cached(servingConfig(512, 0));
    Experiment uncached(servingConfig(0, 0));
    const double qps = 100.0;

    const ServingRunResult with =
        cached.runServing("exhaustive", TraceFlavor::Wikipedia, qps);
    const ServingRunResult without =
        uncached.runServing("exhaustive", TraceFlavor::Wikipedia, qps);

    ASSERT_EQ(with.measurements.size(), without.measurements.size());
    EXPECT_GT(with.summary.cacheHits, 0u)
        << "trace has no repeated queries; the identity check is vacuous";
    EXPECT_EQ(without.summary.cacheHits, 0u);
    for (std::size_t i = 0; i < with.measurements.size(); ++i) {
        const QueryMeasurement &a = with.measurements[i].measurement;
        const QueryMeasurement &b = without.measurements[i].measurement;
        ASSERT_EQ(a.results.size(), b.results.size()) << "query " << i;
        for (std::size_t r = 0; r < a.results.size(); ++r) {
            ASSERT_EQ(a.results[r].doc, b.results[r].doc)
                << "query " << i << " rank " << r;
            double x = a.results[r].score;
            double y = b.results[r].score;
            ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0)
                << "query " << i << " rank " << r;
        }
        ASSERT_EQ(a.precisionAtK, b.precisionAtK) << "query " << i;
        ASSERT_EQ(a.ndcgAtK, b.ndcgAtK) << "query " << i;
    }
}

TEST(ServingOverload, ShedsUnderOverloadNeverWhenUnloaded)
{
    Experiment experiment(servingConfig());
    const ServingRunResult calm =
        experiment.runServing("exhaustive", TraceFlavor::Wikipedia, 50.0);
    EXPECT_EQ(calm.summary.shedQueries, 0u);
    EXPECT_EQ(calm.summary.degraded, 0u);
    EXPECT_DOUBLE_EQ(calm.summary.shedRate, 0.0);

    const ServingRunResult swamped = experiment.runServing(
        "exhaustive", TraceFlavor::Wikipedia, 20000.0);
    EXPECT_GT(swamped.summary.shedQueries, 0u);
    EXPECT_GT(swamped.summary.degraded, 0u);
    EXPECT_GT(swamped.summary.shedRate, 0.0);
    EXPECT_LT(swamped.summary.achievedQps, swamped.summary.offeredQps);
    // Degradation leans on the anytime path before shedding: some
    // responses must have been truncated rather than rejected.
    EXPECT_GT(swamped.summary.run.truncatedResponses, 0u);
}

TEST(ServingMetrics, CacheHitRatesFlowIntoRegistry)
{
    Experiment experiment(servingConfig());
    MetricsRegistry metrics;
    ServingFrontEnd frontEnd(experiment.engine(),
                             experiment.config().serving);
    const QueryTrace &base = experiment.trace(TraceFlavor::Wikipedia);
    const QueryTrace served = retimeTrace(base, 200.0, 5);
    const auto &truth = experiment.groundTruth(TraceFlavor::Wikipedia);
    const std::unique_ptr<Policy> policy =
        experiment.makePolicy("exhaustive");

    const ServingSummary summary =
        frontEnd.serve(*policy, served, truth, &metrics);

    EXPECT_EQ(metrics.counter("serve_offered"), summary.offered);
    EXPECT_EQ(metrics.counter("serve_result_cache_hits"),
              summary.resultCacheHits);
    EXPECT_EQ(metrics.counter("serve_result_cache_misses"),
              summary.resultCacheMisses);
    EXPECT_EQ(metrics.counter("serve_stats_cache_hits"),
              summary.statsCacheHits);
    EXPECT_EQ(metrics.counter("serve_stats_cache_misses"),
              summary.statsCacheMisses);
    EXPECT_GT(summary.resultCacheHits + summary.resultCacheMisses, 0u);
    EXPECT_GT(summary.statsCacheHits, 0u);
    EXPECT_GT(summary.statsCacheHitRate, 0.0);
    // The registry export carries the serving section for dashboards.
    const std::string json = metrics.toJson("exhaustive", "wikipedia");
    EXPECT_NE(json.find("serve_offered"), std::string::npos);
    EXPECT_NE(json.find("serve_stats_cache_hits"), std::string::npos);
    // The engine's own hooks must be restored afterwards.
    EXPECT_EQ(experiment.engine().metrics(), nullptr);
}

TEST(ServingSummaryJson, CarriesTheGateFields)
{
    Experiment experiment(servingConfig());
    const ServingRunResult result = experiment.runServing(
        "exhaustive", TraceFlavor::Wikipedia, 100.0);
    const std::string json = toJson(result.summary);
    for (const char *key :
         {"\"offered_qps\":", "\"achieved_qps\":", "\"shed_rate\":",
          "\"p95_latency_s\":", "\"result_cache_hit_rate\":",
          "\"stats_cache_hit_rate\":", "\"zero_progress_responses\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

} // namespace
} // namespace cottage
