/**
 * @file
 * Observability-layer suite: QueryTracer span recording and JSONL
 * output, MetricsRegistry counters/histograms/window series, the
 * reconciliation contract (span timings vs. measured latency, span
 * energies vs. the cluster meter), and regression coverage for the
 * latent-bug sweep that rode along with the layer (ClusterSim
 * pinning, conservative-prediction headroom, trace/train seed flags,
 * JSON string escaping).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/experiment.h"
#include "obs/metrics_registry.h"
#include "obs/query_tracer.h"
#include "policy/policy.h"
#include "predict/latency_predictor.h"
#include "util/string_util.h"

namespace cottage {
namespace {

// ---------------------------------------------------------------------
// Regression: ClusterSim hands each IsnServerSim pointers into its own
// ladder_/power_ members, so any copy or move would leave every server
// dangling into the source object. The type must be pinned.
static_assert(!std::is_copy_constructible_v<ClusterSim>);
static_assert(!std::is_copy_assignable_v<ClusterSim>);
static_assert(!std::is_move_constructible_v<ClusterSim>);
static_assert(!std::is_move_assignable_v<ClusterSim>);

// ---------------------------------------------------------------------
// Regression: the conservative cycle prediction is the upper edge of
// the *predicted* bucket — exactly one log-bucket of headroom over the
// bucket's lower edge, not two (the old code returned the upper edge
// of the bucket above, double-counting the slack CottageConfig already
// applies).

TEST(ConservativePrediction, ExactlyOneBucketOfHeadroom)
{
    const CycleBuckets buckets(1e6, 1e9, 12);
    const LatencyPredictor predictor(buckets, {4}, /*seed=*/99);
    const std::vector<double> features(numLatencyFeatures, 0.5);

    const uint32_t bucket = predictor.predictBucket(features);
    const double conservative =
        predictor.predictCyclesConservative(features);

    EXPECT_DOUBLE_EQ(conservative, buckets.upperCycles(bucket));

    // One log-bucket of headroom over the bucket's lower edge: the
    // log-width of [lower, conservative] equals one bucket width.
    const double width =
        (std::log(buckets.maxCycles()) - std::log(buckets.minCycles())) /
        static_cast<double>(buckets.count());
    const double lower = bucket == 0
                             ? buckets.minCycles()
                             : buckets.upperCycles(bucket - 1);
    EXPECT_NEAR(std::log(conservative) - std::log(lower), width,
                1e-12);

    // Still conservative relative to the point prediction (the
    // bucket's geometric center).
    EXPECT_GT(conservative, predictor.predictCycles(features));
}

TEST(ConservativePrediction, TopBucketStaysInsideRange)
{
    const CycleBuckets buckets(1e6, 1e9, 8);
    // The top bucket's upper edge is the range maximum; the old
    // bucket+1 arithmetic relied on a clamp to avoid running off the
    // end. The edge of the last bucket must still be exactly the max.
    EXPECT_NEAR(buckets.upperCycles(
                    static_cast<uint32_t>(buckets.count() - 1)),
                buckets.maxCycles(), buckets.maxCycles() * 1e-12);
}

// ---------------------------------------------------------------------
// Regression: --trace-seed/--train-seed were reported by print() but
// never wired, so replay traces could not be varied from the CLI.

TEST(ExperimentFlags, TraceAndTrainSeedsRoundTrip)
{
    const char *argv[] = {"prog",
                          "--seed=11",
                          "--trace-seed=2222",
                          "--train-seed=3333",
                          "--trace-out=/tmp/t.jsonl",
                          "--metrics-out=/tmp/m.json",
                          "--power-window-ms=250"};
    const CliFlags flags(7, argv);
    const ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    EXPECT_EQ(config.corpus.seed, 11u);
    EXPECT_EQ(config.traceSeed, 2222u);
    EXPECT_EQ(config.trainSeed, 3333u);
    EXPECT_EQ(config.traceOut, "/tmp/t.jsonl");
    EXPECT_EQ(config.metricsOut, "/tmp/m.json");
    EXPECT_DOUBLE_EQ(config.powerWindowSeconds, 0.25);
}

TEST(ExperimentFlags, TraceSeedActuallyChangesTheTrace)
{
    ExperimentConfig a;
    a.corpus.numDocs = 500;
    a.corpus.vocabSize = 2000;
    a.shards.numShards = 2;
    a.traceQueries = 20;
    ExperimentConfig b = a;
    b.traceSeed = a.traceSeed + 1;

    Experiment ea(std::move(a));
    Experiment eb(std::move(b));
    std::ostringstream ta;
    std::ostringstream tb;
    ea.trace(TraceFlavor::Wikipedia).save(ta);
    eb.trace(TraceFlavor::Wikipedia).save(tb);
    EXPECT_NE(ta.str(), tb.str());
}

// ---------------------------------------------------------------------
// Regression: toJson emitted string fields raw, so a policy or trace
// name containing '"' or '\' produced invalid JSON.

TEST(JsonEscape, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
    EXPECT_EQ(jsonQuote("x\"y"), "\"x\\\"y\"");
}

TEST(RunSummaryJson, HostileNamesStayValidJson)
{
    RunSummary summary;
    summary.policy = "evil\"policy\\";
    summary.trace = "tab\there\nline";
    const std::string json = toJson(summary);
    EXPECT_NE(json.find("\"policy\":\"evil\\\"policy\\\\\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"trace\":\"tab\\there\\nline\""),
              std::string::npos)
        << json;
    // No raw control characters and balanced quoting: every '"' is
    // either a delimiter or escaped.
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.find('\t'), std::string::npos);
}

// ---------------------------------------------------------------------
// MetricsRegistry unit tests.

TEST(MetricsRegistry, CountersAndHistograms)
{
    MetricsRegistry metrics;
    EXPECT_EQ(metrics.counter("missing"), 0u);
    metrics.incr("queries");
    metrics.incr("queries", 4);
    EXPECT_EQ(metrics.counter("queries"), 5u);

    Histogram &h = metrics.histogram("latency_s", 1e-3, 10.0, 8);
    h.add(0.02);
    h.add(0.02);
    h.add(5.0);
    // Same name returns the same histogram regardless of shape args.
    EXPECT_EQ(&metrics.histogram("latency_s", 1.0, 2.0, 3), &h);
    EXPECT_EQ(h.totalCount(), 3u);
    EXPECT_EQ(h.count(h.binIndex(0.02)), 2u);
    ASSERT_NE(metrics.findHistogram("latency_s"), nullptr);
    EXPECT_EQ(metrics.findHistogram("nope"), nullptr);
}

TEST(MetricsRegistry, WindowSeriesAccumulatesAndConvertsToPower)
{
    MetricsRegistry metrics;
    metrics.configureWindows(0.5, /*idleWatts=*/10.0);
    metrics.addWindowSample(0.1, 2.0);
    metrics.addWindowSample(0.4, 3.0);
    metrics.addWindowSample(1.9, 1.0);
    ASSERT_EQ(metrics.windows().size(), 4u);
    EXPECT_DOUBLE_EQ(metrics.windows()[0].energyJoules, 5.0);
    EXPECT_EQ(metrics.windows()[0].queries, 2u);
    EXPECT_EQ(metrics.windows()[1].queries, 0u);
    EXPECT_EQ(metrics.windows()[3].queries, 1u);
    // 5 J over 0.5 s on top of the 10 W idle floor.
    EXPECT_DOUBLE_EQ(metrics.windowPowerWatts(0), 20.0);
    EXPECT_DOUBLE_EQ(metrics.windowPowerWatts(1), 10.0);
}

TEST(MetricsRegistry, JsonAndAsciiAreDeterministic)
{
    MetricsRegistry metrics;
    metrics.incr("zebra");
    metrics.incr("alpha", 2);
    metrics.histogram("h", 1.0, 100.0, 4).add(10.0);
    metrics.configureWindows(1.0, 14.53);
    metrics.addWindowSample(0.5, 7.0);

    const std::string json = metrics.toJson("p", "t");
    // Ordered names: alpha before zebra.
    EXPECT_LT(json.find("\"alpha\":2"), json.find("\"zebra\":1"));
    EXPECT_NE(json.find("\"window_s\":1"), std::string::npos);
    EXPECT_NE(json.find("\"power_w\":[21.53]"), std::string::npos)
        << json;

    const std::string report = metrics.toAsciiReport();
    EXPECT_NE(report.find("alpha"), std::string::npos);
    EXPECT_NE(report.find("histogram h"), std::string::npos);
    EXPECT_NE(report.find("power/qps series"), std::string::npos);
}

// ---------------------------------------------------------------------
// QueryTracer unit tests.

/** A hand-built record: the JSONL encoding is pure formatting, so the
 *  line is golden (no simulation floating point involved). */
TEST(QueryTracer, JsonlGoldenLine)
{
    QueryTraceRecord record;
    record.id = 7;
    record.tenant = 2;
    record.arrivalSeconds = 1.5;
    record.dispatchSeconds = 1.625;
    record.budgetSeconds = 0.02;
    record.decisionOverheadSeconds = 0.125;
    record.rttSeconds = 2e-05;
    record.waitedSeconds = 0.01;
    record.mergeSeconds = 5e-05;
    record.latencySeconds = 0.13507;
    IsnSpan span;
    span.isn = 3;
    span.queueWaitSeconds = 0.25;
    span.serviceStartSeconds = 1.875;
    span.serviceFinishSeconds = 1.9375;
    span.busySeconds = 0.0625;
    span.cycles = 1048576;
    span.freqGhz = 2.1;
    span.cores = 2;
    span.boosted = false;
    span.energyJoules = 0.1675;
    span.completed = false;
    span.completedFraction = 0.5;
    span.docsScored = 42;
    span.docsSkipped = 1900;
    span.blocksDecoded = 11;
    span.blocksSkipped = 15;
    span.partial = true;
    record.isns.push_back(span);

    const std::string line =
        QueryTracer::toJsonLine(record, "a\"b", "wikipedia");
    EXPECT_EQ(
        line,
        "{\"query\":7,\"tenant\":2,\"policy\":\"a\\\"b\","
        "\"trace\":\"wikipedia\","
        "\"arrival_s\":1.5,\"dispatch_s\":1.625,\"budget_s\":0.02,"
        "\"decision_s\":0.125,\"rtt_s\":2e-05,\"waited_s\":0.01,"
        "\"merge_s\":5e-05,\"latency_s\":0.13507,\"isns\":[{\"isn\":3,"
        "\"queue_wait_s\":0.25,\"start_s\":1.875,\"finish_s\":1.9375,"
        "\"busy_s\":0.0625,\"cycles\":1048576,\"freq_ghz\":2.1,"
        "\"cores\":2,"
        "\"boosted\":false,\"energy_j\":0.1675,\"completed\":false,"
        "\"fraction\":0.5,\"docs\":42,\"docs_skipped\":1900,"
        "\"blocks_decoded\":11,\"blocks_skipped\":15,"
        "\"partial\":true}]}");
}

TEST(QueryTracer, NoBudgetSerializesAsNull)
{
    QueryTraceRecord record;
    record.budgetSeconds = -1.0;
    const std::string line = QueryTracer::toJsonLine(record, "p", "t");
    EXPECT_NE(line.find("\"budget_s\":null"), std::string::npos);
}

// ---------------------------------------------------------------------
// Engine/harness integration: spans reconcile with the measurement
// stream and the cluster energy meter, and span ordering is fixed.

/** Every ISN, one fixed relative budget (exercises truncation). */
class FixedBudgetPolicy : public Policy
{
  public:
    explicit FixedBudgetPolicy(double budgetSeconds)
        : budget_(budgetSeconds)
    {
    }

    const char *name() const override { return "fixed-budget"; }

    QueryPlan
    plan(const Query &, const DistributedEngine &engine) override
    {
        QueryPlan plan = QueryPlan::allIsns(engine.index().numShards());
        plan.budgetSeconds = budget_;
        return plan;
    }

  private:
    double budget_;
};

ExperimentConfig
obsConfig()
{
    ExperimentConfig config;
    config.corpus.numDocs = 2000;
    config.corpus.vocabSize = 6000;
    config.corpus.meanDocLength = 90.0;
    config.shards.numShards = 8;
    config.traceQueries = 120;
    config.arrivalQps = 40.0;
    config.work.baseCycles = 5e4;
    return config;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

TEST(ObsIntegration, SpansReconcileWithMeasurementsAndEnergy)
{
    ExperimentConfig config = obsConfig();
    config.traceOut = tempPath("obs_reconcile.jsonl");
    config.metricsOut = tempPath("obs_reconcile_metrics.json");
    Experiment experiment(std::move(config));

    // Calibrate a budget tight enough that some responses truncate:
    // a fraction of the unbudgeted run's average service span.
    FixedBudgetPolicy unbudgeted(noBudget);
    const RunResult full =
        experiment.run(unbudgeted, TraceFlavor::Wikipedia);
    const NetworkModel &network = experiment.cluster().network();
    const double scale = full.summary.avgLatencySeconds -
                         network.rttSeconds - network.mergeSeconds;
    ASSERT_GT(scale, 0.0);

    FixedBudgetPolicy policy(0.3 * scale);
    const RunResult result =
        experiment.run(policy, TraceFlavor::Wikipedia);
    ASSERT_NE(result.trace, nullptr);
    ASSERT_NE(result.metrics, nullptr);

    const auto &records = result.trace->records();
    ASSERT_EQ(records.size(), result.measurements.size());

    double spanEnergy = 0.0;
    bool sawTruncated = false;
    for (std::size_t q = 0; q < records.size(); ++q) {
        const QueryTraceRecord &record = records[q];
        const QueryMeasurement &m = result.measurements[q];
        EXPECT_EQ(record.id, m.id);
        EXPECT_DOUBLE_EQ(record.arrivalSeconds, m.arrivalSeconds);

        // The aggregator timeline reconciles with the measured
        // latency: decision + rtt + wait + merge.
        EXPECT_NEAR(record.decisionOverheadSeconds + record.rttSeconds +
                        record.waitedSeconds + record.mergeSeconds,
                    m.latencySeconds, 1e-9);
        EXPECT_NEAR(record.latencySeconds, m.latencySeconds, 1e-9);

        // Spans in ascending shard order, one per used ISN; work
        // accounting matches the measurement exactly.
        EXPECT_EQ(record.isns.size(), m.isnsUsed);
        uint64_t docs = 0;
        uint32_t completedSpans = 0;
        uint32_t partialSpans = 0;
        for (std::size_t i = 0; i < record.isns.size(); ++i) {
            const IsnSpan &span = record.isns[i];
            if (i > 0) {
                EXPECT_GT(span.isn, record.isns[i - 1].isn);
            }
            EXPECT_GE(span.serviceStartSeconds, record.dispatchSeconds);
            EXPECT_NEAR(span.queueWaitSeconds,
                        span.serviceStartSeconds - record.dispatchSeconds,
                        1e-12);
            EXPECT_GE(span.serviceFinishSeconds,
                      span.serviceStartSeconds);
            EXPECT_NEAR(span.busySeconds,
                        span.serviceFinishSeconds -
                            span.serviceStartSeconds,
                        1e-12);
            docs += span.docsScored;
            completedSpans += span.completed;
            partialSpans += span.partial;
            spanEnergy += span.energyJoules;
            if (!span.completed) {
                sawTruncated = true;
                EXPECT_LT(span.completedFraction, 1.0);
            }
        }
        EXPECT_EQ(docs, m.docsSearched);
        EXPECT_EQ(completedSpans, m.isnsCompleted);
        EXPECT_EQ(partialSpans, m.partialResponses);
    }
    EXPECT_TRUE(sawTruncated) << "budget did not truncate anything; "
                                 "the partial path went untested";

    // Per-span energies sum to the cluster meter (only the addition
    // order differs).
    EXPECT_NEAR(spanEnergy, result.summary.energyJoules,
                1e-9 * std::max(1.0, result.summary.energyJoules));

    // Engine-side metrics agree with the aggregate measurement stream.
    const MetricsRegistry &metrics = *result.metrics;
    EXPECT_EQ(metrics.counter("queries"), result.measurements.size());
    uint64_t used = 0;
    uint64_t boosted = 0;
    for (const QueryMeasurement &m : result.measurements) {
        used += m.isnsUsed;
        boosted += m.isnsBoosted;
    }
    EXPECT_EQ(metrics.counter("isns_dispatched"), used);
    EXPECT_EQ(metrics.counter("isns_boosted"), boosted);
    EXPECT_EQ(metrics.counter("responses_truncated"),
              result.summary.truncatedResponses);
    EXPECT_EQ(metrics.counter("partial_responses"),
              result.summary.partialResponses);

    const Histogram *latency = metrics.findHistogram("latency_s");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->totalCount(), result.measurements.size());
    const Histogram *backlog =
        metrics.findHistogram("backlog_at_dispatch_s");
    ASSERT_NE(backlog, nullptr);
    EXPECT_EQ(backlog->totalCount(), used);
    const Histogram *utilisation =
        metrics.findHistogram("isn_utilization");
    ASSERT_NE(utilisation, nullptr);
    EXPECT_EQ(utilisation->totalCount(),
              experiment.cluster().numIsns());

    // The window series telescopes to the run's total energy and
    // query count.
    double windowEnergy = 0.0;
    uint64_t windowQueries = 0;
    for (const MetricsWindow &w : metrics.windows()) {
        windowEnergy += w.energyJoules;
        windowQueries += w.queries;
    }
    EXPECT_EQ(windowQueries, result.measurements.size());
    EXPECT_NEAR(windowEnergy, result.summary.energyJoules,
                1e-9 * std::max(1.0, result.summary.energyJoules));
}

TEST(ObsIntegration, JsonlFileMatchesInMemoryRecords)
{
    ExperimentConfig config = obsConfig();
    config.traceQueries = 30;
    config.traceOut = tempPath("obs_file.jsonl");
    const std::string path = config.traceOut;
    Experiment experiment(std::move(config));
    const RunResult result =
        experiment.run("exhaustive", TraceFlavor::Wikipedia);
    ASSERT_NE(result.trace, nullptr);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream content;
    content << in.rdbuf();

    std::ostringstream expected;
    result.trace->writeJsonl(expected, result.summary.policy,
                             result.summary.trace);
    EXPECT_EQ(content.str(), expected.str());

    // One line per query, each a JSON object.
    std::istringstream lines(content.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++count;
    }
    EXPECT_EQ(count, result.measurements.size());
}

TEST(ObsIntegration, ScenarioJsonlHoldsOneRecordPerExecutedQuery)
{
    // Scenario runs share replay's tracer plumbing: the file equals the
    // in-memory records, and only queries that reached the engine leave
    // a record — cache hits and shed queries never do.
    ExperimentConfig config = obsConfig();
    config.traceQueries = 200;
    config.work = WorkModel();
    config.serving.resultCacheCapacity = 256;
    config.serving.admission.degradeBacklogSeconds = 1e-4;
    config.serving.admission.shedBacklogSeconds = 2e-4;
    config.traceOut = tempPath("obs_scenario.jsonl");
    const std::string path = config.traceOut;
    Experiment experiment(std::move(config));
    const ScenarioRunResult result = experiment.runScenario(
        "taily", scenarioByName("flash_crowd", 4.0));
    ASSERT_NE(result.trace, nullptr);
    EXPECT_GT(result.summary.cacheHits, 0u)
        << "no cache hit: the exclusion check is vacuous";
    EXPECT_GT(result.summary.shedQueries, 0u)
        << "no shed query: the exclusion check is vacuous";

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream content;
    content << in.rdbuf();
    std::ostringstream expected;
    result.trace->writeJsonl(expected, result.summary.run.policy,
                             result.summary.run.trace);
    EXPECT_EQ(content.str(), expected.str());

    // Exactly the executed queries, in arrival order.
    std::vector<QueryId> executed;
    for (const ServingMeasurement &record : result.measurements)
        if (record.outcome == ServingOutcome::Served ||
            record.outcome == ServingOutcome::Degraded)
            executed.push_back(record.measurement.id);
    const std::vector<QueryTraceRecord> &records = result.trace->records();
    ASSERT_EQ(records.size(), executed.size());
    EXPECT_EQ(result.summary.offered - result.summary.cacheHits -
                  result.summary.shedQueries,
              records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].id, executed[i]) << "record " << i;
    std::istringstream lines(content.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line))
        ++count;
    EXPECT_EQ(count, records.size());
}

TEST(ObsIntegration, MetricsFileHoldsOneJsonObjectPerRun)
{
    ExperimentConfig config = obsConfig();
    config.traceQueries = 30;
    config.metricsOut = tempPath("obs_metrics_runs.json");
    const std::string path = config.metricsOut;
    Experiment experiment(std::move(config));
    experiment.run("exhaustive", TraceFlavor::Wikipedia);
    experiment.run("taily", TraceFlavor::Wikipedia);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++count;
    }
    EXPECT_EQ(count, 2u);
}

// ---------------------------------------------------------------------
// Streaming sink: with streamTo attached the tracer writes each JSONL
// line as it is recorded and flushes every batch, so a mid-run abort
// keeps everything up to the last flushed batch on disk instead of
// losing the whole buffered tail.

QueryTraceRecord
streamRecord(QueryId id)
{
    QueryTraceRecord record;
    record.id = id;
    record.arrivalSeconds = 0.001 * static_cast<double>(id);
    record.latencySeconds = 0.002;
    IsnSpan span;
    span.isn = static_cast<ShardId>(id % 4);
    span.busySeconds = 0.0005;
    record.isns.push_back(span);
    return record;
}

TEST(QueryTracerStreaming, SinkBytesMatchWriteJsonl)
{
    QueryTracer streamed;
    std::ostringstream sink;
    streamed.streamTo(&sink, "pol", "tr", 2);
    QueryTracer buffered;
    for (QueryId id = 0; id < 5; ++id) {
        streamed.record(streamRecord(id));
        buffered.record(streamRecord(id));
    }
    streamed.flushSink();

    std::ostringstream expected;
    buffered.writeJsonl(expected, "pol", "tr");
    EXPECT_EQ(sink.str(), expected.str());
    // The in-memory list still accumulates exactly as without a sink.
    EXPECT_EQ(streamed.records().size(), 5u);

    // Detach: later records stay in memory only, the sink is final.
    streamed.streamTo(nullptr, "", "");
    streamed.record(streamRecord(99));
    EXPECT_EQ(streamed.records().size(), 6u);
    EXPECT_EQ(sink.str(), expected.str());
}

TEST(QueryTracerStreamingDeathTest, StreamedLinesSurviveAMidRunAbort)
{
    // The child records three lines through a per-record flush, then
    // dies without unwinding (no destructors, no stream teardown). The
    // parent must find all three lines intact on disk — the regression
    // was a tracer that buffered everything until writeJsonl at end of
    // run, so any abort threw away the entire trace.
    const std::string path = tempPath("obs_stream_abort.jsonl");
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            std::ofstream out(path);
            QueryTracer tracer;
            tracer.streamTo(&out, "pol", "tr", 1);
            for (QueryId id = 0; id < 3; ++id)
                tracer.record(streamRecord(id));
            std::abort();
        },
        "");

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    for (QueryId id = 0; id < 3; ++id)
        EXPECT_EQ(lines[id],
                  QueryTracer::toJsonLine(streamRecord(id), "pol", "tr"));
}

} // namespace
} // namespace cottage
