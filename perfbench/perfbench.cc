/**
 * @file
 * The repository benchmark program. One process sets the default
 * 16-ISN stack up for one workload, replays that workload's measured
 * call (Experiment::run or Experiment::runScenario) for a fixed host
 * time, checks the outputs, and prints every metric as one JSON line.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             [--spans-out=FILE]
 *
 * --trace=0 reports the end-to-end metrics. --trace=1 additionally runs
 * one traced pass (timing decorators around Policy and Evaluator, the
 * engine's QueryTracer attached) and reports the per-layer metrics.
 * Exit status: 0 when every output check holds, 1 when one fails, 2 on
 * a usage error. README.md in this directory defines every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cottage_policy.h"
#include "harness/experiment.h"
#include "serve/arrivals.h"
#include "serve/scenario.h"
#include "stats/summary.h"
#include "tracing.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using cottage::DistributedEngine;
using cottage::Experiment;
using cottage::ExperimentConfig;
using cottage::Query;
using cottage::QueryMeasurement;
using cottage::QueryTrace;
using cottage::ScenarioConfig;
using cottage::ScoredDoc;
using cottage::ServingOutcome;
using cottage::TraceFlavor;

/**
 * Host worker threads of every workload (the shard fan-out and the
 * set-up batch loops). On a 4-vCPU host, 3 and 4 threads made the
 * replay slower and far noisier than 2: the replay thread, which does
 * all planning, then competes with the pool for cores.
 */
constexpr unsigned kHostThreads = 2;

/** The interactive tenant's deadline and the slo-dvfs SLO. */
constexpr double kSloSeconds = 20e-3;

/**
 * Flash-crowd rate scale: the lowest scale at which the 8x spike drives
 * the admission ladder both to degrade budgets and to shed queries.
 */
constexpr double kFlashCrowdScale = 3.0;

/**
 * Degrade threshold of the serving workload's admission ladder. The
 * default (50 ms) lies above every budget Cottage assigns under a 20 ms
 * deadline, so the ladder would only ever shed; at 10 ms the spike
 * exercises the degrade step as well.
 */
constexpr double kDegradeBacklogSeconds = 10e-3;

/** Queries of each isolated predictor-timing pass. */
constexpr std::size_t kIsolatedQueries = 1000;

/**
 * Queries whose spans --spans-out writes (all spans stay in memory for
 * the metrics; a full dump of a 100K-query replay would be ~200 MB).
 */
constexpr uint64_t kSpanDumpQueries = 2000;

struct Workload
{
    const char *name;
    const char *policy;
    const char *evaluator;
    uint32_t isnCores;
    bool serve;
    /**
     * Queries of each evaluation trace (of each tenant's flavor in the
     * scenario). The exhaustive replays queue with no budget to cap the
     * latency tail, so their simulated p99 needs ten times Cottage's
     * queries for a similar seed-to-seed spread; 5K per flavor keep a
     * serving pass near 4 s, so a run measures several.
     */
    uint64_t traceQueries;
};

const Workload kWorkloads[] = {
    {"replay_cottage", "cottage", "maxscore", 1, false, 10000},
    {"replay_exhaustive_flat", "exhaustive", "maxscore", 1, false, 100000},
    {"replay_exhaustive_block", "exhaustive", "bmw", 1, false, 100000},
    {"serve_flash_crowd", "cottage", "maxscore", 2, true, 5000},
};

bool
isExhaustive(const Workload &workload)
{
    return std::strcmp(workload.policy, "exhaustive") == 0;
}

ExperimentConfig
makeConfig(const Workload &workload, uint64_t seed)
{
    ExperimentConfig config;
    config.evaluator = workload.evaluator;
    config.threads = kHostThreads;
    // One seed drives every random input; seed 7 reproduces the
    // repository defaults (trace seed 7, train seed 1007).
    config.traceSeed = seed;
    config.trainSeed = seed + 1000;
    config.traceQueries = workload.traceQueries;
    config.isnCores = workload.isnCores;
    config.cottage.maxCoresPerQuery = workload.isnCores;
    if (workload.serve) {
        config.serving.resultCacheCapacity = 512;
        config.serving.statsCacheCapacity = 2048;
        config.serving.admission.degradeBacklogSeconds =
            kDegradeBacklogSeconds;
    }
    return config;
}

ScenarioConfig
makeScenario(uint64_t seed)
{
    ScenarioConfig scenario =
        cottage::scenarioByName("flash_crowd", kFlashCrowdScale);
    // The presets hard-code each tenant's arrival seed; derive them from
    // the run's seed instead so one argument varies every input.
    cottage::Rng rng(seed ^ 0x7e4a47a55eedull);
    for (cottage::TenantSpec &tenant : scenario.tenants)
        tenant.arrivals.seed = rng.next();
    return scenario;
}

std::vector<TraceFlavor>
flavorsOf(const Workload &workload, const ScenarioConfig &scenario)
{
    if (!workload.serve)
        return {TraceFlavor::Wikipedia};
    std::vector<TraceFlavor> flavors;
    for (const cottage::TenantSpec &tenant : scenario.tenants)
        if (std::find(flavors.begin(), flavors.end(), tenant.flavor) ==
            flavors.end())
            flavors.push_back(tenant.flavor);
    return flavors;
}

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * CPU seconds the calling thread has run: its wall time less the time
 * the hypervisor (steal) or other processes kept it off a CPU.
 */
double
threadCpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

/** Percentile @p q of @p values (0 when there are none). */
double
quantile(std::vector<double> values, double q)
{
    return values.empty() ? 0.0 : cottage::percentile(std::move(values), q);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** One progress line on stderr: phase name and seconds since start. */
void
progress(const char *phase, double value)
{
    std::cerr << "[perfbench] t=" << seconds(nowNs()) << "s " << phase
              << ' ' << value << '\n';
}

// ---------------------------------------------------------------------
// Set-up

struct SetupTimes
{
    double total = 0.0;
    double stackBuild = 0.0;
    double traceGen = 0.0;
    double train = 0.0;
    double groundTruth = 0.0;
};

/**
 * Build the stack and force every lazy piece the measured call would
 * otherwise build on first use, timing each stage.
 */
std::unique_ptr<Experiment>
setUp(const Workload &workload, const ExperimentConfig &config,
      const std::vector<TraceFlavor> &flavors, int64_t startNs,
      SetupTimes &times)
{
    int64_t mark = nowNs();
    auto experiment = std::make_unique<Experiment>(config);
    times.stackBuild = seconds(nowNs() - mark);

    mark = nowNs();
    for (TraceFlavor flavor : flavors)
        experiment->trace(flavor);
    times.traceGen = seconds(nowNs() - mark);

    if (!isExhaustive(workload)) {
        mark = nowNs();
        experiment->bank();
        times.train = seconds(nowNs() - mark);
    }

    mark = nowNs();
    for (TraceFlavor flavor : flavors)
        experiment->groundTruth(flavor);
    times.groundTruth = seconds(nowNs() - mark);

    times.total = seconds(nowNs() - startNs);
    return experiment;
}

// ---------------------------------------------------------------------
// Measured passes and their simulated outputs

/** Every offered query's response, whichever path produced it. */
struct PassOutput
{
    /** Wall seconds of the measured call. */
    double hostSeconds = 0.0;
    /** CPU seconds of the replay thread during the call; see host_qps. */
    double replayCpuSeconds = 0.0;
    std::vector<QueryMeasurement> responses;
    std::vector<ServingOutcome> outcomes;
    double windowSeconds = 0.0;
    double windowEnergyJoules = 0.0;
    uint64_t degraded = 0;
    double resultCacheHitRate = 0.0;
    double statsCacheHitRate = 0.0;
    double interactiveSloAttainment = 0.0;
};

void
fromRun(const cottage::RunResult &run, PassOutput &out)
{
    out.responses = run.measurements;
    out.outcomes.assign(out.responses.size(), ServingOutcome::Served);
    out.windowSeconds = run.summary.durationSeconds;
    out.windowEnergyJoules =
        run.summary.avgPowerWatts * run.summary.durationSeconds;
}

void
fromServing(const cottage::ServingSummary &summary,
            const std::vector<cottage::ServingMeasurement> &records,
            PassOutput &out)
{
    out.responses.clear();
    out.outcomes.clear();
    for (const cottage::ServingMeasurement &record : records) {
        out.responses.push_back(record.measurement);
        out.outcomes.push_back(record.outcome);
    }
    out.windowSeconds = summary.run.durationSeconds;
    out.windowEnergyJoules =
        summary.run.avgPowerWatts * summary.run.durationSeconds;
    out.degraded = summary.degraded;
    out.resultCacheHitRate = summary.resultCacheHitRate;
    out.statsCacheHitRate = summary.statsCacheHitRate;
    if (!summary.tenants.empty())
        out.interactiveSloAttainment = summary.tenants[0].sloAttainment;
}

PassOutput
measuredPass(Experiment &experiment, cottage::Policy &policy,
             const Workload &workload, const ScenarioConfig &scenario)
{
    PassOutput out;
    const double cpuStart = threadCpuSeconds();
    const int64_t start = nowNs();
    if (workload.serve) {
        const cottage::ScenarioRunResult result =
            experiment.runScenario(policy, scenario);
        out.hostSeconds = seconds(nowNs() - start);
        out.replayCpuSeconds = threadCpuSeconds() - cpuStart;
        fromServing(result.summary, result.measurements, out);
    } else {
        const cottage::RunResult result =
            experiment.run(policy, TraceFlavor::Wikipedia);
        out.hostSeconds = seconds(nowNs() - start);
        out.replayCpuSeconds = threadCpuSeconds() - cpuStart;
        fromRun(result, out);
    }
    return out;
}

/** 64-bit FNV-1a. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    value(const T &v)
    {
        bytes(&v, sizeof(v));
    }

    void
    ranking(const std::vector<ScoredDoc> &docs)
    {
        for (const ScoredDoc &doc : docs) {
            value(doc.doc);
            value(doc.score);
        }
    }

    uint64_t hash() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Checksum of every response's merged top-K, doc ids and score bits. */
uint64_t
topKChecksum(const std::vector<QueryMeasurement> &responses)
{
    Fnv fnv;
    for (const QueryMeasurement &m : responses)
        fnv.ranking(m.results);
    return fnv.hash();
}

/** Digest of the whole simulated measurement stream of a pass. */
uint64_t
simDigest(const PassOutput &out)
{
    Fnv fnv;
    for (std::size_t i = 0; i < out.responses.size(); ++i) {
        const QueryMeasurement &m = out.responses[i];
        fnv.value(out.outcomes[i]);
        fnv.value(m.id);
        fnv.value(m.tenant);
        fnv.value(m.arrivalSeconds);
        fnv.value(m.latencySeconds);
        fnv.value(m.budgetSeconds);
        fnv.value(m.isnsUsed);
        fnv.value(m.isnsCompleted);
        fnv.value(m.partialResponses);
        fnv.value(m.isnsBoosted);
        fnv.value(m.isnsParallel);
        fnv.value(m.completedFraction);
        fnv.value(m.docsSearched);
        fnv.value(m.docsSkipped);
        fnv.value(m.blocksDecoded);
        fnv.value(m.blocksSkipped);
        fnv.value(m.precisionAtK);
        fnv.value(m.ndcgAtK);
        fnv.ranking(m.results);
    }
    fnv.value(out.windowSeconds);
    fnv.value(out.windowEnergyJoules);
    return fnv.hash();
}

struct SimMetrics
{
    uint64_t offered = 0;
    uint64_t shed = 0;
    uint64_t answered = 0;
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    double sloAttainment = 0.0;
    double p10 = 0.0;
    double ndcg10 = 0.0;
    double energyMjPerQuery = 0.0;
};

SimMetrics
simMetrics(const PassOutput &out)
{
    SimMetrics sim;
    sim.offered = out.responses.size();
    std::vector<double> latencies;
    latencies.reserve(out.responses.size());
    uint64_t inSlo = 0;
    double precision = 0.0;
    double ndcg = 0.0;
    for (std::size_t i = 0; i < out.responses.size(); ++i) {
        const QueryMeasurement &m = out.responses[i];
        const bool shed = out.outcomes[i] == ServingOutcome::Shed;
        sim.shed += shed ? 1 : 0;
        sim.answered += shed ? 0 : 1;
        latencies.push_back(m.latencySeconds * 1e3);
        if (!shed && m.latencySeconds <= kSloSeconds)
            ++inSlo;
        precision += shed ? 0.0 : m.precisionAtK;
        ndcg += shed ? 0.0 : m.ndcgAtK;
    }
    if (sim.offered == 0)
        return sim;
    const double n = static_cast<double>(sim.offered);
    sim.latencyP50Ms = cottage::percentile(latencies, 0.50);
    sim.latencyP99Ms = cottage::percentile(latencies, 0.99);
    sim.sloAttainment = static_cast<double>(inSlo) / n;
    sim.p10 = precision / n;
    sim.ndcg10 = ndcg / n;
    sim.energyMjPerQuery = out.windowEnergyJoules * 1e3 / n;
    return sim;
}

// ---------------------------------------------------------------------
// The traced pass

struct TracedPass
{
    PassOutput out;
    SpanRecorder spans;
    std::vector<SearchCall> calls;
    std::vector<PlanRecord> plans;
    std::vector<cottage::QueryTraceRecord> isnRecords;
    /** The replayed trace and its ground truth, indexed by query id. */
    QueryTrace trace;
    std::vector<std::vector<ScoredDoc>> truth;
    double arrivalPrepSeconds = 0.0;
    double serveSeconds = 0.0;
};

/**
 * Replay the workload through a second engine over the experiment's
 * index and cluster whose evaluator and policy are timing decorators.
 * Mirrors Experiment::run / Experiment::runScenario step for step, so
 * its simulated outputs must equal an untraced pass byte for byte.
 */
void
tracedPass(Experiment &experiment, cottage::Policy &policy,
           const Workload &workload, const ScenarioConfig &scenario,
           TracedPass &traced)
{
    const ExperimentConfig &config = experiment.config();
    TimedEvaluator evaluator(experiment.evaluator());
    DistributedEngine engine(experiment.index(), experiment.cluster(),
                             evaluator, config.work, config.anytime);
    engine.setDefaultIsnCores(config.isnCores);
    cottage::QueryTracer tracer;
    engine.setTracer(&tracer);

    // Replay reads the cached trace and truth in place; the copies kept
    // for the per-layer metrics are made before timing starts.
    if (!workload.serve) {
        traced.trace = experiment.trace(TraceFlavor::Wikipedia);
        traced.truth = experiment.groundTruth(TraceFlavor::Wikipedia);
    }
    const double cpuStart = threadCpuSeconds();
    const int64_t start = nowNs();
    const int64_t root = traced.spans.open(
        workload.serve ? "harness.run_scenario" : "harness.run", -1, 0,
        start);
    TimedPolicy timed(policy, traced.spans, evaluator, root);

    // End of the timed call; the copy of its outputs is not part of it.
    int64_t end = 0;
    if (workload.serve) {
        std::vector<QueryTrace> shaped;
        for (const cottage::TenantSpec &tenant : scenario.tenants)
            shaped.push_back(cottage::shapeArrivals(
                experiment.trace(tenant.flavor), tenant.arrivals));
        cottage::MergedArrivals merged =
            cottage::mergeTenantArrivals(shaped);
        merged.trace.setName("scenario:" + scenario.name);
        for (const auto &[tenant, position] : merged.sources)
            traced.truth.push_back(experiment.groundTruth(
                scenario.tenants[tenant].flavor)[position]);
        traced.trace = std::move(merged.trace);
        const int64_t prepEnd = nowNs();
        traced.arrivalPrepSeconds = seconds(prepEnd - start);
        traced.spans.add(Span{"serve.arrival_prep", start, prepEnd, root, 0});

        cottage::ServingConfig serving = config.serving;
        serving.enabled = true;
        serving.tenants.clear();
        for (const cottage::TenantSpec &tenant : scenario.tenants) {
            cottage::TenantSlo slo = tenant.slo;
            slo.name = tenant.name;
            serving.tenants.push_back(std::move(slo));
        }
        cottage::ServingFrontEnd frontEnd(engine, serving);
        experiment.cluster().applyShape(scenario.shape);
        const int64_t serveStart = nowNs();
        const cottage::ServingSummary summary =
            frontEnd.serve(timed, traced.trace, traced.truth);
        timed.finish();
        const int64_t serveEnd = nowNs();
        experiment.cluster().clearShape();
        end = nowNs();
        traced.out.replayCpuSeconds = threadCpuSeconds() - cpuStart;
        traced.serveSeconds = seconds(serveEnd - serveStart);
        traced.spans.add(
            Span{"serve.serve", serveStart, serveEnd, root, 0});
        fromServing(summary, frontEnd.measurements(), traced.out);
    } else {
        cottage::ClusterSim &cluster = experiment.cluster();
        cluster.reset();
        timed.reset();
        std::vector<QueryMeasurement> measurements;
        measurements.reserve(traced.trace.size());
        for (std::size_t q = 0; q < traced.trace.size(); ++q) {
            const Query &query = traced.trace.query(q);
            const cottage::QueryPlan plan = timed.plan(query, engine);
            QueryMeasurement measurement =
                engine.execute(query, plan, traced.truth[q]);
            timed.observe(measurement);
            measurements.push_back(std::move(measurement));
        }
        cottage::RunResult run;
        run.measurements = std::move(measurements);
        run.summary = cottage::summarizeRun(policy.name(),
                                            traced.trace.name(),
                                            run.measurements);
        double window = traced.trace.durationSeconds();
        for (cottage::ShardId s = 0; s < cluster.numIsns(); ++s)
            window = std::max(window, cluster.isn(s).busyUntilSeconds());
        run.summary.durationSeconds = window;
        run.summary.avgPowerWatts = cluster.averagePowerWatts(window);
        end = nowNs();
        traced.out.replayCpuSeconds = threadCpuSeconds() - cpuStart;
        fromRun(run, traced.out);
    }
    traced.spans.close(root, end);
    traced.out.hostSeconds = seconds(end - start);
    engine.setTracer(nullptr);
    traced.calls = evaluator.calls();
    for (const SearchCall &call : traced.calls)
        traced.spans.add(call.span);
    traced.plans = timed.plans();
    traced.isnRecords = tracer.records();
}

// ---------------------------------------------------------------------
// Metrics output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << '{';
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << '"' << metrics[i].name
            << "\": {\"value\": " << jsonNumber(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    out << '}';
    return out.str();
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Cottage's planner layers, measured apart from the replay. */
struct PredictorLayer
{
    double inferenceUs = 0.0;
    double featuresUs = 0.0;
    double budgetUs = 0.0;
    double hostToCharged = 0.0;
    double underpredictedShare = 0.0;
    double qualityMissShare = 0.0;
};

/**
 * Time feature extraction, MLP inference and the budget step on the
 * first kIsolatedQueries queries of the traced pass, and score the
 * predictions against what the traced pass observed.
 */
PredictorLayer
predictorLayer(Experiment &experiment, cottage::CottagePolicy &policy,
               const TracedPass &traced)
{
    PredictorLayer layer;
    const cottage::PredictorBank &bank = experiment.bank();
    const DistributedEngine &engine = experiment.engine();
    const cottage::ShardedIndex &index = experiment.index();
    const std::size_t sample = std::min(kIsolatedQueries, traced.trace.size());
    double predictionsNs = 0.0;
    double planNs = 0.0;
    double featureNs = 0.0;
    double nnNs = 0.0;
    for (std::size_t q = 0; q < sample; ++q) {
        const Query &query = traced.trace.query(q);
        const std::vector<cottage::WeightedTerm> terms =
            DistributedEngine::weightedTerms(query);
        for (cottage::ShardId s = 0; s < index.numShards(); ++s) {
            int64_t mark = nowNs();
            const std::vector<double> quality =
                cottage::qualityFeatures(index.termStats(s), terms);
            const std::vector<double> latency =
                cottage::latencyFeatures(index.termStats(s), terms);
            featureNs += static_cast<double>(nowNs() - mark);
            mark = nowNs();
            const cottage::QualityPredictor &qp = bank.quality(s);
            volatile double sink =
                qp.predictTopK(quality) + qp.predictTopHalf(quality) +
                qp.probNonzeroTopK(quality) + qp.probNonzeroTopHalf(quality) +
                bank.latency(s).predictCyclesConservative(latency);
            (void)sink;
            nnNs += static_cast<double>(nowNs() - mark);
        }
        // Warm the query's term statistics first, so that neither of the
        // two timed calls pays for the other's cache misses.
        (void)policy.predictions(query, engine);
        int64_t mark = nowNs();
        (void)policy.plan(query, engine);
        planNs += static_cast<double>(nowNs() - mark);
        mark = nowNs();
        (void)policy.predictions(query, engine);
        predictionsNs += static_cast<double>(nowNs() - mark);
    }
    if (sample > 0) {
        const double n = static_cast<double>(sample);
        layer.featuresUs = featureNs * 1e-3 / n;
        layer.inferenceUs = nnNs * 1e-3 / n;
        layer.budgetUs = std::max(0.0, (planNs - predictionsNs) * 1e-3 / n);
    }

    // Under-prediction: a traced ISN span that needed more cycles than
    // the conservative prediction scaled to its gang width.
    double spans = 0.0;
    double underpredicted = 0.0;
    for (const cottage::QueryTraceRecord &record : traced.isnRecords) {
        const std::vector<cottage::WeightedTerm> terms =
            DistributedEngine::weightedTerms(traced.trace.query(record.id));
        for (const cottage::IsnSpan &span : record.isns) {
            const double predicted =
                bank.latency(span.isn).predictCyclesConservative(
                    cottage::latencyFeatures(index.termStats(span.isn),
                                             terms)) *
                bank.coreCycleFactor(span.cores);
            spans += 1.0;
            underpredicted += span.cycles > predicted ? 1.0 : 0.0;
        }
    }
    layer.underpredictedShare = spans > 0.0 ? underpredicted / spans : 0.0;

    // Quality misses: ground-truth top-K documents owned by ISNs the
    // policy left out of the plan.
    double truthDocs = 0.0;
    double missed = 0.0;
    for (const PlanRecord &plan : traced.plans) {
        const std::vector<uint32_t> owned = engine.shardContributions(
            traced.truth[static_cast<std::size_t>(plan.query)]);
        for (std::size_t s = 0; s < owned.size(); ++s) {
            truthDocs += owned[s];
            missed += plan.participates[s] ? 0.0 : owned[s];
        }
    }
    layer.qualityMissShare = truthDocs > 0.0 ? missed / truthDocs : 0.0;
    return layer;
}

/** Per-layer metrics of a traced pass (README.md, "Per-layer metrics"). */
std::vector<Metric>
layerMetrics(Experiment &experiment, cottage::Policy &policy,
             const Workload &workload, const TracedPass &traced,
             const SetupTimes &setup, double untracedQps)
{
    std::vector<Metric> metrics;
    auto add = [&](const char *name, double value, const char *unit) {
        metrics.push_back(Metric{name, value, unit});
    };
    const std::vector<Span> spans = traced.spans.spans();
    const double offered = static_cast<double>(traced.out.responses.size());

    add("harness.stack_build_s", setup.stackBuild, "s");
    add("text.trace_gen_s", setup.traceGen, "s");
    add("predict.train_s", setup.train, "s");
    add("engine.ground_truth_s", setup.groundTruth, "s");

    double rawBytes = 0.0;
    double blockBytes = 0.0;
    double compressedBytes = 0.0;
    const cottage::ShardedIndex &index = experiment.index();
    for (cottage::ShardId s = 0; s < index.numShards(); ++s) {
        const cottage::InvertedIndex::Footprint footprint =
            index.shard(s).footprint();
        rawBytes += static_cast<double>(footprint.rawPostingBytes);
        blockBytes += static_cast<double>(footprint.blockMaxBytes);
        compressedBytes +=
            static_cast<double>(footprint.compressedPostingBytes);
    }
    const double mib = 1024.0 * 1024.0;
    add("index.raw_postings_mb", rawBytes / mib, "MiB");
    add("index.block_max_mb", blockBytes / mib, "MiB");
    add("index.compressed_postings_mb", compressedBytes / mib, "MiB");

    // Evaluator spans, grouped under their execute span.
    std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    std::vector<double> searchUs;
    double searchNs = 0.0;
    cottage::SearchWork work;
    uint64_t capped = 0;
    for (const SearchCall &call : traced.calls) {
        const Span &span = call.span;
        children[span.parent].emplace_back(span.startNs, span.endNs);
        searchUs.push_back(static_cast<double>(span.endNs - span.startNs) *
                           1e-3);
        searchNs += static_cast<double>(span.endNs - span.startNs);
        work += call.work;
        capped += call.capped ? 1 : 0;
    }

    std::vector<double> planUs;
    std::vector<double> executeUs;
    std::vector<double> executeSelfUs;
    double planNs = 0.0;
    double unionNs = 0.0;
    double executed = 0.0;
    double participants = 0.0;
    for (const PlanRecord &plan : traced.plans) {
        const Span &planSpan = spans[static_cast<std::size_t>(plan.planSpan)];
        planUs.push_back(
            static_cast<double>(planSpan.endNs - planSpan.startNs) * 1e-3);
        planNs += static_cast<double>(planSpan.endNs - planSpan.startNs);
        for (char participates : plan.participates)
            participants += participates;
        if (plan.executeSpan < 0)
            continue;
        const Span &execute =
            spans[static_cast<std::size_t>(plan.executeSpan)];
        const auto it = children.find(plan.executeSpan);
        const int64_t covered =
            it == children.end()
                ? 0
                : unionLengthNs(it->second, execute.startNs, execute.endNs);
        executeUs.push_back(
            static_cast<double>(execute.endNs - execute.startNs) * 1e-3);
        executeSelfUs.push_back(
            static_cast<double>(execute.endNs - execute.startNs - covered) *
            1e-3);
        unionNs += static_cast<double>(covered);
        executed += 1.0;
    }
    const double perExecuted = executed > 0.0 ? 1.0 / executed : 0.0;
    const double docsScored = static_cast<double>(work.docsScored);
    const double docsSkipped = static_cast<double>(work.docsSkipped);
    const double blocksDecoded = static_cast<double>(work.blocksDecoded);
    const double blocksSkipped = static_cast<double>(work.blocksSkipped);

    add("index.search_calls_per_query",
        static_cast<double>(traced.calls.size()) * perExecuted, "count");
    add("index.search_us_p50", median(searchUs), "us");
    add("index.search_us_p99", quantile(searchUs, 0.99), "us");
    add("index.ns_per_doc_scored",
        docsScored > 0.0 ? searchNs / docsScored : 0.0, "ns");
    add("index.docs_scored_per_query", docsScored * perExecuted, "count");
    add("index.skip_share",
        docsScored + docsSkipped > 0.0
            ? docsSkipped / (docsScored + docsSkipped)
            : 0.0,
        "share");
    add("index.blocks_decoded_per_query", blocksDecoded * perExecuted,
        "count");
    add("index.blocks_skipped_share",
        blocksDecoded + blocksSkipped > 0.0
            ? blocksSkipped / (blocksDecoded + blocksSkipped)
            : 0.0,
        "share");

    add("engine.execute_us_p50", median(executeUs), "us");
    add("engine.execute_us_p99", quantile(executeUs, 0.99), "us");
    add("engine.self_us_p50", median(executeSelfUs), "us");
    add("engine.fanout_parallelism", unionNs > 0.0 ? searchNs / unionNs : 0.0,
        "ratio");
    add("engine.anytime_reruns_per_query",
        static_cast<double>(capped) * perExecuted, "count");
    add("engine.isns_per_query",
        traced.plans.empty()
            ? 0.0
            : participants / static_cast<double>(traced.plans.size()),
        "count");

    // Simulated ISN spans from the engine's QueryTracer.
    std::vector<double> queueWaitMs;
    std::vector<double> serviceMs;
    double isnSpans = 0.0;
    double truncated = 0.0;
    double boosted = 0.0;
    double ganged = 0.0;
    for (const cottage::QueryTraceRecord &record : traced.isnRecords)
        for (const cottage::IsnSpan &span : record.isns) {
            queueWaitMs.push_back(span.queueWaitSeconds * 1e3);
            serviceMs.push_back(
                (span.serviceFinishSeconds - span.serviceStartSeconds) * 1e3);
            isnSpans += 1.0;
            truncated += span.completed ? 0.0 : 1.0;
            boosted += span.boosted ? 1.0 : 0.0;
            ganged += span.cores > 1 ? 1.0 : 0.0;
        }
    const double perIsnSpan = isnSpans > 0.0 ? 1.0 / isnSpans : 0.0;
    const cottage::ClusterSim &cluster = experiment.cluster();
    double utilisation = 0.0;
    for (cottage::ShardId s = 0; s < cluster.numIsns(); ++s)
        utilisation += cluster.isn(s).busySeconds() /
                       (traced.out.windowSeconds *
                        static_cast<double>(cluster.isn(s).workers()));
    add("sim.queue_wait_ms_p50", median(queueWaitMs), "ms");
    add("sim.queue_wait_ms_p99", quantile(queueWaitMs, 0.99), "ms");
    add("sim.service_ms_p50", median(serviceMs), "ms");
    add("sim.isn_utilization",
        utilisation / static_cast<double>(cluster.numIsns()), "share");
    add("sim.truncated_share", truncated * perIsnSpan, "share");
    add("sim.boosted_share", boosted * perIsnSpan, "share");
    add("sim.gang_share", ganged * perIsnSpan, "share");

    const double hostNs = traced.out.hostSeconds * 1e9;
    const double planP50 = median(planUs);
    add("policy.plan_us_p50", planP50, "us");
    add("policy.plan_us_p99", quantile(planUs, 0.99), "us");
    add("policy.plan_share", hostNs > 0.0 ? planNs / hostNs : 0.0, "share");

    PredictorLayer predictor;
    if (auto *cottagePolicy = dynamic_cast<cottage::CottagePolicy *>(&policy)) {
        predictor = predictorLayer(experiment, *cottagePolicy, traced);
        predictor.hostToCharged =
            planP50 /
            (experiment.bank().inferenceOverheadSeconds() * 1e6);
    }
    add("nn.inference_us_per_query", predictor.inferenceUs, "us");
    add("predict.features_us_per_query", predictor.featuresUs, "us");
    add("core.budget_us_per_query", predictor.budgetUs, "us");
    add("policy.host_to_charged", predictor.hostToCharged, "ratio");
    add("predict.latency_underpredict_share", predictor.underpredictedShare,
        "share");
    add("predict.quality_miss_share", predictor.qualityMissShare, "share");

    const double shed = static_cast<double>(std::count(
        traced.out.outcomes.begin(), traced.out.outcomes.end(),
        ServingOutcome::Shed));
    const double serveSelfNs =
        traced.serveSeconds * 1e9 - planNs - unionNs;
    add("serve.result_cache_hit_rate", traced.out.resultCacheHitRate,
        "share");
    add("serve.stats_cache_hit_rate", traced.out.statsCacheHitRate, "share");
    add("serve.shed_share", offered > 0.0 ? shed / offered : 0.0, "share");
    add("serve.degraded_share",
        offered > 0.0 ? static_cast<double>(traced.out.degraded) / offered
                      : 0.0,
        "share");
    add("serve.interactive_slo_attainment",
        traced.out.interactiveSloAttainment, "share");
    add("serve.self_us_per_query",
        workload.serve && offered > 0.0 ? serveSelfNs * 1e-3 / offered : 0.0,
        "us");
    add("serve.arrival_prep_ms", traced.arrivalPrepSeconds * 1e3, "ms");

    const double tracedQps = offered / traced.out.replayCpuSeconds;
    add("obs.traced_slowdown", untracedQps / tracedQps - 1.0, "ratio");
    return metrics;
}

/**
 * Reference top-K checksum of the exhaustive workloads: every query's
 * global top-K under the other workload's evaluator (flat postings for
 * the block workload and vice versa). Rank safety makes it equal to the
 * measured replay's checksum.
 */
uint64_t
crossEvaluatorChecksum(Experiment &experiment, const char *evaluatorName)
{
    const std::unique_ptr<cottage::Evaluator> evaluator =
        Experiment::makeEvaluator(evaluatorName);
    const DistributedEngine reference(experiment.index(), experiment.cluster(),
                                      *evaluator, experiment.config().work);
    const QueryTrace &trace = experiment.trace(TraceFlavor::Wikipedia);
    std::vector<std::vector<ScoredDoc>> rankings(trace.size());
    cottage::ThreadPool::global().parallelFor(
        0, trace.size(), [&](std::size_t q) {
            rankings[q] = reference.globalTopK(trace.query(q));
        });
    Fnv fnv;
    for (const std::vector<ScoredDoc> &ranking : rankings)
        fnv.ranking(ranking);
    return fnv.hash();
}

std::string
hex(uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

int
run(int argc, char **argv)
{
    const int64_t processStart = nowNs();
    const cottage::CliFlags flags(argc, argv);
    const std::string workloadName = flags.getString("workload", "");
    const Workload *workload = nullptr;
    for (const Workload &candidate : kWorkloads)
        if (workloadName == candidate.name)
            workload = &candidate;
    const int64_t seedFlag = flags.getInt("seed", -1);
    const double runSeconds = flags.getDouble("seconds", 0.0);
    const int64_t traceFlag = flags.getInt("trace", -1);
    if (workload == nullptr || seedFlag < 0 || !(runSeconds > 0.0) ||
        (traceFlag != 0 && traceFlag != 1)) {
        std::cerr << "usage: perfbench --workload=NAME --seed=N "
                     "--seconds=S --trace=0|1 [--spans-out=FILE]\n";
        return 2;
    }
    const uint64_t seed = static_cast<uint64_t>(seedFlag);
    const bool trace = traceFlag == 1;
    cottage::setLogLevel(cottage::LogLevel::Warn);

    const ExperimentConfig config = makeConfig(*workload, seed);
    const ScenarioConfig scenario = makeScenario(seed);
    const std::vector<TraceFlavor> flavors = flavorsOf(*workload, scenario);

    // One set-up per run: at 7-20 s it is the longest phase of the run,
    // and repeating it would double the length of every run.
    SetupTimes setup;
    const std::unique_ptr<Experiment> experiment =
        setUp(*workload, config, flavors, processStart, setup);
    progress("set-up", setup.total);

    const std::unique_ptr<cottage::Policy> policy =
        experiment->makePolicy(workload->policy);
    std::vector<std::string> violations;

    // Untraced passes for the measured time (a traced run splits its
    // time between untraced and traced passes).
    const double untracedSeconds = trace ? runSeconds / 2 : runSeconds;
    std::vector<double> qps;
    std::vector<double> wallQps;
    PassOutput first;
    uint64_t digest = 0;
    uint64_t attempted = 0;
    double lastPassSeconds = 0.0;
    const int64_t measureStart = nowNs();
    do {
        PassOutput pass =
            measuredPass(*experiment, *policy, *workload, scenario);
        lastPassSeconds = pass.hostSeconds;
        attempted += pass.responses.size();
        qps.push_back(static_cast<double>(pass.responses.size()) /
                      pass.replayCpuSeconds);
        wallQps.push_back(static_cast<double>(pass.responses.size()) /
                          pass.hostSeconds);
        const uint64_t passDigest = simDigest(pass);
        if (qps.size() == 1) {
            digest = passDigest;
            first = std::move(pass);
        } else if (passDigest != digest) {
            violations.push_back("simulated digest differs between passes");
        }
        // Passes run back to back; none starts that would end past the
        // measuring time, but the first always runs.
    } while (seconds(nowNs() - measureStart) + lastPassSeconds <=
             untracedSeconds);
    const double hostQps = median(qps);
    progress("untraced passes", static_cast<double>(qps.size()));
    const SimMetrics sim = simMetrics(first);
    const uint64_t checksum = topKChecksum(first.responses);

    // Output checks.
    uint64_t failed = 0;
    if (sim.offered != sim.answered + sim.shed)
        violations.push_back("offered != answered + shed");
    std::size_t expected = 0;
    if (workload->serve)
        for (const cottage::TenantSpec &tenant : scenario.tenants)
            expected += experiment->trace(tenant.flavor).size();
    else
        expected = experiment->trace(TraceFlavor::Wikipedia).size();
    if (first.responses.size() != expected || first.responses.empty())
        violations.push_back("response count differs from the trace");
    if (isExhaustive(*workload)) {
        for (const QueryMeasurement &m : first.responses)
            failed += m.precisionAtK == 1.0 && m.ndcgAtK == 1.0 ? 0 : 1;
        if (sim.p10 != 1.0 || sim.ndcg10 != 1.0)
            violations.push_back("exhaustive p10/ndcg10 differ from 1.0");
    }

    std::vector<Metric> metrics;
    std::ostringstream report;
    report << "workload " << workload->name << " seed " << seed
           << " threads " << kHostThreads << "\nhost_qps per pass:";
    for (double passQps : qps)
        report << ' ' << passQps;
    report << "\nwall-clock queries/s per pass:";
    for (double passQps : wallQps)
        report << ' ' << passQps;
    report << "\n"
           << "offered " << sim.offered << " answered " << sim.answered
           << " shed " << sim.shed << " topk_checksum " << hex(checksum)
           << " sim_digest " << hex(digest) << "\n";
    if (!trace) {
        metrics = {
            {"setup_s", setup.total, "s"},
            {"host_qps", hostQps, "queries/s"},
            {"peak_rss_mb", peakRssMiB(), "MiB"},
            {"sim_latency_ms_p50", sim.latencyP50Ms, "ms"},
            {"sim_latency_ms_p99", sim.latencyP99Ms, "ms"},
            {"slo_attainment", sim.sloAttainment, "share"},
            {"answered_share",
             static_cast<double>(sim.answered) /
                 static_cast<double>(sim.offered),
             "share"},
            {"p10", sim.p10, "share"},
            {"ndcg10", sim.ndcg10, "share"},
            {"sim_energy_mj_per_query", sim.energyMjPerQuery, "mJ"},
        };
        report << "latency samples " << sim.offered << " (p99 has "
               << sim.offered / 100 << " beyond it)\n";
    } else {
        TracedPass traced;
        tracedPass(*experiment, *policy, *workload, scenario, traced);
        attempted += traced.out.responses.size();
        progress("traced pass", traced.out.hostSeconds);
        const uint64_t tracedDigest = simDigest(traced.out);
        if (tracedDigest != digest)
            violations.push_back(
                "simulated digest differs between untraced and traced runs");
        if (isExhaustive(*workload)) {
            const char *other =
                std::strcmp(workload->evaluator, "bmw") == 0 ? "maxscore"
                                                             : "bmw";
            const uint64_t reference =
                crossEvaluatorChecksum(*experiment, other);
            if (reference != checksum)
                violations.push_back(
                    std::string("top-K checksum differs from ") + other);
            report << "topk_checksum under " << other << ' '
                   << hex(reference) << "\n";
        }
        report << "traced_sim_digest " << hex(tracedDigest) << " spans "
               << traced.spans.spans().size() << "\n";
        metrics = layerMetrics(*experiment, *policy, *workload, traced, setup,
                               hostQps);
        progress("per-layer metrics", 0.0);
        const std::string spansOut = flags.getString("spans-out", "");
        if (!spansOut.empty() && !traced.spans.writeJsonl(spansOut, kSpanDumpQueries))
            violations.push_back("cannot write " + spansOut);
    }
    if (!violations.empty() && failed == 0)
        failed = attempted;

    for (const Metric &metric : metrics)
        report << metric.name << " = " << jsonNumber(metric.value) << ' '
               << metric.unit << "\n";
    for (const std::string &violation : violations)
        report << "CHECK FAILED: " << violation << "\n";
    std::cout << report.str() << "{\"correct\": "
              << (violations.empty() ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(metrics) << "}" << std::endl;
    return violations.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
