#include "harness/experiment.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>

#include "core/cottage_isn_policy.h"
#include "core/cottage_without_ml_policy.h"
#include "engine/parallel_search.h"
#include "core/oracle_policy.h"
#include "core/slo_policy.h"
#include "index/bmw_evaluator.h"
#include "index/exhaustive_evaluator.h"
#include "index/maxscore_evaluator.h"
#include "index/wand_evaluator.h"
#include "policy/exhaustive_policy.h"
#include "serve/arrivals.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cottage {

namespace {

template <typename E>
std::unique_ptr<Evaluator>
construct()
{
    return std::make_unique<E>();
}

/** Every strategy makeEvaluator() and --evaluator accept, by name. */
constexpr struct
{
    const char *name;
    std::unique_ptr<Evaluator> (*make)();
} kEvaluators[] = {{"exhaustive", construct<ExhaustiveEvaluator>},
                   {"maxscore", construct<MaxScoreEvaluator>},
                   {"wand", construct<WandEvaluator>},
                   {"bmw", construct<BmwEvaluator>}};

/** Every policy makePolicy() and --policy accept, by name. */
constexpr struct
{
    const char *name;
    std::unique_ptr<Policy> (*make)(Experiment &);
} kPolicies[] = {
    {"exhaustive",
     [](Experiment &) -> std::unique_ptr<Policy> {
         return std::make_unique<ExhaustivePolicy>();
     }},
    {"aggregation",
     [](Experiment &e) -> std::unique_ptr<Policy> {
         return std::make_unique<AggregationPolicy>(e.config().aggregation);
     }},
    {"rank-s",
     [](Experiment &e) -> std::unique_ptr<Policy> {
         return std::make_unique<RankSPolicy>(e.corpus(), e.index(),
                                              e.config().rankS);
     }},
    {"taily",
     [](Experiment &e) -> std::unique_ptr<Policy> {
         return std::make_unique<TailyPolicy>(e.index(), e.config().taily);
     }},
    {"cottage",
     [](Experiment &e) -> std::unique_ptr<Policy> {
         return std::make_unique<CottagePolicy>(e.bank(),
                                                e.config().cottage);
     }},
    {"cottage-isn",
     [](Experiment &e) -> std::unique_ptr<Policy> {
         return std::make_unique<CottageIsnPolicy>(e.bank());
     }},
    {"cottage-without-ml",
     [](Experiment &e) -> std::unique_ptr<Policy> {
         return std::make_unique<CottageWithoutMlPolicy>(
             e.bank(), e.index(), e.config().cottage, e.config().taily);
     }},
    {"oracle",
     [](Experiment &) -> std::unique_ptr<Policy> {
         return std::make_unique<OraclePolicy>();
     }},
    {"slo-dvfs",
     [](Experiment &e) -> std::unique_ptr<Policy> {
         return std::make_unique<SloDvfsPolicy>(e.bank(),
                                                e.config().sloSeconds);
     }}};

} // namespace

ExperimentConfig::ExperimentConfig()
{
    // Scaled-down corpus: 60K documents standing in for the paper's
    // 34M-doc Wikipedia dump (see DESIGN.md, substitution table).
    corpus.numDocs = 60000;
    corpus.vocabSize = 40000;
    corpus.meanDocLength = 160.0;
    corpus.numTopics = 64;
    corpus.seed = 42;

    shards.numShards = 16;
    shards.topK = 10;
    shards.partition = PartitionPolicy::Topical;
    shards.seed = 1;

    // The WorkModel defaults are already calibrated for this corpus
    // scale (see work_model.h).
}

ExperimentConfig
ExperimentConfig::fromFlags(const CliFlags &flags)
{
    ExperimentConfig config;
    // Millisecond flags over fields kept in seconds.
    const auto millis = [&flags](const char *name, double seconds) {
        return flags.getDouble(name, seconds * 1e3) * 1e-3;
    };
    // Operator-facing validation: a typo'd count, width or name should
    // print a usage hint and exit 2, not dump core via an assertion,
    // and a negative count must not wrap through the cast.
    // A count kept in a uint32_t field: past the field's width it
    // would wrap through the cast too (2^32 + 100 would run as 100).
    const auto count32 = [&flags](const char *name, uint32_t fallback,
                                  int64_t minimum) {
        return static_cast<uint32_t>(
            getIntInRange(flags, name, fallback, minimum,
                          std::numeric_limits<uint32_t>::max()));
    };
    config.corpus.numDocs = count32("docs", config.corpus.numDocs, 1);
    // QueryTrace::generate needs more terms than its 24 stopword ranks
    // plus 4 (Corpus::generate needs only 2).
    config.corpus.vocabSize = count32("vocab", config.corpus.vocabSize, 29);
    config.corpus.seed =
        static_cast<uint64_t>(flags.getInt("seed", config.corpus.seed));
    config.shards.numShards =
        count32("shards", config.shards.numShards, 1);
    config.shards.topK = static_cast<std::size_t>(getIntAtLeast(
        flags, "k", static_cast<int64_t>(config.shards.topK), 1));
    config.traceQueries = static_cast<uint64_t>(getIntAtLeast(
        flags, "queries", static_cast<int64_t>(config.traceQueries), 1));
    config.arrivalQps = getPositiveDouble(flags, "qps", config.arrivalQps);
    config.traceSeed = static_cast<uint64_t>(
        flags.getInt("trace-seed", config.traceSeed));
    config.trainQueries = static_cast<uint64_t>(
        getIntAtLeast(flags, "train-queries",
                      static_cast<int64_t>(config.trainQueries), 1));
    config.trainSeed = static_cast<uint64_t>(
        flags.getInt("train-seed", config.trainSeed));
    config.train.iterations = static_cast<std::size_t>(
        getIntAtLeast(flags, "iterations",
                      static_cast<int64_t>(config.train.iterations), 0));
    config.cottage.budgetSlack =
        flags.getDouble("budget-slack", config.cottage.budgetSlack);
    config.cottage.participationThreshold = flags.getDouble(
        "participation-threshold", config.cottage.participationThreshold);
    config.cottage.halfThreshold =
        flags.getDouble("half-threshold", config.cottage.halfThreshold);
    config.taily.rankingDepth =
        flags.getDouble("taily-depth", config.taily.rankingDepth);
    config.taily.docCutoff =
        flags.getDouble("taily-cutoff", config.taily.docCutoff);
    config.power.busyWattsAtReference = flags.getDouble(
        "busy-watts", config.power.busyWattsAtReference);
    config.sloSeconds = millis("slo-ms", config.sloSeconds);
    config.coresPerIsn = count32("cores-per-isn", config.coresPerIsn, 1);
    config.isnCores = count32("isn-cores", config.isnCores, 1);
    config.cottage.maxCoresPerQuery = config.isnCores;
    config.speedup.serialFraction = flags.getDouble(
        "speedup-serial-fraction", config.speedup.serialFraction);
    if (config.speedup.serialFraction < 0.0)
        cliError("flag --speedup-serial-fraction must be >= 0",
                 "--speedup-serial-fraction=A with 0 <= A (Amdahl "
                 "serial share)");
    config.cottage.isnPowerCapWatts = getPositiveDouble(
        flags, "isn-power-cap", config.cottage.isnPowerCapWatts);
    config.evaluator = flags.getString("evaluator", config.evaluator);
    if (std::none_of(std::begin(kEvaluators), std::end(kEvaluators),
                     [&config](const auto &entry) {
                         return config.evaluator == entry.name;
                     }))
        cliError("unknown evaluator: " + config.evaluator,
                 "--evaluator=NAME with NAME one of exhaustive, maxscore, "
                 "wand, bmw");
    config.shards.blockSize =
        count32("block-size", config.shards.blockSize, 1);
    // 0 keeps the default pool; a negative count would wrap through
    // the cast into billions of workers.
    config.threads = count32("threads", config.threads, 0);
    config.anytime = flags.getBool("anytime", config.anytime);
    config.traceOut = flags.getString("trace-out", config.traceOut);
    config.metricsOut = flags.getString("metrics-out", config.metricsOut);
    config.powerWindowSeconds =
        getPositiveDouble(flags, "power-window-ms",
                          config.powerWindowSeconds * 1e3) *
        1e-3;
    config.serving.enabled =
        flags.getBool("serve", config.serving.enabled);
    AdmissionConfig &admission = config.serving.admission;
    admission.shedBacklogSeconds =
        millis("shed-backlog-ms", admission.shedBacklogSeconds);
    admission.degradeBacklogSeconds =
        millis("degrade-backlog-ms", admission.degradeBacklogSeconds);
    // The ladder degrades before it sheds, so the shed line may equal
    // the degrade line but never undercut it.
    if (admission.shedBacklogSeconds < admission.degradeBacklogSeconds)
        cliError("flag --shed-backlog-ms must be >= --degrade-backlog-ms",
                 "--shed-backlog-ms=S --degrade-backlog-ms=D with S >= D");
    admission.overloadBudgetSeconds =
        millis("overload-budget-ms", admission.overloadBudgetSeconds);
    // Cache capacities: 0 legitimately disables a cache, but a
    // negative value would wrap through the size_t cast into a
    // near-infinite capacity — catch it at the flag boundary.
    config.serving.resultCacheCapacity = static_cast<std::size_t>(
        getIntAtLeast(flags, "result-cache",
                      static_cast<int64_t>(
                          config.serving.resultCacheCapacity),
                      0));
    config.serving.statsCacheCapacity = static_cast<std::size_t>(
        getIntAtLeast(flags, "postings-cache",
                      static_cast<int64_t>(
                          config.serving.statsCacheCapacity),
                      0));
    return config;
}

void
ExperimentConfig::print(std::ostream &out) const
{
    out << strformat(
        "config: docs=%u vocab=%u shards=%u k=%zu queries=%llu qps=%.1f "
        "train-queries=%llu iterations=%zu corpus-seed=%llu "
        "trace-seed=%llu evaluator=%s block-size=%u threads=%u "
        "anytime=%d isn-cores=%u\n",
        corpus.numDocs, corpus.vocabSize, shards.numShards, shards.topK,
        static_cast<unsigned long long>(traceQueries), arrivalQps,
        static_cast<unsigned long long>(trainQueries), train.iterations,
        static_cast<unsigned long long>(corpus.seed),
        static_cast<unsigned long long>(traceSeed), evaluator.c_str(),
        shards.blockSize,
        threads == 0 ? ThreadPool::defaultThreads() : threads,
        anytime ? 1 : 0, isnCores);
}

std::unique_ptr<Evaluator>
Experiment::makeEvaluator(const std::string &name)
{
    for (const auto &entry : kEvaluators)
        if (name == entry.name)
            return entry.make();
    fatal("unknown evaluator: " + name);
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), evaluator_(makeEvaluator(config_.evaluator))
{
    if (config_.threads > 0)
        ThreadPool::setGlobalThreads(config_.threads);
    Stopwatch watch;
    corpus_ = std::make_unique<Corpus>(Corpus::generate(config_.corpus));
    index_ = std::make_unique<ShardedIndex>(*corpus_, config_.shards);
    // Intra-query gangs need at least isnCores workers per ISN to be
    // dispatchable, so the wider of the two knobs wins.
    cluster_ = std::make_unique<ClusterSim>(
        config_.shards.numShards, FrequencyLadder(), config_.power,
        config_.network,
        std::max(config_.coresPerIsn, config_.isnCores));
    cluster_->setSpeedupCurve(config_.speedup);
    engine_ = std::make_unique<DistributedEngine>(*index_, *cluster_,
                                                  *evaluator_, config_.work,
                                                  config_.anytime);
    engine_->setDefaultIsnCores(config_.isnCores);
    logInfo(strformat("experiment stack built in %.1fs (%u docs, %u shards)",
                      watch.elapsedSeconds(), corpus_->numDocs(),
                      index_->numShards()));
}

Experiment::~Experiment() = default;

const PredictorBank &
Experiment::bank()
{
    if (!bank_) {
        Stopwatch watch;
        bank_ = std::make_unique<PredictorBank>(
            *index_, *evaluator_, config_.work, trainTrace(), config_.train);
        logInfo(strformat("predictor bank trained in %.1fs (%zu queries)",
                          watch.elapsedSeconds(),
                          static_cast<std::size_t>(config_.trainQueries)));

        // Parallel-work calibration: the latency predictor is trained
        // on sequential work, but a c-core traversal re-scores more
        // candidates (per-slice pruning thresholds warm up
        // independently). Measure the inflation on a training-query
        // prefix with the real parallel driver so the policy's grid
        // search stays conservative at every width it may pick.
        const uint32_t maxCores = std::max(
            config_.isnCores, config_.cottage.maxCoresPerQuery);
        if (maxCores > 1) {
            const QueryTrace &queries = trainTrace();
            const std::size_t sample =
                std::min<std::size_t>(queries.size(), 48);
            const ShardId numShards = index_->numShards();
            std::vector<std::vector<double>> perQuery(
                maxCores, std::vector<double>(sample, 0.0));
            for (uint32_t cores = 1; cores <= maxCores; ++cores) {
                std::vector<double> &cell = perQuery[cores - 1];
                ThreadPool::global().parallelFor(
                    0, sample, [&](std::size_t q) {
                        const std::vector<WeightedTerm> terms =
                            DistributedEngine::weightedTerms(
                                queries.query(q));
                        double cycles = 0.0;
                        for (ShardId s = 0; s < numShards; ++s)
                            cycles += config_.work.cycles(
                                parallelShardSearch(*evaluator_,
                                                    index_->shard(s),
                                                    terms,
                                                    index_->topK(),
                                                    noDocCap, cores)
                                    .work);
                        cell[q] = cycles;
                    });
            }
            // Conservative like the latency predictor's bucket upper
            // edges: the factor is the 90th-percentile per-query
            // inflation ratio, not the aggregate mean — the mean
            // under-predicts the heavy tail of queries whose per-slice
            // thresholds warm up slowest, and those are exactly the
            // ones a tight budget truncates.
            std::vector<double> factors(maxCores, 1.0);
            for (uint32_t cores = 2; cores <= maxCores; ++cores) {
                std::vector<double> ratios;
                ratios.reserve(sample);
                for (std::size_t q = 0; q < sample; ++q)
                    if (perQuery[0][q] > 0.0)
                        ratios.push_back(perQuery[cores - 1][q] /
                                         perQuery[0][q]);
                if (ratios.empty())
                    continue;
                std::sort(ratios.begin(), ratios.end(),
                          std::less<double>());
                const std::size_t idx =
                    (ratios.size() - 1) * 9 / 10;
                factors[cores - 1] = std::max(1.0, ratios[idx]);
            }
            bank_->setCoreCycleFactors(factors);
            logInfo(strformat(
                "core cycle factors calibrated over %zu queries "
                "(factor at %u cores: %.3f)",
                sample, maxCores, factors[maxCores - 1]));
        }
    }
    return *bank_;
}

const QueryTrace &
Experiment::trainTrace()
{
    if (!trainTrace_) {
        TraceConfig tc;
        tc.flavor = TraceFlavor::Wikipedia;
        tc.numQueries = config_.trainQueries;
        tc.vocabSize = config_.corpus.vocabSize;
        tc.arrivalQps = config_.arrivalQps;
        tc.seed = config_.trainSeed;
        trainTrace_ = std::make_unique<QueryTrace>(QueryTrace::generate(tc));
    }
    return *trainTrace_;
}

const QueryTrace &
Experiment::trace(TraceFlavor flavor)
{
    auto it = traces_.find(flavor);
    if (it == traces_.end()) {
        TraceConfig tc;
        tc.flavor = flavor;
        tc.numQueries = config_.traceQueries;
        tc.vocabSize = config_.corpus.vocabSize;
        tc.arrivalQps = config_.arrivalQps;
        tc.seed = config_.traceSeed + static_cast<uint64_t>(flavor);
        it = traces_.emplace(flavor, QueryTrace::generate(tc)).first;
    }
    return it->second;
}

const std::vector<std::vector<ScoredDoc>> &
Experiment::groundTruth(TraceFlavor flavor)
{
    auto it = truths_.find(flavor);
    if (it == truths_.end()) {
        Stopwatch watch;
        const QueryTrace &queryTrace = trace(flavor);
        // Each query's exhaustive top-K is independent: fan the trace
        // out over the pool, one dedicated slot per query. globalTopK
        // itself fans out over shards; nested parallelism is fine
        // because waiting pool threads help.
        std::vector<std::vector<ScoredDoc>> truth(queryTrace.size());
        ThreadPool::global().parallelFor(
            0, queryTrace.size(), [&](std::size_t q) {
                truth[q] = engine_->globalTopK(queryTrace.query(q));
            });
        it = truths_.emplace(flavor, std::move(truth)).first;
        logInfo(strformat("ground truth for %s built in %.1fs",
                          traceFlavorName(flavor), watch.elapsedSeconds()));
    }
    return it->second;
}

void
Experiment::requirePolicyName(const std::string &name)
{
    std::string names;
    for (const auto &entry : kPolicies) {
        if (name == entry.name)
            return;
        names += names.empty() ? "" : ", ";
        names += entry.name;
    }
    cliError("unknown policy: " + name,
             "--policy=NAME with NAME one of " + names);
}

std::unique_ptr<Policy>
Experiment::makePolicy(const std::string &name)
{
    for (const auto &entry : kPolicies)
        if (name == entry.name)
            return entry.make(*this);
    fatal("unknown policy: " + name);
}

ServingRunResult
Experiment::serveTrace(Policy &policy, const QueryTrace &queryTrace,
                       const std::vector<std::vector<ScoredDoc>> &truth,
                       const ServingConfig &serving)
{
    // Observability: attach a fresh tracer/registry per run when the
    // config asks for them. Both hooks only observe — with traceOut
    // and metricsOut unset (the default) nothing is attached and the
    // run is byte-identical to an uninstrumented build
    // (tests/test_parallel.cc proves it).
    std::shared_ptr<QueryTracer> tracer;
    if (!config_.traceOut.empty()) {
        tracer = std::make_shared<QueryTracer>();
        // Stream records to disk as they are produced (flushing per
        // batch) so a mid-run abort keeps every completed batch; the
        // file contents are byte-identical to the former end-of-run
        // dump, the lines just land incrementally.
        if (!traceFile_) {
            traceFile_ =
                std::make_unique<std::ofstream>(config_.traceOut);
            if (!*traceFile_)
                fatal("cannot open " + config_.traceOut);
        }
        tracer->streamTo(traceFile_.get(), policy.name(),
                         queryTrace.name());
        engine_->setTracer(tracer.get());
    }
    std::shared_ptr<MetricsRegistry> metrics;
    if (!config_.metricsOut.empty()) {
        metrics = std::make_shared<MetricsRegistry>();
        metrics->configureWindows(config_.powerWindowSeconds,
                                  config_.power.idleWatts);
    }

    ServingFrontEnd frontEnd(*engine_, serving);
    ServingRunResult result;
    result.summary = frontEnd.serve(policy, queryTrace, truth, metrics.get());
    result.measurements = frontEnd.takeMeasurements();
    engine_->setTracer(nullptr);

    if (tracer) {
        tracer->flushSink();
        tracer->streamTo(nullptr, "", "");
        result.trace = std::move(tracer);
    }
    if (metrics) {
        // End-of-run cluster state: per-ISN utilisation over the
        // run's window (until the last ISN drains).
        const double window = result.summary.run.durationSeconds;
        Histogram &utilisation =
            metrics->histogram("isn_utilization", 0.0, 1.0, 20, false);
        for (ShardId s = 0; s < cluster_->numIsns(); ++s)
            utilisation.add(cluster_->isn(s).busySeconds() / window);
        if (!metricsFile_) {
            metricsFile_ =
                std::make_unique<std::ofstream>(config_.metricsOut);
            if (!*metricsFile_)
                fatal("cannot open " + config_.metricsOut);
        }
        *metricsFile_ << metrics->toJson(result.summary.run.policy,
                                         result.summary.run.trace)
                      << '\n';
        metricsFile_->flush();
        result.metrics = std::move(metrics);
    }
    return result;
}

RunResult
Experiment::run(Policy &policy, TraceFlavor flavor)
{
    // Replay is serving with the front-end off: no cache, no
    // admission, one tenant. Each measurement (ranking included) is
    // moved out of its record, never copied.
    ServingRunResult served = serveTrace(policy, trace(flavor),
                                         groundTruth(flavor), ServingConfig{});
    RunResult result;
    result.summary = std::move(served.summary.run);
    result.measurements.reserve(served.measurements.size());
    for (ServingMeasurement &record : served.measurements)
        result.measurements.push_back(std::move(record.measurement));
    result.trace = std::move(served.trace);
    result.metrics = std::move(served.metrics);
    return result;
}

RunResult
Experiment::run(const std::string &policyName, TraceFlavor flavor)
{
    const std::unique_ptr<Policy> policy = makePolicy(policyName);
    return run(*policy, flavor);
}

ServingRunResult
Experiment::runServing(Policy &policy, TraceFlavor flavor,
                       double offeredQps)
{
    // Ground truth is computed on the base trace; the re-timed trace
    // keeps query content and positions, so truth stays aligned.
    const auto &truth = groundTruth(flavor);
    const QueryTrace served =
        retimeTrace(trace(flavor), offeredQps, config_.serving.retimeSeed);
    return serveTrace(policy, served, truth, config_.serving);
}

ServingRunResult
Experiment::runServing(const std::string &policyName, TraceFlavor flavor,
                       double offeredQps)
{
    const std::unique_ptr<Policy> policy = makePolicy(policyName);
    return runServing(*policy, flavor, offeredQps);
}

ScenarioRunResult
Experiment::runScenario(Policy &policy, const ScenarioConfig &scenario)
{
    COTTAGE_CHECK_MSG(!scenario.tenants.empty(),
                      "a scenario needs at least one tenant");

    // Shape each tenant's base trace under its private arrival spec,
    // then merge in the fixed (arrival, tenant, id) order.
    std::vector<QueryTrace> shaped;
    shaped.reserve(scenario.tenants.size());
    for (const TenantSpec &tenant : scenario.tenants)
        shaped.push_back(
            shapeArrivals(trace(tenant.flavor), tenant.arrivals));
    MergedArrivals merged = mergeTenantArrivals(shaped);
    merged.trace.setName("scenario:" + scenario.name);

    // Merged ground truth indexed by merged position: shaping keeps
    // base-trace positions, so each source (tenant, position) maps
    // straight into that flavor's cached truth.
    std::vector<std::vector<ScoredDoc>> truth;
    truth.reserve(merged.sources.size());
    for (const auto &source : merged.sources) {
        const TraceFlavor flavor = scenario.tenants[source.first].flavor;
        truth.push_back(groundTruth(flavor)[source.second]);
    }

    ServingConfig serving = config_.serving;
    serving.enabled = true;
    serving.tenants.clear();
    for (const TenantSpec &tenant : scenario.tenants) {
        TenantSlo slo = tenant.slo;
        slo.name = tenant.name;
        serving.tenants.push_back(std::move(slo));
    }

    // Hostile shape on, serve, shape off: the shape models hardware,
    // so it must survive the front-end's cluster reset but never leak
    // into later runs.
    cluster_->applyShape(scenario.shape);
    ScenarioRunResult result =
        serveTrace(policy, merged.trace, truth, serving);
    cluster_->clearShape();
    return result;
}

ScenarioRunResult
Experiment::runScenario(const std::string &policyName,
                        const ScenarioConfig &scenario)
{
    const std::unique_ptr<Policy> policy = makePolicy(policyName);
    return runScenario(*policy, scenario);
}

} // namespace cottage
