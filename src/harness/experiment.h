/**
 * @file
 * The experiment harness: one object that owns the whole reproduction
 * stack (corpus -> shards -> cluster -> engine -> predictors ->
 * policies) and replays query traces through it. Every bench binary
 * and example builds on this.
 */

#ifndef COTTAGE_HARNESS_EXPERIMENT_H
#define COTTAGE_HARNESS_EXPERIMENT_H

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cottage_policy.h"
#include "engine/distributed_engine.h"
#include "index/evaluator.h"
#include "metrics/run_stats.h"
#include "obs/metrics_registry.h"
#include "obs/query_tracer.h"
#include "policy/aggregation_policy.h"
#include "policy/rank_s_policy.h"
#include "policy/taily_policy.h"
#include "predict/training.h"
#include "serve/scenario.h"
#include "serve/serving.h"
#include "shard/sharded_index.h"
#include "sim/cluster.h"
#include "text/corpus.h"
#include "text/trace.h"
#include "util/cli.h"

namespace cottage {

/** Every knob of a reproduction run, with scaled defaults. */
struct ExperimentConfig
{
    /** Synthetic corpus (default: 60K docs standing in for 34M). */
    CorpusConfig corpus;

    /** Sharding (paper: 16 ISNs, K = 10). */
    ShardedIndexConfig shards;

    /** Evaluation trace length (paper: 10K queries / 1000 s). */
    uint64_t traceQueries = 10000;

    /**
     * Open-loop arrival rate, queries per second. The default drives
     * the 16-ISN cluster to ~40% utilization under exhaustive search —
     * the regime where the replay reproduces the paper's operating
     * points (exhaustive ~13 ms average, ~42 ms p95, ~36 W package).
     */
    double arrivalQps = 350.0;

    /** Seed of the evaluation traces. */
    uint64_t traceSeed = 7;

    /** Training trace length for the predictor bank. */
    uint64_t trainQueries = 2500;

    /** Seed of the training trace (distinct from evaluation). */
    uint64_t trainSeed = 1007;

    /** Predictor training hyper-parameters. */
    PredictorTrainConfig train;

    /** Work-to-cycles cost model. */
    WorkModel work;

    /** Cluster power/network models. */
    PowerModel power;
    NetworkModel network;

    /** Worker cores per ISN. */
    uint32_t coresPerIsn = 1;

    /**
     * Intra-query parallelism (--isn-cores): cores each ISN spans per
     * request by default, and the widest gang Cottage's (cores x
     * frequency) grid may assign (CottageConfig::maxCoresPerQuery
     * follows this flag). 1 (default) is the paper's sequential ISN,
     * byte for byte. Values > 1 implicitly raise coresPerIsn so the
     * gang fits.
     */
    uint32_t isnCores = 1;

    /**
     * Sublinear intra-query speedup curve S(k) installed on every ISN,
     * covering the uncounted parallel overhead (merge, dispatch,
     * imbalance); the counted overhead is in the work counters
     * themselves. serialFraction = 0.08 is the paper-scale
     * assumption until ROADMAP item 4 fits it from a timed gang sweep
     * (BENCH_parallelism.json is untimed and fits nothing).
     */
    SpeedupCurve speedup;

    /**
     * Retrieval strategy every ISN runs: "exhaustive", "maxscore"
     * (default), "wand", or "bmw" (Block-Max WAND over StreamVByte
     * blocks). All are rank-safe, so the measured quality is
     * identical; only the work (and therefore the simulated
     * latency/energy) differs.
     */
    std::string evaluator = "maxscore";

    /**
     * Host worker threads for the parallel shard fan-out and the
     * harness's batch loops (--threads). 0 keeps the current global
     * pool (default: hardware concurrency); 1 is the sequential
     * baseline. This knob changes wall-clock only: every measured
     * quantity is bit-identical at any thread count (see DESIGN.md,
     * "Threading model").
     */
    uint32_t threads = 0;

    /**
     * Anytime partial results (--anytime): a deadline-missing ISN
     * returns its best-so-far top-K, with work prorated to the
     * completed service fraction. Off reverts to the drop-whole-
     * response degradation model (for comparison experiments only).
     */
    bool anytime = true;

    /**
     * Per-query trace output (--trace-out): when non-empty, every
     * run — replay, serving or scenario — appends one JSONL record
     * per executed query (aggregator timeline + per-ISN spans, schema
     * in EXPERIMENTS.md) to this file, and the result's `trace`
     * carries the in-memory records. Cache hits and shed queries
     * never reach the engine, so they leave no record.
     * Empty (default) leaves the tracer detached: the replay is
     * byte-identical to an uninstrumented build.
     */
    std::string traceOut;

    /**
     * Per-run metrics output (--metrics-out): when non-empty, every
     * run appends one JSON object (counters, histograms, windowed
     * power/QPS series) to this file, and RunResult::metrics carries
     * the registry. Empty (default) disables all metric recording.
     */
    std::string metricsOut;

    /**
     * Window width of the metrics power/QPS time series
     * (--power-window-ms; seconds here, default 100 ms).
     */
    double powerWindowSeconds = 0.1;

    /** Baseline policy knobs. */
    TailyConfig taily;
    RankSConfig rankS;
    AggregationPolicyConfig aggregation;

    /** Cottage knobs. */
    CottageConfig cottage;

    /**
     * Serving-mode front-end knobs (--serve, --shed-backlog-ms,
     * --degrade-backlog-ms, --overload-budget-ms, --result-cache,
     * --postings-cache). runServing() honours them as set, `enabled`
     * included (off by default: a transparent front-end, i.e. replay
     * at the re-timed arrivals). run() ignores them and always serves
     * with the front-end off, so plain replay stays byte-identical
     * whatever these are set to; runScenario() turns it on.
     */
    ServingConfig serving;

    /**
     * Fixed deadline of the slo-dvfs baseline (the "budget given a
     * priori" regime of prior power-management work).
     */
    double sloSeconds = 20e-3;

    ExperimentConfig();

    /**
     * Apply command-line overrides (--docs=, --shards=, --queries=,
     * --qps=, --trace-seed=, --train-queries=, --train-seed=,
     * --iterations=, --seed=, --trace-out=, --metrics-out=,
     * --power-window-ms=, ...). --seed reseeds the corpus only;
     * --trace-seed/--train-seed vary the replay and training traces
     * independently.
     */
    static ExperimentConfig fromFlags(const CliFlags &flags);

    /** Echo the knobs that matter for reproducibility. */
    void print(std::ostream &out) const;
};

/** One policy's replay output. */
struct RunResult
{
    std::vector<QueryMeasurement> measurements;
    RunSummary summary;

    /**
     * Per-query trace records of the run (null unless the experiment
     * was configured with traceOut). Shared so results stay copyable.
     */
    std::shared_ptr<const QueryTracer> trace;

    /**
     * The run's metrics registry (null unless metricsOut was set):
     * engine counters/histograms plus the harness's per-ISN
     * utilisation histogram and windowed power/QPS series.
     */
    std::shared_ptr<const MetricsRegistry> metrics;
};

/**
 * One policy's serving-mode or scenario output. In a scenario the
 * summary's tenants vector carries the per-tenant rollups (latency
 * percentiles, SLO attainment, shed rate, quality, energy).
 */
struct ServingRunResult
{
    ServingSummary summary;
    std::vector<ServingMeasurement> measurements;

    /**
     * Per-query trace records of the executed queries (null unless
     * traceOut was set); cache hits and shed queries leave none.
     */
    std::shared_ptr<const QueryTracer> trace;

    /** The run's metrics registry (null unless metricsOut was set). */
    std::shared_ptr<const MetricsRegistry> metrics;
};

/** runScenario()'s name for the same result. */
using ScenarioRunResult = ServingRunResult;

/**
 * Owns and lazily builds the full stack. Heavy pieces (corpus, index,
 * ground truth, predictor bank) are constructed once and reused across
 * policies so comparative benches stay fast.
 */
class Experiment
{
  public:
    explicit Experiment(ExperimentConfig config = {});
    ~Experiment();

    const ExperimentConfig &config() const { return config_; }
    const Corpus &corpus() const { return *corpus_; }
    const ShardedIndex &index() const { return *index_; }
    ClusterSim &cluster() { return *cluster_; }
    DistributedEngine &engine() { return *engine_; }
    const Evaluator &evaluator() const { return *evaluator_; }

    /**
     * Instantiate a retrieval strategy by name: exhaustive,
     * maxscore, wand or bmw. Fatal on an unknown name.
     */
    static std::unique_ptr<Evaluator>
    makeEvaluator(const std::string &name);

    /** The trained per-ISN predictor bank (built on first use). */
    const PredictorBank &bank();

    /** The cached evaluation trace of a flavor. */
    const QueryTrace &trace(TraceFlavor flavor);

    /** The training trace (distinct seed and queries). */
    const QueryTrace &trainTrace();

    /** Cached exhaustive ground truth of an evaluation trace. */
    const std::vector<std::vector<ScoredDoc>> &
    groundTruth(TraceFlavor flavor);

    /**
     * Instantiate a policy by name: exhaustive, aggregation, rank-s,
     * taily, cottage, cottage-isn, cottage-without-ml, oracle,
     * slo-dvfs. Fatal on an unknown name.
     */
    std::unique_ptr<Policy> makePolicy(const std::string &name);

    /**
     * cliError() (exit 2, with the list of valid names) unless
     * makePolicy() knows @p name: the --policy check a binary runs
     * before it builds the stack.
     */
    static void requirePolicyName(const std::string &name);

    /**
     * Replay a flavor's evaluation trace under a policy, resetting
     * cluster and policy state first: ServingFrontEnd::serve with the
     * front-end off and a single tenant. Fills the summary including
     * energy/power over the replay window.
     */
    RunResult run(Policy &policy, TraceFlavor flavor);

    /** run() with a policy freshly made by name. */
    RunResult run(const std::string &policyName, TraceFlavor flavor);

    /**
     * Serve a flavor's evaluation trace through the serving front-end
     * (admission control, caches, shedding; config_.serving, which is
     * honoured as set — with `enabled` off this is replay) at an
     * offered Poisson rate of @p offeredQps. The trace is re-timed
     * (serve/arrivals.h) so query content — and therefore the cached
     * ground truth — matches replay mode exactly; only arrivals move.
     */
    ServingRunResult runServing(Policy &policy, TraceFlavor flavor,
                                double offeredQps);

    /** runServing() with a policy freshly made by name. */
    ServingRunResult runServing(const std::string &policyName,
                                TraceFlavor flavor, double offeredQps);

    /**
     * Serve a multi-tenant scenario (serve/scenario.h): shape each
     * tenant's flavor trace under its private arrival seed, merge the
     * streams in the fixed (arrival, tenant, id) order, apply the
     * scenario's hostile cluster shape, and run the serving front-end
     * with the tenants' SLO classes attached. The cluster shape is
     * cleared before returning, so subsequent runs see a pristine
     * cluster. Serving-mode knobs other than `enabled` and `tenants`
     * come from config_.serving as usual.
     */
    ScenarioRunResult runScenario(Policy &policy,
                                  const ScenarioConfig &scenario);

    /** runScenario() with a policy freshly made by name. */
    ScenarioRunResult runScenario(const std::string &policyName,
                                  const ScenarioConfig &scenario);

  private:
    /**
     * The one driver behind run(), runServing() and runScenario():
     * attach the configured tracer and metrics hooks, serve @p trace
     * through a front-end built from @p serving, detach, and append
     * the run's metrics line. Every record moves out of the front-end.
     */
    ServingRunResult
    serveTrace(Policy &policy, const QueryTrace &trace,
               const std::vector<std::vector<ScoredDoc>> &truth,
               const ServingConfig &serving);

    ExperimentConfig config_;
    std::unique_ptr<Evaluator> evaluator_;
    std::unique_ptr<Corpus> corpus_;
    std::unique_ptr<ShardedIndex> index_;
    std::unique_ptr<ClusterSim> cluster_;
    std::unique_ptr<DistributedEngine> engine_;
    std::unique_ptr<PredictorBank> bank_;
    std::unique_ptr<QueryTrace> trainTrace_;
    std::map<TraceFlavor, QueryTrace> traces_;
    std::map<TraceFlavor, std::vector<std::vector<ScoredDoc>>> truths_;

    /** Observability sinks, opened (truncating) on the first run. */
    std::unique_ptr<std::ofstream> traceFile_;
    std::unique_ptr<std::ofstream> metricsFile_;
};

} // namespace cottage

#endif // COTTAGE_HARNESS_EXPERIMENT_H
