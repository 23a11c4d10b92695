/**
 * @file
 * Intra-query parallelism bench: measure the deterministic parallel
 * traversal driver (engine/parallel_search.h) across evaluator x
 * cores cells, and the end-to-end (cores x frequency) frontier of the
 * Cottage policy.
 *
 * Part 1 (sweep): one-shard index, every evaluator cell runs the same
 * query set at cores {1, 2, 4, 8}. Each cell reports wall-clock
 * ns/query (min over interleaved repeats), the aggregate work
 * counters, and a bitwise checksum of the merged top-K (ids AND score
 * doubles) — the checksum must be identical across core counts, the
 * rank-safety half of the driver's contract, and is checked by
 * scripts/check_bench.py together with (under --timed) "4 cores beats
 * 1 core on wall-clock for wand and bmw". An Amdahl serial fraction is
 * fitted per evaluator from the measured speedups; feed it back into
 * the simulator via --speedup-serial-fraction.
 *
 * Part 2 (frontier): two full experiments on the SAME simulated
 * hardware (4 workers per ISN) — one limited to frequency-only
 * Cottage (isn-cores=1), one allowed the joint (cores x frequency)
 * grid (isn-cores=4) — serve the same scenario presets. The gate
 * requires the cores build to beat frequency-only on energy at no
 * worse p99, or on p99 at no worse energy, for at least one preset.
 *
 * --no-time zeroes every wall-clock-derived field (ns_per_query,
 * fitted alpha) so the output is byte-identical across machines and
 * SIMD variants; CI cmps a scalar (-DCOTTAGE_NO_SIMD=ON) run against
 * the committed artifact this way.
 *
 * Usage: bench_parallelism [--smoke] [--no-time] [--out=FILE]
 *                          [--evaluators=maxscore,wand,bmw]
 *                          [--repeats=3] [--qps-scale=4] [--docs=] ...
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/parallel_search.h"
#include "serve/scenario.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace cottage;

namespace {

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> items;
    std::stringstream stream(csv);
    std::string item;
    while (std::getline(stream, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}


/** FNV-1a over raw bytes — the merged top-K's bitwise fingerprint. */
uint64_t
fnv1a(uint64_t hash, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** One sweep cell's aggregate results. */
struct SweepCell
{
    std::string evaluator;
    uint32_t cores = 0;
    double nsPerQuery = 0.0;
    SearchWork work;
    uint64_t checksum = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags(argc, argv);
    const bool smoke = flags.getBool("smoke", false);
    const bool timed = !flags.getBool("no-time", false);
    const std::string outPath =
        flags.getString("out", "BENCH_parallelism.json");
    const std::vector<std::string> evaluators = splitList(
        flags.getString("evaluators", "maxscore,wand,bmw"));
    const auto repeats = static_cast<std::size_t>(
        getIntAtLeast(flags, "repeats", 3, 1));
    const double qpsScale = getPositiveDouble(flags, "qps-scale", 4.0);
    const std::vector<uint32_t> coreCounts = {1, 2, 4, 8};

    // ---------------------------------------------------- part 1: sweep
    // One shard, sized so a 4-core slice still dwarfs the pool's
    // dispatch overhead (a slice of the smoke corpus is ~6K docs).
    CorpusConfig corpusConfig;
    corpusConfig.numDocs = static_cast<uint32_t>(
        getIntInRange(flags, "docs", smoke ? 24000 : 60000, 1,
                      std::numeric_limits<uint32_t>::max()));
    ShardedIndexConfig shardConfig;
    shardConfig.numShards = 1;
    const Corpus corpus = Corpus::generate(corpusConfig);
    const ShardedIndex index(corpus, shardConfig);

    TraceConfig traceConfig;
    traceConfig.flavor = TraceFlavor::Wikipedia;
    traceConfig.numQueries = static_cast<uint64_t>(
        flags.getInt("queries", smoke ? 150 : 400));
    traceConfig.vocabSize = corpusConfig.vocabSize;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    std::vector<std::vector<WeightedTerm>> termSets;
    termSets.reserve(trace.size());
    for (std::size_t q = 0; q < trace.size(); ++q)
        termSets.push_back(
            DistributedEngine::weightedTerms(trace.query(q)));

    std::vector<SweepCell> cells;
    for (const std::string &name : evaluators) {
        const std::unique_ptr<Evaluator> evaluator =
            Experiment::makeEvaluator(name);
        for (const uint32_t cores : coreCounts) {
            SweepCell cell;
            cell.evaluator = name;
            cell.cores = cores;
            cell.nsPerQuery = -1.0;
            cells.push_back(cell);
        }
        (void)evaluator;
    }

    // Interleaved repeats: each repeat times every cell once, and the
    // min over repeats stands — robust against one-off scheduler noise
    // biasing a whole cell. Work counters and checksums come from the
    // first repeat (they are bit-identical in every repeat).
    for (std::size_t rep = 0; rep < repeats; ++rep) {
        std::size_t cellIndex = 0;
        for (const std::string &name : evaluators) {
            const std::unique_ptr<Evaluator> evaluator =
                Experiment::makeEvaluator(name);
            for (const uint32_t cores : coreCounts) {
                SweepCell &cell = cells[cellIndex++];
                Stopwatch watch;
                SearchWork work;
                uint64_t checksum = 0xcbf29ce484222325ull;
                for (std::size_t q = 0; q < termSets.size(); ++q) {
                    const SearchResult result = parallelShardSearch(
                        *evaluator, index.shard(0), termSets[q],
                        index.topK(), noDocCap, cores);
                    if (rep == 0) {
                        work.docsScored += result.work.docsScored;
                        work.docsSkipped += result.work.docsSkipped;
                        work.blocksDecoded += result.work.blocksDecoded;
                        work.blocksSkipped += result.work.blocksSkipped;
                        for (const ScoredDoc &hit : result.topK) {
                            checksum = fnv1a(checksum, &hit.doc,
                                             sizeof(hit.doc));
                            checksum = fnv1a(checksum, &hit.score,
                                             sizeof(hit.score));
                        }
                    }
                }
                const double ns =
                    watch.elapsedSeconds() * 1e9 /
                    static_cast<double>(termSets.size());
                if (cell.nsPerQuery < 0.0 || ns < cell.nsPerQuery)
                    cell.nsPerQuery = ns;
                if (rep == 0) {
                    cell.work = work;
                    cell.checksum = checksum;
                }
            }
        }
    }
    if (!timed)
        for (SweepCell &cell : cells)
            cell.nsPerQuery = 0.0;

    // Fitted Amdahl serial fraction per evaluator: from S(k) =
    // k / (1 + a(k-1)), each measured speedup S_k = t1/tk yields
    // a_k = (k/S_k - 1)/(k - 1); report the mean over k > 1. This is
    // the calibration input for SpeedupCurve::serialFraction.
    struct FittedAlpha
    {
        std::string evaluator;
        double alpha = 0.0;
    };
    std::vector<FittedAlpha> alphas;
    for (const std::string &name : evaluators) {
        double t1 = 0.0;
        double sum = 0.0;
        std::size_t count = 0;
        for (const SweepCell &cell : cells) {
            if (cell.evaluator != name)
                continue;
            if (cell.cores == 1) {
                t1 = cell.nsPerQuery;
            } else if (timed && t1 > 0.0 && cell.nsPerQuery > 0.0) {
                const double k = cell.cores;
                const double speedup = t1 / cell.nsPerQuery;
                const double alpha =
                    (k / speedup - 1.0) / (k - 1.0);
                sum += std::max(0.0, alpha);
                ++count;
            }
        }
        alphas.push_back(
            {name, count > 0 ? sum / static_cast<double>(count) : 0.0});
    }

    // ------------------------------------------------ part 2: frontier
    // Same hardware (4 workers per ISN), same scenario load; the only
    // difference is whether Cottage's step 6 may gang cores.
    struct FrontierRow
    {
        std::string scenario;
        uint32_t isnCores = 0;
        double p99Seconds = 0.0;
        double energyJoules = 0.0;
        double avgPowerWatts = 0.0;
        double avgNdcg = 0.0;
        double shedRate = 0.0;
    };
    std::vector<FrontierRow> frontier;
    const std::vector<std::string> presets = splitList(flags.getString(
        "frontier-scenarios", "mixed_poisson,flash_crowd"));
    for (const uint32_t isnCores : {1u, 4u}) {
        ExperimentConfig config = ExperimentConfig::fromFlags(flags);
        if (!flags.has("docs"))
            config.corpus.numDocs = smoke ? 8000 : 30000;
        if (!flags.has("queries"))
            config.traceQueries = smoke ? 500 : 3000;
        if (!flags.has("shards"))
            config.shards.numShards = smoke ? 8 : 16;
        if (!flags.has("train-queries"))
            config.trainQueries = smoke ? 400 : 2500;
        if (!flags.has("iterations"))
            config.train.iterations = smoke ? 300 : 1500;
        if (!flags.has("cores-per-isn"))
            config.coresPerIsn = 4;
        config.isnCores = isnCores;
        config.cottage.maxCoresPerQuery = isnCores;
        Experiment experiment(std::move(config));
        for (const std::string &preset : presets) {
            const ScenarioConfig scenario =
                scenarioByName(preset, qpsScale);
            const ScenarioRunResult run =
                experiment.runScenario("cottage", scenario);
            FrontierRow row;
            row.scenario = preset;
            row.isnCores = isnCores;
            row.p99Seconds = run.summary.run.p99LatencySeconds;
            row.energyJoules = run.summary.run.energyJoules;
            row.avgPowerWatts = run.summary.run.avgPowerWatts;
            row.avgNdcg = run.summary.run.avgNdcg;
            row.shedRate = run.summary.shedRate;
            frontier.push_back(row);
            std::cout << "frontier " << preset << " isn-cores="
                      << isnCores
                      << ": p99_ms=" << row.p99Seconds * 1e3
                      << " energy_j=" << row.energyJoules
                      << " power_w=" << row.avgPowerWatts
                      << " ndcg=" << row.avgNdcg << "\n";
        }
    }

    // ------------------------------------------------------- emit JSON
    std::ofstream out(outPath);
    if (!out)
        fatal("cannot write " + outPath);
    out << "{\n  \"bench\": \"parallelism\",\n  \"config\": {"
        << "\"sweep_docs\":" << corpusConfig.numDocs
        << ",\"sweep_queries\":" << termSets.size()
        << ",\"repeats\":" << repeats
        << ",\"qps_scale\":" << jsonNumber(qpsScale)
        << ",\"timed\":" << (timed ? "true" : "false")
        << ",\"smoke\":" << (smoke ? "true" : "false") << "},\n"
        << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        char checksum[32];
        std::snprintf(checksum, sizeof(checksum), "0x%016llx",
                      static_cast<unsigned long long>(cell.checksum));
        out << "    {\"evaluator\":\"" << cell.evaluator << "\""
            << ",\"cores\":" << cell.cores
            << ",\"ns_per_query\":" << jsonNumber(cell.nsPerQuery)
            << ",\"docs_scored\":" << cell.work.docsScored
            << ",\"docs_skipped\":" << cell.work.docsSkipped
            << ",\"blocks_decoded\":" << cell.work.blocksDecoded
            << ",\"blocks_skipped\":" << cell.work.blocksSkipped
            << ",\"topk_checksum\":\"" << checksum << "\"}"
            << (i + 1 < cells.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"fitted_alpha\": [\n";
    for (std::size_t i = 0; i < alphas.size(); ++i) {
        out << "    {\"evaluator\":\"" << alphas[i].evaluator << "\""
            << ",\"alpha\":" << jsonNumber(alphas[i].alpha) << "}"
            << (i + 1 < alphas.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"frontier\": [\n";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        const FrontierRow &row = frontier[i];
        out << "    {\"scenario\":\"" << row.scenario << "\""
            << ",\"policy\":\"cottage\""
            << ",\"isn_cores\":" << row.isnCores
            << ",\"p99_latency_s\":" << jsonNumber(row.p99Seconds)
            << ",\"energy_j\":" << jsonNumber(row.energyJoules)
            << ",\"avg_power_w\":" << jsonNumber(row.avgPowerWatts)
            << ",\"avg_ndcg\":" << jsonNumber(row.avgNdcg)
            << ",\"shed_rate\":" << jsonNumber(row.shedRate) << "}"
            << (i + 1 < frontier.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    out.close();

    std::cout << "wrote " << outPath << "\n";
    return 0;
}
