/**
 * @file
 * Reproduces Figs. 10-15, the paper's main evaluation, from one
 * trained experiment: exhaustive, Taily, Rank-S and Cottage plus the
 * Cottage-ISN and Cottage-withoutML ablations, each replayed over the
 * Wikipedia and Lucene traces. Prints one summary table per trace and
 * the claims table, and writes BENCH_paper.json:
 *   - one row per (policy, trace): the run summary (latency, P@10,
 *     NDCG@10, ISNs used and boosted, power, C_RES) plus Fig. 12's
 *     fast, accurate share;
 *   - every claim the paper makes about these figures, as a named
 *     inequality with the paper's value, the measured value and
 *     whether it holds. A claim that fails is written as failing.
 *
 * Usage: bench_paper [--docs=] [--queries=] [--threads=] ...
 *
 * The file holds no thread count and no wall time, so it is
 * byte-identical at any --threads; CI compares it with the committed
 * BENCH_paper.json.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/table.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace cottage;
using namespace cottage::bench;

namespace {

/** Every policy Figs. 10-15 compare, in table order. */
const std::vector<std::string> kPolicies = {
    "exhaustive",         "taily",       "rank-s",
    "cottage-without-ml", "cottage-isn", "cottage"};

constexpr TraceFlavor kFlavors[] = {TraceFlavor::Wikipedia,
                                    TraceFlavor::Lucene};

/** One (policy, trace) row: the run summary plus Fig. 12's number. */
struct Row : RunSummary
{
    /**
     * Fig. 12's fast, accurate corner: the share of queries with
     * P@10 >= 0.8 and latency <= half of exhaustive's p95 on the same
     * trace.
     */
    double fastAccurateShare = 0.0;
};

/** A row field a claim compares, with its JSON key. */
struct Metric
{
    const char *key;
    double Row::*field;
};

constexpr Metric kAvgLatency{"avg_latency_s", &Row::avgLatencySeconds};
constexpr Metric kP95Latency{"p95_latency_s", &Row::p95LatencySeconds};
constexpr Metric kPrecision{"avg_precision", &Row::avgPrecision};
constexpr Metric kIsns{"avg_isns_used", &Row::avgIsnsUsed};
constexpr Metric kPower{"avg_power_w", &Row::avgPowerWatts};
constexpr Metric kDocs{"avg_docs_searched", &Row::avgDocsSearched};
constexpr Metric kFastAccurate{"fast_accurate_share",
                               &Row::fastAccurateShare};

/** The paper publishes no value for this quantity on this trace. */
constexpr double kUnpublished = std::numeric_limits<double>::quiet_NaN();

/**
 * A paper claim as an inequality on one quantity: the metric of
 * `policy` divided by the smallest (for "<") or largest (for ">") of
 * the same metric over `versus`, compared with `bound`. With `versus`
 * empty the quantity is the metric itself. The paper's values are the
 * same quantity computed from its published numbers.
 */
struct Claim
{
    const char *name;
    const char *figure;
    const char *policy;
    Metric metric;
    std::vector<std::string> versus;
    std::string op;
    double bound;
    double paperWikipedia;
    double paperLucene;
};

/**
 * The paper's published numbers, Wikipedia trace unless noted:
 * Fig. 10: exhaustive 17.26 ms avg / 39 ms p95; Taily -1.16% avg,
 *   -1.2% p95; Rank-S -11.1% avg, p95 close to exhaustive; Cottage
 *   2.41x lower avg and 2.6x lower p95 than exhaustive.
 * Fig. 11: P@10 (Wikipedia / Lucene) exhaustive 1, Cottage
 *   0.947 / 0.955, Taily 0.887 / 0.878, Rank-S <= 0.709.
 * Fig. 12: Cottage's queries sit in the fast, accurate corner; Taily's
 *   and Rank-S's scatter down the quality axis (no number).
 * Fig. 13: ISNs per query exhaustive 16, Taily ~13, Rank-S ~11,
 *   Cottage <= 6.81.
 * Fig. 14: power exhaustive ~36 W, Taily ~25 W, Rank-S ~24 W,
 *   Cottage ~21 W.
 * Fig. 15: Cottage-ISN ~1.9x Cottage's avg latency; Cottage-withoutML
 *   +43% ISNs, +48% C_RES and a quality penalty (no number); Cottage
 *   2.67x fewer C_RES than exhaustive.
 */
const std::vector<Claim> kClaims = {
    {"cottage_lowest_avg_latency", "10", "cottage", kAvgLatency,
     {"exhaustive", "taily", "rank-s"}, "<", 1.0,
     (1.0 / 2.41) / (1.0 - 0.111), kUnpublished},
    {"cottage_lowest_p95_latency", "10", "cottage", kP95Latency,
     {"exhaustive", "taily", "rank-s"}, "<", 1.0,
     (1.0 / 2.6) / (1.0 - 0.012), kUnpublished},
    {"taily_avg_latency_below_exhaustive", "10", "taily", kAvgLatency,
     {"exhaustive"}, "<", 1.0, 1.0 - 0.0116, kUnpublished},
    {"rank_s_avg_latency_below_taily", "10", "rank-s", kAvgLatency,
     {"taily"}, "<", 1.0, (1.0 - 0.111) / (1.0 - 0.0116), kUnpublished},
    {"taily_p10_below_cottage", "11", "taily", kPrecision, {"cottage"},
     "<", 1.0, 0.887 / 0.947, 0.878 / 0.955},
    {"rank_s_lowest_p10", "11", "rank-s", kPrecision,
     {"exhaustive", "taily", "cottage"}, "<", 1.0, 0.709 / 0.887,
     0.709 / 0.878},
    {"rank_s_p10_at_most_paper", "11", "rank-s", kPrecision, {}, "<=",
     0.709, 0.709, 0.709},
    {"cottage_largest_fast_accurate_share", "12", "cottage",
     kFastAccurate, {"taily", "rank-s"}, ">", 1.0, kUnpublished,
     kUnpublished},
    {"cottage_fewest_isns", "13", "cottage", kIsns,
     {"exhaustive", "taily", "rank-s"}, "<", 1.0, 6.81 / 11.0,
     kUnpublished},
    {"cottage_lowest_power", "14", "cottage", kPower,
     {"exhaustive", "taily", "rank-s"}, "<", 1.0, 21.0 / 24.0,
     kUnpublished},
    {"cottage_isn_slower_than_cottage", "15", "cottage-isn", kAvgLatency,
     {"cottage"}, ">", 1.0, 1.9, kUnpublished},
    {"without_ml_more_isns", "15", "cottage-without-ml", kIsns,
     {"cottage"}, ">", 1.0, 1.43, kUnpublished},
    {"without_ml_more_docs", "15", "cottage-without-ml", kDocs,
     {"cottage"}, ">", 1.0, 1.48, kUnpublished},
    {"without_ml_lower_p10", "15", "cottage-without-ml", kPrecision,
     {"cottage"}, "<", 1.0, kUnpublished, kUnpublished},
    {"cottage_fewer_docs_than_exhaustive", "15", "cottage", kDocs,
     {"exhaustive"}, "<", 1.0, 1.0 / 2.67, kUnpublished},
};

using Rows = std::map<std::pair<std::string, TraceFlavor>, Row>;

/** Share of queries with P@10 >= 0.8 and latency <= @p capSeconds. */
double
fastAccurateShare(const std::vector<QueryMeasurement> &measurements,
                  double capSeconds)
{
    uint64_t corner = 0;
    for (const QueryMeasurement &m : measurements)
        corner += m.precisionAtK >= 0.8 && m.latencySeconds <= capSeconds;
    return static_cast<double>(corner) /
           static_cast<double>(measurements.size());
}

/** "policy.key / min(a, b)"-style text of a claim's inequality. */
std::string
inequality(const Claim &claim)
{
    std::string text = std::string(claim.policy) + "." + claim.metric.key;
    if (claim.versus.size() == 1) {
        text += " / " + claim.versus[0];
    } else if (!claim.versus.empty()) {
        text += claim.op == ">" ? " / max(" : " / min(";
        for (std::size_t i = 0; i < claim.versus.size(); ++i)
            text += (i == 0 ? "" : ", ") + claim.versus[i];
        text += ")";
    }
    return text + " " + claim.op + " " + jsonNumber(claim.bound);
}

/** The claim's measured quantity on one trace. */
double
measure(const Claim &claim, const Rows &rows, TraceFlavor flavor)
{
    const auto value = [&](const std::string &policy) {
        return rows.at({policy, flavor}).*claim.metric.field;
    };
    if (claim.versus.empty())
        return value(claim.policy);
    double reference = value(claim.versus[0]);
    for (const std::string &policy : claim.versus)
        reference = claim.op == ">" ? std::max(reference, value(policy))
                                    : std::min(reference, value(policy));
    return value(claim.policy) / reference;
}

/** A number, or null where there is none (unpublished, or 0 / 0). */
std::string
numberOrNull(double value)
{
    return std::isfinite(value) ? jsonNumber(value) : "null";
}

/** Whether @p measured satisfies the claim's inequality. */
bool
holds(const Claim &claim, double measured)
{
    if (claim.op == "<")
        return measured < claim.bound;
    if (claim.op == "<=")
        return measured <= claim.bound;
    return measured > claim.bound;
}

void
printRows(const Rows &rows, TraceFlavor flavor)
{
    std::cout << "\n=== Figs. 10-15: " << traceFlavorName(flavor)
              << " trace ===\n";
    TextTable table({"policy", "avg ms", "p95 ms", "P@10", "NDCG@10",
                     "ISNs", "boosted", "power W", "C_RES",
                     "fast+accurate"});
    for (const std::string &policy : kPolicies) {
        const Row &r = rows.at({policy, flavor});
        table.addRow({policy, TextTable::cell(r.avgLatencySeconds * 1e3, 2),
                      TextTable::cell(r.p95LatencySeconds * 1e3, 2),
                      TextTable::cell(r.avgPrecision, 3),
                      TextTable::cell(r.avgNdcg, 3),
                      TextTable::cell(r.avgIsnsUsed, 2),
                      TextTable::cell(r.avgIsnsBoosted, 2),
                      TextTable::cell(r.avgPowerWatts, 2),
                      TextTable::cell(r.avgDocsSearched, 0),
                      TextTable::cell(r.fastAccurateShare, 3)});
    }
    std::cout << table.render();
}

} // namespace

int
main(int argc, char **argv)
{
    // The config echo goes to stderr: stdout carries only the tables.
    Experiment experiment = makeBenchExperiment(argc, argv, 3000, std::cerr);

    Rows rows;
    for (const TraceFlavor flavor : kFlavors) {
        double capSeconds = 0.0;
        for (const std::string &policy : kPolicies) {
            const RunResult run = experiment.run(policy, flavor);
            // kPolicies starts with exhaustive, whose p95 sets the
            // latency cap of Fig. 12's corner.
            if (policy == "exhaustive")
                capSeconds = 0.5 * run.summary.p95LatencySeconds;
            rows.emplace(std::make_pair(policy, flavor),
                         Row{run.summary, fastAccurateShare(
                                              run.measurements,
                                              capSeconds)});
        }
    }

    std::vector<std::string> rowJson;
    for (const TraceFlavor flavor : kFlavors) {
        printRows(rows, flavor);
        for (const std::string &policy : kPolicies) {
            const Row &r = rows.at({policy, flavor});
            rowJson.push_back(
                JsonObject()
                    .raw("summary", toJson(r))
                    .number("fast_accurate_share", r.fastAccurateShare)
                    .str());
        }
    }

    std::cout << "\n=== paper claims ===\n";
    TextTable claimTable(
        {"fig", "trace", "claim", "inequality", "paper", "measured",
         "holds"});
    std::vector<std::string> claimJson;
    for (const Claim &claim : kClaims) {
        for (const TraceFlavor flavor : kFlavors) {
            const double paper = flavor == TraceFlavor::Wikipedia
                                     ? claim.paperWikipedia
                                     : claim.paperLucene;
            const double measured = measure(claim, rows, flavor);
            const bool ok = holds(claim, measured);
            claimTable.addRow(
                {claim.figure, traceFlavorName(flavor), claim.name,
                 inequality(claim),
                 std::isfinite(paper) ? TextTable::cell(paper, 3) : "-",
                 TextTable::cell(measured, 3), ok ? "yes" : "NO"});
            claimJson.push_back(
                JsonObject()
                    .text("name", claim.name)
                    .text("figure", claim.figure)
                    .text("flavor", traceFlavorName(flavor))
                    .text("inequality", inequality(claim))
                    .raw("paper", numberOrNull(paper))
                    .raw("measured", numberOrNull(measured))
                    .raw("holds", ok ? "true" : "false")
                    .str());
        }
    }
    std::cout << claimTable.render();

    const ExperimentConfig &config = experiment.config();
    const std::string configJson =
        JsonObject()
            .number("docs", uint64_t{config.corpus.numDocs})
            .number("shards", uint64_t{config.shards.numShards})
            .number("k", uint64_t{config.shards.topK})
            .number("queries", config.traceQueries)
            .number("qps", config.arrivalQps)
            .number("train_queries", config.trainQueries)
            .number("iterations", uint64_t{config.train.iterations})
            .number("corpus_seed", config.corpus.seed)
            .number("trace_seed", config.traceSeed)
            .number("train_seed", config.trainSeed)
            .text("evaluator", config.evaluator)
            .number("idle_power_w", config.power.idleWatts)
            .str();

    const std::string outPath = "BENCH_paper.json";
    std::ofstream out(outPath);
    if (!out)
        fatal("cannot write " + outPath);
    const auto join = [](const std::vector<std::string> &items) {
        std::string joined;
        for (std::size_t i = 0; i < items.size(); ++i)
            joined += (i == 0 ? "    " : ",\n    ") + items[i];
        return joined;
    };
    out << "{\n  \"bench\": \"paper\",\n  \"config\": " << configJson
        << ",\n  \"rows\": [\n" << join(rowJson)
        << "\n  ],\n  \"claims\": [\n" << join(claimJson) << "\n  ]\n}\n";
    return 0;
}
