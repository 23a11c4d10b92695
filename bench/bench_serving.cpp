/**
 * @file
 * Sustained-throughput bench for the serving front-end: sweep a rising
 * offered QPS ladder through ServingFrontEnd (admission control,
 * result/term-stats caches, load shedding) until the cluster
 * saturates, and emit machine-readable JSON (BENCH_serving.json) with
 * one point per QPS rung — latency percentiles, shed/degrade rates,
 * cache hit rates and package power — plus the detected knee.
 * scripts/check_bench.py checks the numbers: the lowest rung must
 * shed nothing and the reported saturation QPS must be positive.
 *
 * Usage: bench_serving [--smoke] [--out=FILE] [--policy=taily]
 *                      [--qps-start=] [--qps-max=] [--shed-rate=0.01]
 *                      [--docs=] [--queries=] [--shards=] ...
 *
 * The ladder doubles each rung from --qps-start and stops early once a
 * rung's shed rate exceeds --shed-rate (the saturation criterion); the
 * knee is the last rung at or below it. Every rung re-times the SAME
 * base trace (serve/arrivals.h), so quality ground truth is computed
 * once and the rungs differ only in arrival pressure.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/serving.h"
#include "util/logging.h"

using namespace cottage;

int
main(int argc, char **argv)
{
    const CliFlags flags(argc, argv);
    const bool smoke = flags.getBool("smoke", false);

    ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    const std::string policyName = flags.getString("policy", "taily");
    Experiment::requirePolicyName(policyName);
    if (!flags.has("docs"))
        config.corpus.numDocs = smoke ? 8000 : 30000;
    if (!flags.has("queries"))
        config.traceQueries = smoke ? 500 : 3000;
    if (!flags.has("shards"))
        config.shards.numShards = smoke ? 8 : 16;
    config.serving.enabled = true;
    // Caches on by default so the bench reports meaningful hit rates;
    // the flags can still force either off (=0).
    if (!flags.has("result-cache"))
        config.serving.resultCacheCapacity = 512;
    if (!flags.has("postings-cache"))
        config.serving.statsCacheCapacity = 2048;
    config.print(std::cout);

    const std::string outPath =
        flags.getString("out", "BENCH_serving.json");
    const double qpsStart = flags.getDouble("qps-start", 100.0);
    const double qpsMax =
        flags.getDouble("qps-max", smoke ? 6400.0 : 25600.0);
    const double saturationShedRate =
        flags.getDouble("shed-rate", 0.01);
    COTTAGE_CHECK_MSG(qpsStart > 0.0 && qpsMax >= qpsStart,
                      "need 0 < --qps-start <= --qps-max");

    Experiment experiment(std::move(config));
    const std::unique_ptr<Policy> policy =
        experiment.makePolicy(policyName);

    std::vector<ServingSummary> points;
    double saturationQps = 0.0;
    bool saturated = false;
    for (double qps = qpsStart; qps <= qpsMax; qps *= 2.0) {
        const ServingRunResult run =
            experiment.runServing(*policy, TraceFlavor::Wikipedia, qps);
        const ServingSummary &sv = run.summary;
        std::cout << "  qps=" << qps << ": achieved="
                  << sv.achievedQps << " shed_rate=" << sv.shedRate
                  << " p95_ms=" << sv.run.p95LatencySeconds * 1e3
                  << " power_w=" << sv.run.avgPowerWatts
                  << " result_hit=" << sv.resultCacheHitRate << "\n";
        points.push_back(sv);
        if (sv.shedRate > saturationShedRate) {
            // This rung is past the knee; the previous one is the
            // sustained-throughput report.
            saturated = true;
            break;
        }
        saturationQps = qps;
    }
    COTTAGE_CHECK_MSG(!points.empty(), "qps ladder produced no points");
    // Ladder exhausted without saturating: report the top rung as the
    // sustained rate (the gate only needs it positive; a wider ladder
    // refines it).
    if (saturationQps == 0.0)
        saturationQps = qpsStart;
    const std::size_t knee =
        saturated && points.size() > 1 ? points.size() - 2
                                       : points.size() - 1;

    std::ofstream out(outPath);
    if (!out)
        fatal("cannot write " + outPath);
    out << "{\n  \"bench\": \"serving\",\n  \"config\": {"
        << "\"docs\":" << experiment.config().corpus.numDocs
        << ",\"queries\":" << experiment.config().traceQueries
        << ",\"shards\":" << experiment.config().shards.numShards
        << ",\"policy\":\"" << policyName << "\""
        << ",\"shed_backlog_ms\":"
        << experiment.config().serving.admission.shedBacklogSeconds * 1e3
        << ",\"result_cache\":"
        << experiment.config().serving.resultCacheCapacity
        << ",\"postings_cache\":"
        << experiment.config().serving.statsCacheCapacity
        << ",\"shed_rate_threshold\":" << saturationShedRate
        << ",\"smoke\":" << (smoke ? "true" : "false") << "},\n"
        << "  \"serving\": {\n    \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        out << "      " << toJson(points[i])
            << (i + 1 < points.size() ? ",\n" : "\n");
    }
    out << "    ],\n    \"saturation_qps\": " << saturationQps
        << ",\n    \"saturated\": " << (saturated ? "true" : "false")
        << ",\n    \"knee\": " << toJson(points[knee]) << "\n  }\n}\n";
    out.close();

    std::cout << "wrote " << outPath << "\n"
              << "  saturation_qps=" << saturationQps
              << (saturated ? "" : " (ladder top; never saturated)")
              << "\n";
    return 0;
}
