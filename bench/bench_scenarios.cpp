/**
 * @file
 * Multi-tenant SLO scenario bench: run Cottage and the fixed-deadline
 * slo-dvfs baseline over the built-in scenario shapes — a stationary
 * mixed-tenant Poisson load plus the hostile shapes (flash crowd,
 * straggler ISN, failover) — and emit machine-readable JSON
 * (BENCH_scenarios.json) with one per-tenant rollup per (scenario,
 * policy) cell: latency percentiles up to p99.9, SLO attainment, shed
 * rate, quality and energy. scripts/check_bench.py checks the
 * numbers: every scenario carries the full policy grid, every
 * tenant's percentile ladder is monotone and Cottage beats slo-dvfs
 * on at least one hostile shape.
 *
 * Usage: bench_scenarios [--smoke] [--out=FILE] [--qps-scale=4]
 *                        [--scenarios=mixed_poisson,flash_crowd,...]
 *                        [--policies=cottage,slo-dvfs]
 *                        [--docs=] [--queries=] [--shards=] ...
 *
 * Every (scenario, policy) cell replays the same merged arrival
 * stream — the merge is a pure function of the scenario spec — so the
 * comparison isolates the budget policy exactly.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/scenario.h"
#include "util/logging.h"

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

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags(argc, argv);
    const bool smoke = flags.getBool("smoke", false);

    ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    if (!flags.has("docs"))
        config.corpus.numDocs = smoke ? 8000 : 30000;
    if (!flags.has("queries"))
        config.traceQueries = smoke ? 500 : 3000;
    if (!flags.has("shards"))
        config.shards.numShards = smoke ? 8 : 16;
    if (!flags.has("result-cache"))
        config.serving.resultCacheCapacity = 512;
    if (!flags.has("postings-cache"))
        config.serving.statsCacheCapacity = 2048;
    config.print(std::cout);

    const std::string outPath =
        flags.getString("out", "BENCH_scenarios.json");
    // Scale 4 drives the 8-shard smoke stack into the regime where
    // the hostile shapes actually hurt (the flash-crowd spike window
    // overlaps most of the trace and backlog reaches the ladder).
    // A non-positive scale is an operator typo, not a program bug:
    // report it as a usage error instead of tripping the scenario
    // layer's assertion.
    const double qpsScale = getPositiveDouble(flags, "qps-scale", 4.0);
    const std::vector<std::string> scenarios = splitList(
        flags.getString("scenarios",
                        "mixed_poisson,flash_crowd,straggler_isn,"
                        "power_skew,failover"));
    const std::vector<std::string> policies = splitList(
        flags.getString("policies", "cottage,slo-dvfs,rank-s,taily"));
    COTTAGE_CHECK_MSG(!scenarios.empty() && !policies.empty(),
                      "need at least one scenario and one policy");

    Experiment experiment(std::move(config));

    std::ofstream out(outPath);
    if (!out)
        fatal("cannot write " + outPath);
    out << "{\n  \"bench\": \"scenarios\",\n  \"config\": {"
        << "\"docs\":" << experiment.config().corpus.numDocs
        << ",\"queries\":" << experiment.config().traceQueries
        << ",\"shards\":" << experiment.config().shards.numShards
        << ",\"qps_scale\":" << qpsScale
        << ",\"smoke\":" << (smoke ? "true" : "false") << "},\n"
        << "  \"scenarios\": [\n";

    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const ScenarioConfig scenario =
            scenarioByName(scenarios[s], qpsScale);
        out << "    {\"name\":\"" << scenario.name << "\""
            << ",\"hostile\":" << (scenario.hostile ? "true" : "false")
            << ",\"policies\":[\n";
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const ScenarioRunResult run =
                experiment.runScenario(policies[p], scenario);
            const ServingSummary &sv = run.summary;
            std::cout << "  " << scenario.name << " / " << policies[p]
                      << ": shed_rate=" << sv.shedRate
                      << " p99_ms=" << sv.run.p99LatencySeconds * 1e3
                      << " power_w=" << sv.run.avgPowerWatts << "\n";
            for (const TenantSummary &tenant : sv.tenants)
                std::cout << "    tenant " << tenant.tenant
                          << ": p99_ms="
                          << tenant.p99LatencySeconds * 1e3
                          << " p999_ms="
                          << tenant.p999LatencySeconds * 1e3
                          << " attainment=" << tenant.sloAttainment
                          << " ndcg=" << tenant.avgNdcg << "\n";
            out << "      {\"policy\":\"" << policies[p]
                << "\",\"summary\":" << toJson(sv) << "}"
                << (p + 1 < policies.size() ? ",\n" : "\n");
        }
        out << "    ]}" << (s + 1 < scenarios.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    out.close();

    std::cout << "wrote " << outPath << "\n";
    return 0;
}
