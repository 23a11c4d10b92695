/**
 * @file
 * Trace replay: run one policy over one trace flavor and emit a
 * per-query CSV (arrival, latency, P@10, ISNs used, boosted, C_RES,
 * budget) plus the run summary — the workload a capacity planner or
 * researcher would script against this library.
 *
 * Usage:
 *   trace_replay [--policy=cottage] [--trace=wikipedia|lucene]
 *                [--csv=out.csv] [--trace-out=trace.jsonl]
 *                [--metrics-out=metrics.json] [--power-window-ms=100]
 *                [--docs=] [--queries=] [--qps=] ...
 *
 * Serving mode (--serve=1) routes the trace through the online
 * front-end instead — admission control, result/term-stats caches and
 * load shedding around the engine — re-timed to the offered --qps:
 *   trace_replay --serve=1 --qps=600 [--shed-backlog-ms=250]
 *                [--degrade-backlog-ms=50] [--overload-budget-ms=50]
 *                [--result-cache=1024] [--postings-cache=4096]
 *
 * Scenario mode (--scenario=<name>) serves a multi-tenant SLO
 * scenario — merged per-tenant arrival streams over an optionally
 * hostile cluster (see serve/scenario.h) — and prints the per-tenant
 * rollups. --qps-scale multiplies every tenant's baseline rate:
 *   trace_replay --scenario=flash_crowd [--qps-scale=1] [--json=1]
 * Built-in scenarios: mixed_poisson, diurnal, flash_crowd,
 * straggler_isn, failover.
 */

#include <fstream>
#include <iostream>

#include "harness/experiment.h"
#include "harness/table.h"
#include "util/cli.h"

using namespace cottage;

int
main(int argc, char **argv)
{
    const CliFlags flags(argc, argv);
    ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    const std::string policyName = flags.getString("policy", "cottage");
    Experiment::requirePolicyName(policyName);
    if (!flags.has("docs"))
        config.corpus.numDocs = 30000;
    if (!flags.has("queries"))
        config.traceQueries = 3000;
    config.print(std::cout);

    const std::string traceName = flags.getString("trace", "wikipedia");
    const TraceFlavor flavor = traceName == "lucene"
                                   ? TraceFlavor::Lucene
                                   : TraceFlavor::Wikipedia;

    Experiment experiment(std::move(config));

    const std::string scenarioName = flags.getString("scenario", "");
    if (!scenarioName.empty()) {
        const double qpsScale = getPositiveDouble(flags, "qps-scale", 1.0);
        const ScenarioConfig scenario =
            scenarioByName(scenarioName, qpsScale);
        const ScenarioRunResult run =
            experiment.runScenario(policyName, scenario);
        const ServingSummary &sv = run.summary;

        TextTable cluster({"metric", "value"});
        cluster.addRow({"scenario", scenario.name});
        cluster.addRow({"hostile", scenario.hostile ? "yes" : "no"});
        cluster.addRow({"policy", sv.run.policy});
        cluster.addRow({"offered", TextTable::cell(sv.offered)});
        cluster.addRow({"completed", TextTable::cell(sv.completed)});
        cluster.addRow({"shed rate", TextTable::cell(sv.shedRate)});
        cluster.addRow({"degraded", TextTable::cell(sv.degraded)});
        cluster.addRow({"ISNs shed", TextTable::cell(sv.isnsShed)});
        cluster.addRow({"ISNs unavailable",
                        TextTable::cell(sv.isnsUnavailable)});
        cluster.addRow({"avg power W",
                        TextTable::cell(sv.run.avgPowerWatts, 2)});
        std::cout << "\n" << cluster.render();

        TextTable tenants({"tenant", "offered", "shed rate", "p99 ms",
                           "p99.9 ms", "SLO ms", "attainment", "met",
                           "NDCG", "energy J"});
        for (const TenantSummary &t : sv.tenants) {
            tenants.addRow(
                {t.tenant, TextTable::cell(t.offered),
                 TextTable::cell(t.shedRate),
                 TextTable::cell(t.p99LatencySeconds * 1e3),
                 TextTable::cell(t.p999LatencySeconds * 1e3),
                 t.deadlineSeconds == noBudget
                     ? "-"
                     : TextTable::cell(t.deadlineSeconds * 1e3),
                 TextTable::cell(t.sloAttainment),
                 t.sloMet ? "yes" : "no", TextTable::cell(t.avgNdcg),
                 TextTable::cell(t.energyJoules, 1)});
        }
        std::cout << "\n" << tenants.render();

        if (run.metrics) {
            std::cout << "\n" << run.metrics->toAsciiReport();
            std::cout << "wrote metrics to "
                      << experiment.config().metricsOut << "\n";
        }
        if (flags.getBool("json", false))
            std::cout << "\n" << toJson(sv) << "\n";
        return 0;
    }

    if (experiment.config().serving.enabled) {
        const ServingRunResult serving = experiment.runServing(
            policyName, flavor, experiment.config().arrivalQps);
        const ServingSummary &sv = serving.summary;
        TextTable table({"metric", "value"});
        table.addRow({"policy", sv.run.policy});
        table.addRow({"trace", sv.run.trace});
        table.addRow({"offered", TextTable::cell(sv.offered)});
        table.addRow({"completed", TextTable::cell(sv.completed)});
        table.addRow({"shed queries", TextTable::cell(sv.shedQueries)});
        table.addRow({"shed rate", TextTable::cell(sv.shedRate)});
        table.addRow({"degraded", TextTable::cell(sv.degraded)});
        table.addRow({"cache hits", TextTable::cell(sv.cacheHits)});
        table.addRow({"result-cache hit rate",
                      TextTable::cell(sv.resultCacheHitRate)});
        table.addRow({"stats-cache hit rate",
                      TextTable::cell(sv.statsCacheHitRate)});
        table.addRow({"offered QPS", TextTable::cell(sv.offeredQps, 1)});
        table.addRow({"achieved QPS",
                      TextTable::cell(sv.achievedQps, 1)});
        table.addRow({"avg latency ms",
                      TextTable::cell(sv.run.avgLatencySeconds * 1e3)});
        table.addRow({"p95 latency ms",
                      TextTable::cell(sv.run.p95LatencySeconds * 1e3)});
        table.addRow({"p99 latency ms",
                      TextTable::cell(sv.run.p99LatencySeconds * 1e3)});
        table.addRow({"avg P@10", TextTable::cell(sv.run.avgPrecision)});
        table.addRow({"avg power W",
                      TextTable::cell(sv.run.avgPowerWatts, 2)});
        std::cout << "\n" << table.render();
        if (serving.metrics) {
            std::cout << "\n" << serving.metrics->toAsciiReport();
            std::cout << "wrote metrics to "
                      << experiment.config().metricsOut << "\n";
        }
        if (flags.getBool("json", false))
            std::cout << "\n" << toJson(sv) << "\n";
        return 0;
    }

    const RunResult result = experiment.run(policyName, flavor);

    const std::string csvPath = flags.getString("csv", "");
    std::ofstream csvFile;
    std::ostream *csv = nullptr;
    if (!csvPath.empty()) {
        csvFile.open(csvPath);
        if (!csvFile)
            fatal("cannot open " + csvPath);
        csv = &csvFile;
    }
    if (csv != nullptr) {
        *csv << "query,arrival_s,latency_ms,p_at_10,isns_used,"
                "isns_boosted,c_res,budget_ms\n";
        for (const QueryMeasurement &m : result.measurements) {
            *csv << m.id << ',' << m.arrivalSeconds << ','
                 << m.latencySeconds * 1e3 << ',' << m.precisionAtK << ','
                 << m.isnsUsed << ',' << m.isnsBoosted << ','
                 << m.docsSearched << ','
                 << (m.budgetSeconds == noBudget ? -1.0
                                                 : m.budgetSeconds * 1e3)
                 << '\n';
        }
        std::cout << "wrote " << result.measurements.size()
                  << " rows to " << csvPath << "\n";
    }

    const RunSummary &s = result.summary;
    TextTable summary({"metric", "value"});
    summary.addRow({"policy", s.policy});
    summary.addRow({"trace", s.trace});
    summary.addRow({"queries", TextTable::cell(
                                   static_cast<uint64_t>(s.queries))});
    summary.addRow({"avg latency ms",
                    TextTable::cell(s.avgLatencySeconds * 1e3)});
    summary.addRow({"p95 latency ms",
                    TextTable::cell(s.p95LatencySeconds * 1e3)});
    summary.addRow({"p99 latency ms",
                    TextTable::cell(s.p99LatencySeconds * 1e3)});
    summary.addRow({"avg P@10", TextTable::cell(s.avgPrecision)});
    summary.addRow({"avg ISNs/query", TextTable::cell(s.avgIsnsUsed, 2)});
    summary.addRow({"avg boosted/query",
                    TextTable::cell(s.avgIsnsBoosted, 2)});
    summary.addRow({"avg C_RES docs",
                    TextTable::cell(s.avgDocsSearched, 0)});
    summary.addRow({"truncated responses",
                    TextTable::cell(s.truncatedResponses)});
    summary.addRow({"avg P@10 (NDCG)", TextTable::cell(s.avgNdcg)});
    summary.addRow({"avg power W", TextTable::cell(s.avgPowerWatts, 2)});
    summary.addRow({"busy energy J", TextTable::cell(s.energyJoules, 1)});
    std::cout << "\n" << summary.render();

    if (result.trace)
        std::cout << "\nwrote " << result.trace->records().size()
                  << " trace records to " << experiment.config().traceOut
                  << "\n";
    if (result.metrics) {
        std::cout << "\n" << result.metrics->toAsciiReport();
        std::cout << "wrote metrics to "
                  << experiment.config().metricsOut << "\n";
    }

    if (flags.getBool("json", false))
        std::cout << "\n" << toJson(s) << "\n";
    return 0;
}
