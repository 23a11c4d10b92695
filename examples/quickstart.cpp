/**
 * @file
 * Quickstart: build the reproduction stack on a small corpus, replay a
 * query trace under every policy, and print the headline comparison
 * (latency / P@10 / active ISNs / C_RES / power) — the whole paper in
 * one table.
 *
 * Usage:
 *   quickstart [--docs=20000] [--queries=2000] [--qps=80] [--shards=16]
 */

#include <cstdio>
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
    if (!flags.has("docs"))
        config.corpus.numDocs = 20000;
    if (!flags.has("queries"))
        config.traceQueries = 2000;
    if (!flags.has("train-queries"))
        config.trainQueries = 1500;
    config.print(std::cout);

    Experiment experiment(std::move(config));

    TextTable table({"policy", "avg ms", "p95 ms", "P@10", "ISNs/query",
                     "C_RES", "power W"});
    for (const char *name :
         {"exhaustive", "aggregation", "rank-s", "taily",
          "cottage", "cottage-isn", "cottage-without-ml"}) {
        const RunResult result =
            experiment.run(name, TraceFlavor::Wikipedia);
        const RunSummary &s = result.summary;
        table.addRow({s.policy, TextTable::cell(s.avgLatencySeconds * 1e3),
                      TextTable::cell(s.p95LatencySeconds * 1e3),
                      TextTable::cell(s.avgPrecision),
                      TextTable::cell(s.avgIsnsUsed, 2),
                      TextTable::cell(s.avgDocsSearched, 0),
                      TextTable::cell(s.avgPowerWatts, 2)});
    }
    std::cout << "\nwikipedia trace, " << experiment.config().traceQueries
              << " queries\n"
              << table.render()
              << "\nidle power: " << experiment.config().power.idleWatts
              << " W\n";
    return 0;
}
