/**
 * @file
 * Extension ablation (not a paper figure): the design-choice knobs
 * DESIGN.md calls out.
 *
 *  (a) budget slack — how much deadline margin the conservative cycle
 *      predictions need before quality saturates;
 *  (b) participation threshold — the recall bias of the quality gate,
 *      trading ISNs (power) against P@10;
 *  (c) partition policy — topical vs random document allocation, i.e.
 *      how much of Cottage's win depends on shards being distinct.
 */

#include <iostream>

#include "bench_common.h"
#include "core/cottage_policy.h"
#include "harness/table.h"

using namespace cottage;
using namespace cottage::bench;

namespace {

void
printRun(TextTable &table, const std::string &label, const RunResult &run)
{
    const RunSummary &s = run.summary;
    table.addRow({label, TextTable::cell(s.avgLatencySeconds * 1e3, 2),
                  TextTable::cell(s.avgPrecision, 3),
                  TextTable::cell(s.avgIsnsUsed, 2),
                  TextTable::cell(
                      static_cast<double>(s.truncatedResponses) /
                          static_cast<double>(s.queries),
                      3),
                  TextTable::cell(s.avgPowerWatts, 2)});
}

} // namespace

int
main(int argc, char **argv)
{
    const CliFlags flags(argc, argv);
    ExperimentConfig base = ExperimentConfig::fromFlags(flags);
    if (!flags.has("queries"))
        base.traceQueries = 3000;

    {
        Experiment experiment(base);
        std::cout << "\n=== (a) budget slack sweep ===\n";
        TextTable table({"slack", "avg ms", "P@10", "ISNs",
                         "truncated/query", "power W"});
        for (double slack : {1.0, 1.25, 1.5, 2.0, 3.0}) {
            CottageConfig config = base.cottage;
            config.budgetSlack = slack;
            CottagePolicy policy(experiment.bank(), config);
            printRun(table, TextTable::cell(slack, 2),
                     experiment.run(policy, TraceFlavor::Wikipedia));
        }
        std::cout << table.render();

        std::cout << "\n=== (b) participation threshold sweep ===\n";
        TextTable table2({"threshold", "avg ms", "P@10", "ISNs",
                          "truncated/query", "power W"});
        for (double threshold : {0.05, 0.1, 0.15, 0.3, 0.5}) {
            CottageConfig config = base.cottage;
            config.participationThreshold = threshold;
            config.halfThreshold = std::max(threshold, 0.2);
            CottagePolicy policy(experiment.bank(), config);
            printRun(table2, TextTable::cell(threshold, 2),
                     experiment.run(policy, TraceFlavor::Wikipedia));
        }
        std::cout << table2.render();
    }

    std::cout << "\n=== (c) partition policy (shards distinct vs "
                 "statistically identical) ===\n";
    TextTable table3({"partition", "avg ms", "P@10", "ISNs",
                      "truncated/query", "power W"});
    for (const PartitionPolicy partition :
         {PartitionPolicy::Topical, PartitionPolicy::Random}) {
        ExperimentConfig config = base;
        config.shards.partition = partition;
        Experiment experiment(std::move(config));
        const RunResult run =
            experiment.run("cottage", TraceFlavor::Wikipedia);
        printRun(table3, partitionPolicyName(partition), run);
    }
    std::cout << table3.render();
    std::cout << "\nreading: random partitioning erases the per-shard "
                 "signal the quality predictor needs (DESIGN.md §6).\n";
    return 0;
}
