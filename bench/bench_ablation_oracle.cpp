/**
 * @file
 * Extension ablation (not a paper figure): prediction headroom and the
 * value of per-query budgets.
 *
 *  - oracle      : Algorithm 1 on ground-truth quality and cycles —
 *                  the ceiling Cottage approaches as its predictors
 *                  improve.
 *  - cottage     : the full system with learned predictors.
 *  - cottage-isn : no coordination (predictors only).
 *  - slo-dvfs    : the prior regime the paper argues against — the
 *                  budget is a fixed SLO given a priori and DVFS just
 *                  tracks it; nothing is ever cut.
 *  - exhaustive  : no management at all.
 */

#include <iostream>

#include "bench_common.h"
#include "harness/table.h"

using namespace cottage;
using namespace cottage::bench;

int
main(int argc, char **argv)
{
    Experiment experiment = makeBenchExperiment(argc, argv);
    const std::vector<std::string> policies = {
        "exhaustive", "slo-dvfs", "cottage-isn", "cottage", "oracle"};

    std::cout << "\n=== ablation: prediction headroom and budget source "
                 "(wikipedia trace, SLO "
              << TextTable::cell(experiment.config().sloSeconds * 1e3, 0)
              << " ms for slo-dvfs) ===\n";
    TextTable table({"policy", "avg ms", "p95 ms", "P@10", "ISNs",
                     "power W"});
    for (const std::string &policy : policies) {
        const RunResult result =
            experiment.run(policy, TraceFlavor::Wikipedia);
        const RunSummary &s = result.summary;
        table.addRow({policy, TextTable::cell(s.avgLatencySeconds * 1e3, 2),
                      TextTable::cell(s.p95LatencySeconds * 1e3, 2),
                      TextTable::cell(s.avgPrecision, 3),
                      TextTable::cell(s.avgIsnsUsed, 2),
                      TextTable::cell(s.avgPowerWatts, 2)});
    }
    std::cout << table.render();
    std::cout << "\nreading: (oracle - cottage) is the cost of imperfect "
                 "predictions; (slo-dvfs - cottage) is the value of "
                 "determining the budget per query instead of assuming "
                 "it.\n";
    return 0;
}
