/**
 * @file
 * Shared helper of the bench harnesses: build the experiment from the
 * command-line flags.
 */

#ifndef COTTAGE_BENCH_BENCH_COMMON_H
#define COTTAGE_BENCH_BENCH_COMMON_H

#include <iostream>

#include "harness/experiment.h"
#include "util/cli.h"

namespace cottage::bench {

/**
 * Standard bench experiment construction: the config from CLI flags,
 * with @p defaultQueries queries per trace unless --queries is given
 * (3000 by default, so a full bench sweep stays tractable), echoed to
 * @p echo. Honors `--threads=N` (default: hardware concurrency; 1 =
 * the sequential baseline for determinism checks and speedup
 * baselines).
 */
inline Experiment
makeBenchExperiment(int argc, char **argv, uint64_t defaultQueries = 3000,
                    std::ostream &echo = std::cout)
{
    const CliFlags flags(argc, argv);
    ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    if (!flags.has("queries"))
        config.traceQueries = defaultQueries;
    config.print(echo);
    return Experiment(std::move(config));
}

} // namespace cottage::bench

#endif // COTTAGE_BENCH_BENCH_COMMON_H
