/**
 * @file
 * Intra-query parallel speedup curve.
 *
 * When an ISN spreads one query's traversal over k cores (the
 * engine's parallelShardSearch), service time does not divide by k:
 * the merge, the pool round-trip and slice imbalance stay serial.
 * The sublinear curve here is Amdahl-form, S(k) = k / (1 + a(k-1)),
 * with the serial fraction `a` a paper-scale assumption: nothing has
 * fitted it yet. BENCH_parallelism.json is untimed (its fitted_alpha
 * reads 0 for every evaluator), and on hosts where a gang's workers
 * do not run in parallel, 4 cores measure slower than 1, so `a` stays
 * assumed until a timed gang sweep fits it (ROADMAP item 4).
 * The cycle count fed to the simulator already includes the counted
 * parallel overhead — each slice's pruning threshold warms up
 * independently, so a k-slice run reports more work than a sequential
 * one. S(k) covers only the UNcounted overhead on top of that.
 */

#ifndef COTTAGE_SIM_SPEEDUP_H
#define COTTAGE_SIM_SPEEDUP_H

#include <cstdint>

namespace cottage {

/** Amdahl-style sublinear speedup for k-core query execution. */
struct SpeedupCurve
{
    /**
     * Serial fraction of a parallel traversal: the share of its
     * wall time that does not scale with cores (merge, dispatch,
     * slice imbalance). The default is the paper-scale assumption,
     * not a measurement, until ROADMAP item 4 fits it.
     */
    double serialFraction = 0.08;

    /** S(k): how much faster k cores finish one query. S(1) = 1. */
    double
    speedup(uint32_t cores) const
    {
        if (cores <= 1)
            return 1.0;
        const double k = static_cast<double>(cores);
        return k / (1.0 + serialFraction * (k - 1.0));
    }
};

} // namespace cottage

#endif // COTTAGE_SIM_SPEEDUP_H
