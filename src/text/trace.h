/**
 * @file
 * Query traces: generation, replay ordering and (de)serialization.
 *
 * The paper drives its evaluation with two traces — a Wikipedia access
 * trace [27] and the Lucene nightly benchmark queries [9]. We replace
 * them with two synthetic trace flavors whose knobs (query length mix,
 * term-popularity exponent, arrival rate) are tuned to differ the same
 * way the paper's two traces differ: "wikipedia" has shorter queries
 * over more popular terms; "lucene" has longer queries over rarer
 * terms, i.e. more dispersed per-query work.
 */

#ifndef COTTAGE_TEXT_TRACE_H
#define COTTAGE_TEXT_TRACE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "text/query.h"
#include "util/rng.h"

namespace cottage {

/** Pre-defined trace flavors mirroring the paper's two workloads. */
enum class TraceFlavor {
    Wikipedia,
    Lucene,
};

/** Human-readable flavor name ("wikipedia" / "lucene"). */
const char *traceFlavorName(TraceFlavor flavor);

/** Parameters of a generated query trace. */
struct TraceConfig
{
    TraceFlavor flavor = TraceFlavor::Wikipedia;

    /** Number of queries to generate. */
    uint64_t numQueries = 10000;

    /** Vocabulary size to draw terms from (match the corpus). */
    uint32_t vocabSize = 60000;

    /** Mean arrival rate in queries per second (Poisson process). */
    double arrivalQps = 10.0;

    /**
     * Diurnal/bursty load: the instantaneous arrival rate is
     * qps * (1 + burstiness * sin(2*pi*t / burstPeriodSeconds)).
     * 0 (default) is a homogeneous Poisson process; values toward 1
     * produce the load spikes visible in the paper's Fig. 10 timeline.
     * Must lie in [0, 1).
     */
    double burstiness = 0.0;

    /** Period of the load oscillation, seconds. */
    double burstPeriodSeconds = 20.0;

    /**
     * Fraction of queries carrying personalized term weights (the
     * paper's future-work scenario). 0 (default) reproduces the
     * paper's unpersonalized evaluation.
     */
    double personalizedFraction = 0.0;

    /** Personalized weights draw uniformly from this range. */
    double minTermWeight = 0.5;
    double maxTermWeight = 2.0;

    /** Master seed. */
    uint64_t seed = 7;
};

/** An ordered sequence of timed queries. */
class QueryTrace
{
  public:
    QueryTrace() = default;

    /** Generate a trace of the given flavor. */
    static QueryTrace generate(const TraceConfig &config);

    /**
     * Parse a trace from its serialized form. Malformed input (a bad
     * token, a NaN/Inf or negative arrival, a term id outside
     * TermId's range, a line without terms) exits 2 with a
     * diagnostic naming the line (CheckedReader).
     */
    static QueryTrace load(std::istream &in);

    /** Serialize: one line per query, "arrival term term ...". */
    void save(std::ostream &out) const;

    const std::vector<Query> &queries() const { return queries_; }
    std::size_t size() const { return queries_.size(); }
    const Query &query(std::size_t i) const { return queries_.at(i); }

    /** Simulated duration: arrival time of the last query. */
    double durationSeconds() const;

    /** Flavor name this trace was generated with ("custom" if loaded). */
    const std::string &name() const { return name_; }

    /** Append a query (used by tests and custom workloads). */
    void append(Query query);

    /** Set the trace name. */
    void setName(std::string name) { name_ = std::move(name); }

  private:
    std::string name_ = "custom";
    std::vector<Query> queries_;
};

} // namespace cottage

#endif // COTTAGE_TEXT_TRACE_H
