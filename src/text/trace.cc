#include "text/trace.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/checked_reader.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace cottage {

namespace {

/** Per-flavor generation knobs. */
struct FlavorParams
{
    /** Probability of query lengths 1..4. */
    double lengthWeights[4];

    /** Zipf exponent for query-term popularity. */
    double termExponent;

    /**
     * Number of top vocabulary ranks (stopwords) excluded from queries;
     * users do not search for "the".
     */
    uint32_t stopwordRanks;

    /**
     * Zipf exponent of the mandatory content term. Every real query
     * carries at least one content-bearing (high-IDF) word — "canada
     * maple syrup", not "the of and" — and that term dominates the
     * BM25 sum. The content term is drawn from the vocabulary tail
     * beyond contentStart (see generate()).
     */
    double contentExponent;
};

FlavorParams
flavorParams(TraceFlavor flavor)
{
    switch (flavor) {
      case TraceFlavor::Wikipedia:
        // Short navigational queries over popular entities.
        return {{0.42, 0.36, 0.16, 0.06}, 0.85, 24, 0.8};
      case TraceFlavor::Lucene:
        // Longer, rarer-term queries: per-query work is more dispersed.
        return {{0.25, 0.38, 0.25, 0.12}, 0.65, 24, 0.55};
    }
    fatal("unknown trace flavor");
}

} // namespace

const char *
traceFlavorName(TraceFlavor flavor)
{
    switch (flavor) {
      case TraceFlavor::Wikipedia: return "wikipedia";
      case TraceFlavor::Lucene: return "lucene";
    }
    return "?";
}

QueryTrace
QueryTrace::generate(const TraceConfig &config)
{
    COTTAGE_CHECK_MSG(config.numQueries >= 1, "trace needs queries");
    COTTAGE_CHECK_MSG(config.arrivalQps > 0.0, "trace needs a positive QPS");

    const FlavorParams params = flavorParams(config.flavor);
    COTTAGE_CHECK_MSG(config.vocabSize > params.stopwordRanks + 4,
                      "vocabulary too small for query generation");

    Rng rng(config.seed);
    const ZipfSampler termPicker(config.vocabSize - params.stopwordRanks,
                                 params.termExponent);
    // Content terms live in the vocabulary tail (past the head of
    // globally-common words), matching the topic area of the synthetic
    // corpus: these are the entity/subject words of a query.
    const uint32_t contentStart =
        std::min<uint32_t>(256, config.vocabSize / 8);
    const ZipfSampler contentPicker(config.vocabSize - contentStart,
                                    params.contentExponent);
    const std::vector<double> lengthWeights(params.lengthWeights,
                                            params.lengthWeights + 4);

    COTTAGE_CHECK_MSG(config.burstiness >= 0.0 && config.burstiness < 1.0,
                      "burstiness must be in [0, 1)");

    QueryTrace trace;
    trace.name_ = traceFlavorName(config.flavor);
    trace.queries_.reserve(config.numQueries);
    double clock = 0.0;
    for (uint64_t i = 0; i < config.numQueries; ++i) {
        Query query;
        query.id = i;
        // Non-homogeneous Poisson arrivals (approximated by drawing
        // each gap at the instantaneous rate; exact for burstiness 0).
        double rate = config.arrivalQps;
        if (config.burstiness > 0.0) {
            rate *= 1.0 + config.burstiness *
                              std::sin(2.0 * M_PI * clock /
                                       config.burstPeriodSeconds);
        }
        clock += rng.exponential(rate);
        query.arrivalSeconds = clock;

        const std::size_t length = rng.discrete(lengthWeights) + 1;
        // Mandatory content term first.
        query.terms.push_back(static_cast<TermId>(
            contentStart + contentPicker.sample(rng) - 1));
        while (query.terms.size() < length) {
            const TermId term = static_cast<TermId>(
                params.stopwordRanks + termPicker.sample(rng) - 1);
            if (std::find(query.terms.begin(), query.terms.end(), term) ==
                query.terms.end()) {
                query.terms.push_back(term);
            }
        }
        if (config.personalizedFraction > 0.0 &&
            rng.bernoulli(config.personalizedFraction)) {
            query.weights.reserve(query.terms.size());
            for (std::size_t t = 0; t < query.terms.size(); ++t)
                query.weights.push_back(rng.uniform(
                    config.minTermWeight, config.maxTermWeight));
        }
        trace.queries_.push_back(std::move(query));
    }
    return trace;
}

QueryTrace
QueryTrace::load(std::istream &in)
{
    QueryTrace trace;
    std::string line;
    uint64_t lineNumber = 0;
    while (std::getline(in, line)) {
        ++lineNumber;
        line = trim(line);
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        CheckedReader reader(fields, "cottage query trace, line " +
                                         std::to_string(lineNumber));
        Query query;
        query.id = trace.queries_.size();
        query.arrivalSeconds = reader.finite("arrival");
        if (query.arrivalSeconds < 0.0)
            reader.fail("arrival: expected a non-negative time, got " +
                        std::to_string(query.arrivalSeconds));
        // At least one term; invalidTerm is the sentinel, not an id.
        do {
            query.terms.push_back(static_cast<TermId>(
                reader.integer("term", 0, invalidTerm - 1)));
        } while (!reader.atEnd());
        trace.queries_.push_back(std::move(query));
    }
    return trace;
}

void
QueryTrace::save(std::ostream &out) const
{
    out << "# cottage query trace: " << name_ << "\n";
    const auto oldPrecision = out.precision(12);
    for (const Query &query : queries_) {
        out << query.arrivalSeconds;
        for (TermId term : query.terms)
            out << ' ' << term;
        out << '\n';
    }
    out.precision(oldPrecision);
}

double
QueryTrace::durationSeconds() const
{
    return queries_.empty() ? 0.0 : queries_.back().arrivalSeconds;
}

void
QueryTrace::append(Query query)
{
    query.id = queries_.size();
    queries_.push_back(std::move(query));
}

} // namespace cottage
