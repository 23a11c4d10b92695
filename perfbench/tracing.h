/**
 * @file
 * Host-time tracing for the benchmark's traced run, recorded entirely
 * from outside the program: a span recorder plus timing decorators
 * around the two virtual interfaces the stack calls through (Policy and
 * Evaluator). Nothing here changes what the wrapped objects compute, so
 * every simulated output of a traced pass is byte-identical to an
 * untraced one (the benchmark checks this with a digest).
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "index/evaluator.h"
#include "policy/policy.h"

namespace perfbench {

/** Nanoseconds on the steady clock since the first call in the process. */
int64_t nowNs();

/** One timed interval. parent = -1 for a root span. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1;
    uint64_t query = 0;
};

/**
 * In-memory span store. Thread-safe: evaluator spans arrive from the
 * pool's workers while the replay thread records plan/execute spans.
 * Spans are written out once, at the end of the run.
 */
class SpanRecorder
{
  public:
    /** Append a finished span; returns its id. */
    int64_t add(const Span &span);

    /** Append a span whose end is not yet known; returns its id. */
    int64_t open(const char *name, int64_t parent, uint64_t query,
                 int64_t startNs);

    /**
     * Set the end of a span opened with open(); a non-null @p rename
     * replaces its name (used for spans that turned out to be something
     * else, such as an execute interval the admission ladder rejected).
     */
    void close(int64_t id, int64_t endNs, const char *rename = nullptr);

    /** Snapshot of every span, in id order. */
    std::vector<Span> spans() const;

    /**
     * Write one JSON object per span of the queries with id below
     * @p queryLimit (spans outside any query carry id 0). Returns false
     * on an I/O error.
     */
    bool writeJsonl(const std::string &path, uint64_t queryLimit) const;

  private:
    mutable std::mutex mutex_;
    /** A deque: appending never moves the spans already recorded, so
     *  the lock is never held across a reallocation. */
    std::deque<Span> spans_;
};

/** Length of the union of [start, end) intervals, clipped to [lo, hi). */
int64_t unionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

/** One Evaluator::search call as the decorator saw it. */
struct SearchCall
{
    Span span;
    cottage::SearchWork work;
    /** Called with a docs cap: an anytime re-run of a truncated ISN. */
    bool capped = false;
};

/**
 * Evaluator decorator: times every search() and keeps its span and work
 * counters (apart from the SpanRecorder, so a search takes one lock).
 * The parent span (the query's engine.execute span) is set by the
 * replay thread before the engine fans out.
 */
class TimedEvaluator : public cottage::Evaluator
{
  public:
    explicit TimedEvaluator(const cottage::Evaluator &inner) : inner_(&inner)
    {
    }

    const char *name() const override { return inner_->name(); }

    cottage::SearchResult search(const cottage::InvertedIndex &index,
                                 const std::vector<cottage::WeightedTerm> &terms,
                                 std::size_t k, uint64_t maxScoredDocs,
                                 cottage::DocRange range) const override;

    using cottage::Evaluator::search;

    /** Parent span and query id of the searches that follow. */
    void
    setParent(int64_t span, uint64_t query)
    {
        parent_.store(span, std::memory_order_relaxed);
        query_.store(query, std::memory_order_relaxed);
    }

    std::vector<SearchCall> calls() const;

  private:
    const cottage::Evaluator *inner_;
    std::atomic<int64_t> parent_{-1};
    std::atomic<uint64_t> query_{0};
    mutable std::mutex mutex_;
    mutable std::deque<SearchCall> calls_;
};

/** What the policy decided for one planned query. */
struct PlanRecord
{
    uint64_t query = 0;
    int64_t planSpan = -1;
    /** engine.execute span, or -1 when the query was never executed. */
    int64_t executeSpan = -1;
    std::vector<char> participates;
};

/**
 * Policy decorator: times plan() and treats the interval from plan()
 * returning to observe() as the engine's execute span (in replay and in
 * serving, execute() is the only call between the two). A query the
 * admission ladder sheds is never observed: its interval is closed at
 * zero length and renamed serve.rejected.
 */
class TimedPolicy : public cottage::Policy
{
  public:
    TimedPolicy(cottage::Policy &inner, SpanRecorder &spans,
                TimedEvaluator &evaluator, int64_t root)
        : inner_(&inner), spans_(&spans), evaluator_(&evaluator),
          root_(root)
    {
    }

    const char *name() const override { return inner_->name(); }

    cottage::QueryPlan plan(const cottage::Query &query,
                            const cottage::DistributedEngine &engine) override;

    void observe(const cottage::QueryMeasurement &measurement) override;

    void reset() override { inner_->reset(); }

    /** Close a pending interval left by a query that was never observed. */
    void finish();

    const std::vector<PlanRecord> &plans() const { return plans_; }

  private:
    cottage::Policy *inner_;
    SpanRecorder *spans_;
    TimedEvaluator *evaluator_;
    int64_t root_;
    /** The execute span opened at plan() return, or -1. */
    int64_t pendingSpan_ = -1;
    int64_t pendingStartNs_ = 0;
    std::vector<PlanRecord> plans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
