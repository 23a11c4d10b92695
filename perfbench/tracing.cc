#include "tracing.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

int64_t
nowNs()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

int64_t
SpanRecorder::add(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t
SpanRecorder::open(const char *name, int64_t parent, uint64_t query,
                   int64_t startNs)
{
    return add(Span{name, startNs, startNs, parent, query});
}

void
SpanRecorder::close(int64_t id, int64_t endNs, const char *rename)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span &span = spans_.at(static_cast<std::size_t>(id));
    span.endNs = endNs;
    if (rename != nullptr)
        span.name = rename;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<Span>(spans_.begin(), spans_.end());
}

bool
SpanRecorder::writeJsonl(const std::string &path, uint64_t queryLimit) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t id = 0; id < spans_.size(); ++id) {
        const Span &span = spans_[id];
        if (span.query >= queryLimit)
            continue;
        out << "{\"id\":" << id << ",\"name\":\"" << span.name
            << "\",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs
            << ",\"parent\":" << span.parent
            << ",\"query\":" << span.query << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

int64_t
unionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo,
              int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    int64_t total = 0;
    int64_t coveredUntil = lo;
    for (const auto &[start, end] : intervals) {
        const int64_t from = std::max(start, coveredUntil);
        const int64_t to = std::min(end, hi);
        if (to > from) {
            total += to - from;
            coveredUntil = to;
        }
    }
    return total;
}

cottage::SearchResult
TimedEvaluator::search(const cottage::InvertedIndex &index,
                       const std::vector<cottage::WeightedTerm> &terms,
                       std::size_t k, uint64_t maxScoredDocs,
                       cottage::DocRange range) const
{
    const int64_t start = nowNs();
    cottage::SearchResult result =
        inner_->search(index, terms, k, maxScoredDocs, range);
    const int64_t end = nowNs();
    const SearchCall call{Span{"index.search", start, end,
                               parent_.load(std::memory_order_relaxed),
                               query_.load(std::memory_order_relaxed)},
                          result.work, maxScoredDocs != cottage::noDocCap};
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back(call);
    return result;
}

std::vector<SearchCall>
TimedEvaluator::calls() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<SearchCall>(calls_.begin(), calls_.end());
}

cottage::QueryPlan
TimedPolicy::plan(const cottage::Query &query,
                  const cottage::DistributedEngine &engine)
{
    finish();
    const int64_t start = nowNs();
    cottage::QueryPlan plan = inner_->plan(query, engine);
    const int64_t end = nowNs();

    PlanRecord record;
    record.query = query.id;
    record.planSpan =
        spans_->add(Span{"policy.plan", start, end, root_, query.id});
    record.participates.reserve(plan.isns.size());
    for (const cottage::IsnDirective &directive : plan.isns)
        record.participates.push_back(directive.participate ? 1 : 0);
    plans_.push_back(std::move(record));

    pendingStartNs_ = nowNs();
    pendingSpan_ =
        spans_->open("engine.execute", root_, query.id, pendingStartNs_);
    evaluator_->setParent(pendingSpan_, query.id);
    return plan;
}

void
TimedPolicy::observe(const cottage::QueryMeasurement &measurement)
{
    if (pendingSpan_ >= 0) {
        spans_->close(pendingSpan_, nowNs());
        plans_.back().executeSpan = pendingSpan_;
        pendingSpan_ = -1;
        evaluator_->setParent(root_, measurement.id);
    }
    inner_->observe(measurement);
}

void
TimedPolicy::finish()
{
    if (pendingSpan_ < 0)
        return;
    spans_->close(pendingSpan_, pendingStartNs_, "serve.rejected");
    pendingSpan_ = -1;
}

} // namespace perfbench
