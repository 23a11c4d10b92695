#include "obs/query_tracer.h"

#include <ostream>

#include "util/string_util.h"

namespace cottage {

void
QueryTracer::record(QueryTraceRecord record)
{
    SerialLock section(gate_);
    if (sink_ != nullptr) {
        *sink_ << toJsonLine(record, sinkPolicy_, sinkTrace_) << '\n';
        if (++sinkUnflushed_ >= sinkFlushEvery_) {
            sink_->flush();
            sinkUnflushed_ = 0;
        }
    }
    records_.push_back(std::move(record));
}

void
QueryTracer::streamTo(std::ostream *out, std::string policy,
                      std::string trace, std::size_t flushEvery)
{
    SerialLock section(gate_);
    if (sink_ != nullptr)
        sink_->flush();
    sink_ = out;
    sinkPolicy_ = std::move(policy);
    sinkTrace_ = std::move(trace);
    sinkFlushEvery_ = flushEvery > 0 ? flushEvery : 1;
    sinkUnflushed_ = 0;
}

void
QueryTracer::flushSink()
{
    SerialLock section(gate_);
    if (sink_ != nullptr) {
        sink_->flush();
        sinkUnflushed_ = 0;
    }
}

std::string
QueryTracer::toJsonLine(const QueryTraceRecord &record,
                        const std::string &policy,
                        const std::string &trace)
{
    std::string out = "{";
    out += "\"query\":" + jsonNumber(static_cast<double>(record.id));
    out += ",\"tenant\":" + jsonNumber(static_cast<double>(record.tenant));
    out += ",\"policy\":" + jsonQuote(policy);
    out += ",\"trace\":" + jsonQuote(trace);
    out += ",\"arrival_s\":" + jsonNumber(record.arrivalSeconds);
    out += ",\"dispatch_s\":" + jsonNumber(record.dispatchSeconds);
    out += ",\"budget_s\":";
    out += record.budgetSeconds < 0.0 ? "null"
                                      : jsonNumber(record.budgetSeconds);
    out += ",\"decision_s\":" + jsonNumber(record.decisionOverheadSeconds);
    out += ",\"rtt_s\":" + jsonNumber(record.rttSeconds);
    out += ",\"waited_s\":" + jsonNumber(record.waitedSeconds);
    out += ",\"merge_s\":" + jsonNumber(record.mergeSeconds);
    out += ",\"latency_s\":" + jsonNumber(record.latencySeconds);
    out += ",\"isns\":[";
    for (std::size_t i = 0; i < record.isns.size(); ++i) {
        const IsnSpan &span = record.isns[i];
        if (i > 0)
            out += ",";
        out += "{\"isn\":" + jsonNumber(static_cast<double>(span.isn));
        out += ",\"queue_wait_s\":" + jsonNumber(span.queueWaitSeconds);
        out += ",\"start_s\":" + jsonNumber(span.serviceStartSeconds);
        out += ",\"finish_s\":" + jsonNumber(span.serviceFinishSeconds);
        out += ",\"busy_s\":" + jsonNumber(span.busySeconds);
        out += ",\"cycles\":" + jsonNumber(span.cycles);
        out += ",\"freq_ghz\":" + jsonNumber(span.freqGhz);
        out += ",\"cores\":" + jsonNumber(static_cast<double>(span.cores));
        out += ",\"boosted\":";
        out += span.boosted ? "true" : "false";
        out += ",\"energy_j\":" + jsonNumber(span.energyJoules);
        out += ",\"completed\":";
        out += span.completed ? "true" : "false";
        out += ",\"fraction\":" + jsonNumber(span.completedFraction);
        out += ",\"docs\":" + jsonNumber(static_cast<double>(span.docsScored));
        out += ",\"docs_skipped\":" +
               jsonNumber(static_cast<double>(span.docsSkipped));
        out += ",\"blocks_decoded\":" +
               jsonNumber(static_cast<double>(span.blocksDecoded));
        out += ",\"blocks_skipped\":" +
               jsonNumber(static_cast<double>(span.blocksSkipped));
        out += ",\"partial\":";
        out += span.partial ? "true" : "false";
        out += "}";
    }
    out += "]}";
    return out;
}

void
QueryTracer::writeJsonl(std::ostream &out, const std::string &policy,
                        const std::string &trace) const
{
    // Flush per batch, not per line: the tail of the export must not
    // depend on a destructor the caller may never reach (mid-run
    // abort), while per-line flushing would syscall-bind large dumps.
    constexpr std::size_t kFlushBatch = 256;
    std::size_t unflushed = 0;
    for (const QueryTraceRecord &record : records_) {
        out << toJsonLine(record, policy, trace) << '\n';
        if (++unflushed >= kFlushBatch) {
            out.flush();
            unflushed = 0;
        }
    }
    out.flush();
}

} // namespace cottage
