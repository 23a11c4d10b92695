#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace cottage {

void
MetricsRegistry::incr(const std::string &name, uint64_t delta)
{
    SerialLock section(gate_);
    counters_[name] += delta;
}

uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    SerialLock section(gate_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, double lo, double hi,
                           std::size_t bins, bool logScale)
{
    SerialLock section(gate_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name, logScale ? Histogram::logarithmic(lo, hi,
                                                                  bins)
                                         : Histogram::linear(lo, hi, bins))
                 .first;
    }
    return it->second;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    SerialLock section(gate_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::configureWindows(double windowSeconds, double idleWatts)
{
    COTTAGE_CHECK_MSG(windowSeconds > 0.0,
                      "power window must be positive");
    SerialLock section(gate_);
    windowSeconds_ = windowSeconds;
    idleWatts_ = idleWatts;
    windows_.clear();
}

void
MetricsRegistry::addWindowSample(double timeSeconds, double energyJoules,
                                 uint64_t queries)
{
    SerialLock section(gate_);
    COTTAGE_CHECK_MSG(windowSeconds_ > 0.0,
                      "window series not configured");
    const auto index = static_cast<std::size_t>(
        std::max(0.0, timeSeconds) / windowSeconds_);
    if (index >= windows_.size())
        windows_.resize(index + 1);
    windows_[index].energyJoules += energyJoules;
    windows_[index].queries += queries;
}

double
MetricsRegistry::windowPowerWatts(std::size_t window) const
{
    SerialLock section(gate_);
    return windowPowerLocked(window);
}

double
MetricsRegistry::windowPowerLocked(std::size_t window) const
{
    COTTAGE_CHECK(window < windows_.size());
    return idleWatts_ + windows_[window].energyJoules / windowSeconds_;
}

void
MetricsRegistry::clear()
{
    SerialLock section(gate_);
    counters_.clear();
    histograms_.clear();
    windows_.clear();
}

std::string
MetricsRegistry::toJson(const std::string &policy,
                        const std::string &trace) const
{
    SerialLock section(gate_);
    std::string out = "{";
    out += "\"policy\":" + jsonQuote(policy);
    out += ",\"trace\":" + jsonQuote(trace);

    out += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        if (!first)
            out += ",";
        first = false;
        out += jsonQuote(name) + ":" +
               jsonNumber(static_cast<double>(value));
    }
    out += "}";

    out += ",\"histograms\":{";
    first = true;
    for (const auto &[name, histogram] : histograms_) {
        if (!first)
            out += ",";
        first = false;
        out += jsonQuote(name) + ":{";
        out += "\"lo\":" + jsonNumber(histogram.binLow(0));
        out += ",\"hi\":" +
               jsonNumber(histogram.binHigh(histogram.bins() - 1));
        out += ",\"total\":" +
               jsonNumber(static_cast<double>(histogram.totalCount()));
        out += ",\"counts\":[";
        for (std::size_t b = 0; b < histogram.bins(); ++b) {
            if (b > 0)
                out += ",";
            out += jsonNumber(static_cast<double>(histogram.count(b)));
        }
        out += "]}";
    }
    out += "}";

    out += ",\"windows\":{";
    out += "\"window_s\":" + jsonNumber(windowSeconds_);
    out += ",\"idle_w\":" + jsonNumber(idleWatts_);
    out += ",\"energy_j\":[";
    for (std::size_t w = 0; w < windows_.size(); ++w) {
        if (w > 0)
            out += ",";
        out += jsonNumber(windows_[w].energyJoules);
    }
    out += "],\"queries\":[";
    for (std::size_t w = 0; w < windows_.size(); ++w) {
        if (w > 0)
            out += ",";
        out += jsonNumber(static_cast<double>(windows_[w].queries));
    }
    out += "],\"power_w\":[";
    for (std::size_t w = 0; w < windows_.size(); ++w) {
        if (w > 0)
            out += ",";
        out += jsonNumber(windowPowerLocked(w));
    }
    out += "]}}";
    return out;
}

std::string
MetricsRegistry::toAsciiReport() const
{
    SerialLock section(gate_);
    std::string out;
    if (!counters_.empty()) {
        out += "counters:\n";
        for (const auto &[name, value] : counters_)
            out += strformat("  %-28s %12llu\n", name.c_str(),
                             static_cast<unsigned long long>(value));
    }
    for (const auto &[name, histogram] : histograms_) {
        out += strformat("histogram %s (%llu samples):\n", name.c_str(),
                         static_cast<unsigned long long>(
                             histogram.totalCount()));
        out += histogram.toAscii();
    }
    if (!windows_.empty()) {
        double peakPower = 0.0;
        double peakQps = 0.0;
        double totalEnergy = 0.0;
        uint64_t totalQueries = 0;
        for (std::size_t w = 0; w < windows_.size(); ++w) {
            peakPower = std::max(peakPower, windowPowerLocked(w));
            peakQps = std::max(
                peakQps, static_cast<double>(windows_[w].queries) /
                             windowSeconds_);
            totalEnergy += windows_[w].energyJoules;
            totalQueries += windows_[w].queries;
        }
        const double span =
            static_cast<double>(windows_.size()) * windowSeconds_;
        out += strformat(
            "power/qps series: %zu windows of %.0f ms, avg %.2f W "
            "(peak %.2f W), avg %.1f qps (peak %.1f qps)\n",
            windows_.size(), windowSeconds_ * 1e3,
            idleWatts_ + totalEnergy / span, peakPower,
            static_cast<double>(totalQueries) / span, peakQps);
    }
    return out;
}

} // namespace cottage
