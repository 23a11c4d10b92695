/**
 * @file
 * Tests for run summarization and the harness table printer.
 */

#include <gtest/gtest.h>

#include "harness/table.h"
#include "metrics/run_stats.h"

namespace cottage {
namespace {

QueryMeasurement
measurement(double latencyMs, double precision, uint32_t used,
            uint32_t completed, uint64_t docs,
            double budgetSeconds = noBudget)
{
    QueryMeasurement m;
    m.latencySeconds = latencyMs * 1e-3;
    m.precisionAtK = precision;
    m.isnsUsed = used;
    m.isnsCompleted = completed;
    m.docsSearched = docs;
    m.budgetSeconds = budgetSeconds;
    return m;
}

TEST(RunStats, SummarizesKnownValues)
{
    std::vector<QueryMeasurement> measurements;
    for (int i = 1; i <= 100; ++i)
        measurements.push_back(
            measurement(static_cast<double>(i), 0.9, 8, 7, 100));

    const RunSummary summary =
        summarizeRun("cottage", "wikipedia", measurements);
    EXPECT_EQ(summary.policy, "cottage");
    EXPECT_EQ(summary.trace, "wikipedia");
    EXPECT_EQ(summary.queries, 100u);
    EXPECT_NEAR(summary.avgLatencySeconds, 50.5e-3, 1e-9);
    EXPECT_NEAR(summary.p50LatencySeconds, 50.5e-3, 1e-6);
    EXPECT_NEAR(summary.p95LatencySeconds, 95.05e-3, 1e-4);
    EXPECT_NEAR(summary.maxLatencySeconds, 100e-3, 1e-12);
    EXPECT_NEAR(summary.avgPrecision, 0.9, 1e-12);
    EXPECT_NEAR(summary.avgIsnsUsed, 8.0, 1e-12);
    EXPECT_NEAR(summary.avgDocsSearched, 100.0, 1e-12);
    // One truncated response per query (8 used, 7 completed).
    EXPECT_EQ(summary.truncatedResponses, 100u);
}

TEST(RunStats, BudgetAveragesOnlyBudgetedQueries)
{
    std::vector<QueryMeasurement> measurements;
    measurements.push_back(measurement(1, 1, 4, 4, 10));
    measurements.push_back(measurement(1, 1, 4, 4, 10, 0.020));
    measurements.push_back(measurement(1, 1, 4, 4, 10, 0.040));
    const RunSummary summary = summarizeRun("x", "y", measurements);
    EXPECT_NEAR(summary.avgBudgetSeconds, 0.030, 1e-12);
}

TEST(RunStats, EmptyRunIsAllZero)
{
    const RunSummary summary = summarizeRun("x", "y", {});
    EXPECT_EQ(summary.queries, 0u);
    EXPECT_DOUBLE_EQ(summary.avgLatencySeconds, 0.0);
    EXPECT_DOUBLE_EQ(summary.avgPrecision, 0.0);
}

TEST(RunStats, AccumulatorFinishIsRepeatableMidStream)
{
    // serve() folds records as they arrive; a finish() part-way (which
    // sorts the latencies it holds) must not perturb later ones.
    std::vector<QueryMeasurement> measurements;
    RunAccumulator accumulator;
    for (int i = 0; i < 50; ++i) {
        measurements.push_back(measurement((i * 37) % 11 + 0.25 * i,
                                           0.1 * (i % 10), 8, 8 - i % 3,
                                           10 + i, 0.01 * (i % 4)));
        accumulator.add(measurements.back());
        if (i == 20)
            accumulator.finish("p", "t");
    }
    const std::string once = toJson(accumulator.finish("p", "t"));
    EXPECT_EQ(once, toJson(accumulator.finish("p", "t")));
    EXPECT_EQ(once, toJson(summarizeRun("p", "t", measurements)));
}

TEST(RunStats, LatencySeriesPreservesOrder)
{
    std::vector<QueryMeasurement> measurements;
    measurements.push_back(measurement(5, 1, 4, 4, 10));
    measurements.push_back(measurement(2, 1, 4, 4, 10));
    const std::vector<double> series = latencySeries(measurements);
    ASSERT_EQ(series.size(), 2u);
    EXPECT_NEAR(series[0], 5e-3, 1e-12);
    EXPECT_NEAR(series[1], 2e-3, 1e-12);
}

TEST(RunStats, JsonContainsEveryHeadlineField)
{
    std::vector<QueryMeasurement> measurements;
    measurements.push_back(measurement(10, 0.9, 8, 8, 100, 0.02));
    RunSummary summary = summarizeRun("cottage", "wikipedia", measurements);
    summary.avgPowerWatts = 21.5;
    summary.energyJoules = 3.25;
    summary.durationSeconds = 12.0;

    const std::string json = toJson(summary);
    for (const char *key :
         {"\"policy\":\"cottage\"", "\"trace\":\"wikipedia\"",
          "\"queries\":1", "\"avg_latency_s\":0.01",
          "\"avg_precision\":0.9", "\"avg_ndcg\":", "\"avg_power_w\":21.5",
          "\"energy_j\":3.25", "\"avg_budget_s\":0.02"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key << "\n"
                                                     << json;
    }
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"policy", "value"});
    table.addRow({"exhaustive", TextTable::cell(1.5, 2)});
    table.addRow({"x", TextTable::cell(static_cast<uint64_t>(42))});
    const std::string out = table.render();
    EXPECT_NE(out.find("policy"), std::string::npos);
    EXPECT_NE(out.find("exhaustive  1.50"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, CellFormatting)
{
    EXPECT_EQ(TextTable::cell(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::cell(3.14159, 4), "3.1416");
    EXPECT_EQ(TextTable::cell(static_cast<uint64_t>(7)), "7");
}

} // namespace
} // namespace cottage
