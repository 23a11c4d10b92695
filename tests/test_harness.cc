/**
 * @file
 * Tests for the experiment harness: configuration flag overrides and
 * experiment-stack accessors.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "harness/experiment.h"

namespace cottage {
namespace {

TEST(ExperimentConfig, DefaultsMatchPaperSetup)
{
    const ExperimentConfig config;
    EXPECT_EQ(config.shards.numShards, 16u);
    EXPECT_EQ(config.shards.topK, 10u);
    EXPECT_EQ(config.traceQueries, 10000u);
    EXPECT_DOUBLE_EQ(config.power.idleWatts, 14.53);
}

TEST(ExperimentConfig, FlagsOverrideDefaults)
{
    const char *argv[] = {"prog",           "--docs=1234",
                          "--shards=5",     "--queries=99",
                          "--qps=12.5",     "--train-queries=55",
                          "--iterations=7", "--budget-slack=2.5",
                          "--k=20"};
    const CliFlags flags(9, argv);
    const ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    EXPECT_EQ(config.corpus.numDocs, 1234u);
    EXPECT_EQ(config.shards.numShards, 5u);
    EXPECT_EQ(config.shards.topK, 20u);
    EXPECT_EQ(config.traceQueries, 99u);
    EXPECT_DOUBLE_EQ(config.arrivalQps, 12.5);
    EXPECT_EQ(config.trainQueries, 55u);
    EXPECT_EQ(config.train.iterations, 7u);
    EXPECT_DOUBLE_EQ(config.cottage.budgetSlack, 2.5);
}

TEST(ExperimentConfigDeathTest, BadOperatorFlagsExitTwoNotAbort)
{
    // Each of these used to reach a library COTTAGE_CHECK and abort
    // (or, for --evaluator, a fatal exit 1); at the flag boundary they
    // are operator typos, so they get a usage hint and exit 2 like
    // --isn-cores=0.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto parse = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "prog");
        const CliFlags flags(static_cast<int>(argv.size()), argv.data());
        ExperimentConfig::fromFlags(flags);
    };
    EXPECT_EXIT(parse({"--metrics-out=m.json", "--power-window-ms=0"}),
                ::testing::ExitedWithCode(2),
                "power-window-ms.*strictly positive");
    EXPECT_EXIT(parse({"--serve", "--shed-backlog-ms=1",
                       "--degrade-backlog-ms=5"}),
                ::testing::ExitedWithCode(2),
                "shed-backlog-ms must be >= --degrade-backlog-ms");
    EXPECT_EXIT(parse({"--serve", "--qps=0"}),
                ::testing::ExitedWithCode(2), "qps.*strictly positive");
    EXPECT_EXIT(parse({"--qps=-350"}), ::testing::ExitedWithCode(2),
                "qps.*strictly positive");
    EXPECT_EXIT(parse({"--evaluator=bogus"}), ::testing::ExitedWithCode(2),
                "unknown evaluator: bogus");
    EXPECT_EXIT(parse({"--evaluator=bmm"}), ::testing::ExitedWithCode(2),
                "unknown evaluator: bmm");
    EXPECT_EXIT(parse({"--block-size=0"}), ::testing::ExitedWithCode(2),
                "block-size must be >= 1");
    EXPECT_EXIT(parse({"--shards=0"}), ::testing::ExitedWithCode(2),
                "shards must be >= 1");
    EXPECT_EXIT(parse({"--k=0"}), ::testing::ExitedWithCode(2),
                "k must be >= 1");
    EXPECT_EXIT(parse({"--threads=-1"}), ::testing::ExitedWithCode(2),
                "threads must be >= 0");
    // Negative counts must not wrap through the unsigned casts (one
    // ISN would otherwise ask for 4.29e9 workers).
    EXPECT_EXIT(parse({"--cores-per-isn=-1"}), ::testing::ExitedWithCode(2),
                "cores-per-isn must be >= 1");
    EXPECT_EXIT(parse({"--cores-per-isn=0"}), ::testing::ExitedWithCode(2),
                "cores-per-isn must be >= 1");
    EXPECT_EXIT(parse({"--docs=0"}), ::testing::ExitedWithCode(2),
                "docs must be >= 1");
    EXPECT_EXIT(parse({"--vocab=-1"}), ::testing::ExitedWithCode(2),
                "vocab must be >= 29");
    EXPECT_EXIT(parse({"--vocab=28"}), ::testing::ExitedWithCode(2),
                "vocab must be >= 29");
    EXPECT_EXIT(parse({"--queries=-1"}), ::testing::ExitedWithCode(2),
                "--queries must be >= 1");
    EXPECT_EXIT(parse({"--train-queries=0"}), ::testing::ExitedWithCode(2),
                "train-queries must be >= 1");
    EXPECT_EXIT(parse({"--iterations=-1"}), ::testing::ExitedWithCode(2),
                "iterations must be >= 0");
    // Nor may a count wrap past the width of its uint32_t field: 2^32
    // + 100 would otherwise run as 100.
    for (const char *flag : {"docs", "vocab", "shards", "cores-per-isn",
                             "isn-cores", "block-size", "threads"}) {
        const std::string arg =
            std::string("--") + flag + "=4294967396";
        EXPECT_EXIT(parse({arg.c_str()}), ::testing::ExitedWithCode(2),
                    std::string(flag) + " must be <= 4294967295, got "
                                        "4294967396")
            << flag;
    }
    // --policy is checked by the binaries that take it, before they
    // build the stack.
    EXPECT_EXIT(Experiment::requirePolicyName("redde"),
                ::testing::ExitedWithCode(2), "unknown policy: redde");

    // The boundary cases stay legal: equal thresholds collapse the
    // degrade band (tests/test_serve.cc) rather than abort.
    // --threads=0 still means the default pool.
    const char *argv[] = {"prog", "--shed-backlog-ms=5",
                          "--degrade-backlog-ms=5", "--power-window-ms=1",
                          "--threads=0"};
    const ExperimentConfig config =
        ExperimentConfig::fromFlags(CliFlags(5, argv));
    EXPECT_DOUBLE_EQ(config.serving.admission.shedBacklogSeconds, 5e-3);
    EXPECT_DOUBLE_EQ(config.serving.admission.degradeBacklogSeconds, 5e-3);
    EXPECT_DOUBLE_EQ(config.powerWindowSeconds, 1e-3);
    EXPECT_EQ(config.threads, 0u);
}

TEST(ExperimentConfig, PrintEchoesKeyKnobs)
{
    ExperimentConfig config;
    config.corpus.numDocs = 777;
    std::ostringstream out;
    config.print(out);
    EXPECT_NE(out.str().find("docs=777"), std::string::npos);
    EXPECT_NE(out.str().find("shards=16"), std::string::npos);
}

TEST(Experiment, StackAccessorsAreConsistent)
{
    ExperimentConfig config;
    config.corpus.numDocs = 2000;
    config.corpus.vocabSize = 4000;
    config.shards.numShards = 3;
    config.traceQueries = 40;
    config.trainQueries = 60;
    config.train.hiddenLayers = {8};
    config.train.iterations = 40;
    Experiment experiment(std::move(config));

    EXPECT_EQ(experiment.corpus().numDocs(), 2000u);
    EXPECT_EQ(experiment.index().numShards(), 3u);
    EXPECT_EQ(experiment.cluster().numIsns(), 3u);
    EXPECT_EQ(experiment.trace(TraceFlavor::Wikipedia).size(), 40u);
    EXPECT_EQ(experiment.trainTrace().size(), 60u);
    EXPECT_EQ(experiment.groundTruth(TraceFlavor::Wikipedia).size(), 40u);
    EXPECT_EQ(experiment.bank().numShards(), 3u);
}

TEST(Experiment, GroundTruthMatchesEngineGlobalTopK)
{
    ExperimentConfig config;
    config.corpus.numDocs = 2000;
    config.corpus.vocabSize = 4000;
    config.shards.numShards = 3;
    config.traceQueries = 20;
    Experiment experiment(std::move(config));

    const auto &truth = experiment.groundTruth(TraceFlavor::Wikipedia);
    const QueryTrace &trace = experiment.trace(TraceFlavor::Wikipedia);
    for (std::size_t q = 0; q < trace.size(); ++q) {
        const auto expected =
            experiment.engine().globalTopK(trace.query(q).terms);
        ASSERT_EQ(truth[q].size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(truth[q][i].doc, expected[i].doc);
    }
}

} // namespace
} // namespace cottage
