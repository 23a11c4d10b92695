/**
 * @file
 * Unit tests for the util module: RNG determinism and distribution
 * sanity, Zipf sampling, string helpers, CLI flag parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/checked_reader.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace cottage {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng parent(99);
    Rng childA = parent.split();
    Rng childB = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += childA.next() == childB.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(8);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += rng.uniform();
    EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(10);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    double sum = 0.0;
    double sumSq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumSq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(12);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += rng.exponential(4.0);
    EXPECT_NEAR(total / n, 0.25, 0.01);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    Rng rng(13);
    for (double mean : {0.5, 3.0, 80.0}) {
        double total = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            total += static_cast<double>(rng.poisson(mean));
        EXPECT_NEAR(total / n, mean, mean * 0.05 + 0.05) << "mean " << mean;
    }
}

TEST(Rng, DiscretePicksProportionally)
{
    Rng rng(14);
    const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.discrete(weights)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.015);
    EXPECT_NEAR(counts[3] / double(n), 0.6, 0.015);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(15);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = values;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, values);
}

TEST(Zipf, PmfSumsToOne)
{
    const ZipfSampler zipf(100, 1.1);
    double total = 0.0;
    for (uint64_t k = 1; k <= 100; ++k)
        total += zipf.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, PmfMonotoneDecreasing)
{
    const ZipfSampler zipf(1000, 0.9);
    for (uint64_t k = 1; k < 1000; ++k)
        EXPECT_GT(zipf.pmf(k), zipf.pmf(k + 1));
}

TEST(Zipf, SamplesWithinRange)
{
    Rng rng(16);
    const ZipfSampler zipf(50, 1.3);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t k = zipf.sample(rng);
        EXPECT_GE(k, 1u);
        EXPECT_LE(k, 50u);
    }
}

TEST(Zipf, EmpiricalMatchesPmf)
{
    Rng rng(17);
    const ZipfSampler zipf(20, 1.0);
    std::vector<int> counts(21, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (uint64_t k = 1; k <= 20; ++k) {
        const double expected = zipf.pmf(k);
        const double observed = counts[k] / double(n);
        EXPECT_NEAR(observed, expected, 0.15 * expected + 0.002)
            << "rank " << k;
    }
}

TEST(Zipf, SingletonAlwaysReturnsOne)
{
    Rng rng(18);
    const ZipfSampler zipf(1, 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(rng), 1u);
}

TEST(Zipf, NonUnitExponent)
{
    Rng rng(19);
    const ZipfSampler zipf(100, 0.5);
    double total = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(zipf.sample(rng));
    double expectedMean = 0.0;
    for (uint64_t k = 1; k <= 100; ++k)
        expectedMean += static_cast<double>(k) * zipf.pmf(k);
    EXPECT_NEAR(total / n, expectedMean, expectedMean * 0.03);
}

TEST(StringUtil, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitWhitespaceDropsEmpty)
{
    const auto parts = splitWhitespace("  canada   maple\tsyrup \n");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "canada");
    EXPECT_EQ(parts[1], "maple");
    EXPECT_EQ(parts[2], "syrup");
}

TEST(StringUtil, JoinRoundTrip)
{
    const std::vector<std::string> parts = {"a", "b", "c"};
    EXPECT_EQ(join(parts, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, TrimAndLower)
{
    EXPECT_EQ(trim("  Hello \t"), "Hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(toLower("ToKyO"), "tokyo");
}

TEST(StringUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("--flag", "--"));
    EXPECT_FALSE(startsWith("-f", "--"));
    EXPECT_FALSE(startsWith("", "--"));
}

TEST(StringUtil, Strformat)
{
    EXPECT_EQ(strformat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
    EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Cli, ParsesAllFlagForms)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta=4.5", "--verbose",
                          "positional", "--name=wiki"};
    const CliFlags flags(6, argv);
    EXPECT_EQ(flags.getInt("alpha", 0), 3);
    EXPECT_DOUBLE_EQ(flags.getDouble("beta", 0.0), 4.5);
    EXPECT_TRUE(flags.getBool("verbose", false));
    EXPECT_EQ(flags.getString("name", ""), "wiki");
    ASSERT_EQ(flags.positional().size(), 1u);
    EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Cli, FallbacksWhenAbsent)
{
    const char *argv[] = {"prog"};
    const CliFlags flags(1, argv);
    EXPECT_EQ(flags.getInt("x", -2), -2);
    EXPECT_DOUBLE_EQ(flags.getDouble("y", 2.5), 2.5);
    EXPECT_FALSE(flags.getBool("z", false));
    EXPECT_EQ(flags.getString("s", "dflt"), "dflt");
    EXPECT_FALSE(flags.has("x"));
}

TEST(Cli, TrailingBooleanFlag)
{
    const char *argv[] = {"prog", "--go"};
    const CliFlags flags(2, argv);
    EXPECT_TRUE(flags.getBool("go", false));
}

TEST(CliValidationDeathTest, BadFlagValuesExitTwoWithUsageHint)
{
    // Operator typos get a usage message and the conventional "bad
    // invocation" exit code 2 — not an assertion abort. Exit 2 is
    // also what scripts/check_bench.py reserves for unusable input,
    // so the whole toolchain means the same thing by it.
    const char *argv[] = {"prog", "--isn-cores=0", "--qps-scale=-1",
                          "--shards=9"};
    const CliFlags flags(4, argv);
    EXPECT_EXIT(getIntAtLeast(flags, "isn-cores", 1, 1),
                ::testing::ExitedWithCode(2), "isn-cores.*>= 1");
    EXPECT_EXIT(getIntInRange(flags, "isn-cores", 1, 1, 8),
                ::testing::ExitedWithCode(2), "isn-cores.*>= 1");
    EXPECT_EXIT(getIntInRange(flags, "shards", 1, 1, 8),
                ::testing::ExitedWithCode(2),
                "shards must be <= 8, got 9\nusage: --shards=N with 1 <= "
                "N <= 8");
    EXPECT_EXIT(getPositiveDouble(flags, "qps-scale", 4.0),
                ::testing::ExitedWithCode(2),
                "qps-scale.*strictly positive");
    EXPECT_EXIT(cliError("boom", "--flag=N"),
                ::testing::ExitedWithCode(2), "error: boom");
}

TEST(CheckedReader, ParsesWellFormedTokens)
{
    std::istringstream in("magic 42 -0.1 1.2345678901234567e-05 -0");
    CheckedReader reader(in, "test file");
    EXPECT_EQ(reader.word("magic"), "magic");
    EXPECT_EQ(reader.integer("count", 1, 64), 42u);
    // The same doubles operator>> reads, to the bit.
    std::istringstream expected("-0.1 1.2345678901234567e-05 -0");
    for (int i = 0; i < 3; ++i) {
        double want = 0.0;
        expected >> want;
        const double got = reader.finite("value");
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << i;
    }
}

TEST(CheckedReaderDeathTest, RejectsMalformedTokens)
{
    const auto readInteger = [](const char *text) {
        std::istringstream in(text);
        CheckedReader(in, "test file").integer("count", 1, 64);
    };
    const auto readFinite = [](const char *text) {
        std::istringstream in(text);
        CheckedReader(in, "test file").finite("value");
    };
    EXPECT_EXIT(readInteger(""), ::testing::ExitedWithCode(2),
                "error: test file: count: input ends early");
    for (const char *bad : {"0", "65", "+3", "-1", "3.0", "0x10",
                            "99999999999999999999999"})
        EXPECT_EXIT(readInteger(bad), ::testing::ExitedWithCode(2),
                    "count: expected an integer in \\[1, 64\\]")
            << bad;
    for (const char *bad : {"nan", "-inf", "1e400", "1.5.2", "x"})
        EXPECT_EXIT(readFinite(bad), ::testing::ExitedWithCode(2),
                    "value: expected a")
            << bad;
}

TEST(CliValidation, InRangeAndAbsentFlagsPassThrough)
{
    const char *argv[] = {"prog", "--isn-cores=4", "--qps-scale=2.5"};
    const CliFlags flags(3, argv);
    // Present and valid: the parsed value.
    EXPECT_EQ(getIntAtLeast(flags, "isn-cores", 1, 1), 4);
    EXPECT_EQ(getIntInRange(flags, "isn-cores", 1, 1, 4), 4);
    EXPECT_DOUBLE_EQ(getPositiveDouble(flags, "qps-scale", 4.0), 2.5);
    // Absent: the compiled-in fallback is trusted, NOT validated —
    // even one that violates the bound (callers own their defaults).
    EXPECT_EQ(getIntAtLeast(flags, "cores", -7, 1), -7);
    EXPECT_DOUBLE_EQ(getPositiveDouble(flags, "scale", 4.0), 4.0);
}

TEST(ThreadPool, ZeroTaskParallelForReturnsImmediately)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, 0, [&](std::size_t) { ++calls; });
    pool.parallelFor(5, 5, [&](std::size_t) { ++calls; });
    pool.parallelFor(7, 3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(0, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture)
{
    ThreadPool pool(2);
    auto future = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(pool.waitFor(std::move(future)), 42);
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    const auto caller = std::this_thread::get_id();
    std::thread::id ranOn;
    auto future = pool.submit([&] { ranOn = std::this_thread::get_id(); });
    future.get();
    EXPECT_EQ(ranOn, caller);
    pool.parallelFor(0, 8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
    EXPECT_FALSE(pool.tryRunOne());
}

TEST(ThreadPool, ExceptionPropagatesThroughSubmit)
{
    ThreadPool pool(2);
    auto future =
        pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.waitFor(std::move(future)), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexedFailure)
{
    for (const unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        try {
            pool.parallelFor(0, 64, [&](std::size_t i) {
                // Several chunks fail; the surfaced message must be
                // the lowest failing chunk's regardless of schedule.
                if (i % 16 == 0)
                    throw std::runtime_error("chunk@" +
                                             std::to_string(i / 16));
            });
            FAIL() << "expected an exception (threads=" << threads << ")";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "chunk@0");
        }
    }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(4);
    constexpr std::size_t outer = 16;
    constexpr std::size_t inner = 64;
    std::vector<std::atomic<uint64_t>> sums(outer);
    pool.parallelFor(0, outer, [&](std::size_t o) {
        pool.parallelFor(0, inner, [&](std::size_t i) {
            sums[o].fetch_add(i + 1, std::memory_order_relaxed);
        });
    });
    for (std::size_t o = 0; o < outer; ++o)
        ASSERT_EQ(sums[o].load(), inner * (inner + 1) / 2);
}

TEST(ThreadPool, NestedSubmitWaitedInsideATaskCompletes)
{
    ThreadPool pool(2);
    auto outerFuture = pool.submit([&] {
        auto innerFuture = pool.submit([] { return 19; });
        // waitFor() helps drain the queues, so waiting on pool work
        // from inside a pool task cannot deadlock even with every
        // worker occupied by an outer task.
        return pool.waitFor(std::move(innerFuture)) + 23;
    });
    EXPECT_EQ(pool.waitFor(std::move(outerFuture)), 42);
}

TEST(ThreadPool, OversubscriptionStress)
{
    // Far more workers than this machine has cores, far more tasks
    // than workers, with mixed submit/parallelFor traffic.
    ThreadPool pool(16);
    std::atomic<uint64_t> total{0};
    std::vector<std::future<void>> futures;
    futures.reserve(200);
    for (int t = 0; t < 200; ++t) {
        futures.push_back(pool.submit([&total, t] {
            total.fetch_add(static_cast<uint64_t>(t),
                            std::memory_order_relaxed);
        }));
    }
    pool.parallelFor(0, 1000, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
    });
    for (auto &future : futures)
        pool.waitFor(std::move(future));
    EXPECT_EQ(total.load(), 200ull * 199 / 2 + 1000);
}

TEST(ThreadPool, GlobalPoolHonorsThreadKnob)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::global().threads(), 3u);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().threads(), 1u);
    ThreadPool::setGlobalThreads(0); // restore the default
    EXPECT_EQ(ThreadPool::global().threads(),
              ThreadPool::defaultThreads());
}

} // namespace
} // namespace cottage
