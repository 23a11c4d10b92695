/**
 * @file
 * cottage_lint contract tests.
 *
 * Drives the checker library against the known-bad fixtures under
 * tools/cottage_lint/fixtures/ — one per rule, each of which must
 * produce exactly the documented diagnostic — plus a known-good file
 * that must pass and the suppression-policy fixtures. Inline-content
 * cases pin the tokenizer edge cases the rules depend on (strings and
 * comments never match, `= delete` is not a raw delete, test files are
 * exempt from the non-test rules, headers feed the project-wide D1
 * name set).
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.h"
#include "lexer.h"
#include "lint.h"
#include "symbol_index.h"

using cottage::lint::Diagnostic;
using cottage::lint::lintContent;
using cottage::lint::Linter;

namespace {

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(COTTAGE_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<std::string>
rulesOf(const std::vector<Diagnostic> &diags)
{
    std::vector<std::string> rules;
    rules.reserve(diags.size());
    for (const Diagnostic &d : diags)
        rules.push_back(d.rule);
    return rules;
}

// --- Fixture contract: one documented diagnostic per bad fixture ----

TEST(LintFixtures, D1HashIterationFlagged)
{
    const auto diags =
        lintContent("src/fixture/d1_bad.cc", readFixture("d1_bad.cc"));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D1");
    EXPECT_EQ(diags[0].line, 9);
    EXPECT_NE(diags[0].message.find("hash container"), std::string::npos);
}

TEST(LintFixtures, D2WallClockFlagged)
{
    const auto diags =
        lintContent("src/fixture/d2_bad.cc", readFixture("d2_bad.cc"));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D2");
    EXPECT_EQ(diags[0].line, 8);
}

TEST(LintFixtures, D3FloatInScorePathFlagged)
{
    // Rule scoping comes from the virtual path: the same content under
    // src/index/ is a finding, under src/text/ it is not.
    const auto content = readFixture("d3_bad.cc");
    const auto inIndex = lintContent("src/index/d3_bad.cc", content);
    ASSERT_EQ(inIndex.size(), 1u);
    EXPECT_EQ(inIndex[0].rule, "D3");
    EXPECT_EQ(inIndex[0].line, 7);

    EXPECT_TRUE(lintContent("src/text/d3_bad.cc", content).empty());
}

TEST(LintFixtures, D4AssertFlagged)
{
    const auto diags =
        lintContent("src/fixture/d4_bad.cc", readFixture("d4_bad.cc"));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D4");
    EXPECT_EQ(diags[0].line, 8);
    EXPECT_NE(diags[0].message.find("COTTAGE_CHECK"), std::string::npos);
}

TEST(LintFixtures, D5DefaultComparatorFlagged)
{
    const auto diags =
        lintContent("src/fixture/d5_bad.cc", readFixture("d5_bad.cc"));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D5");
    EXPECT_EQ(diags[0].line, 9);
}

TEST(LintFixtures, D6IntrinsicOutsideCodecDirFlagged)
{
    const auto diags =
        lintContent("src/fixture/d6_bad.cc", readFixture("d6_bad.cc"));
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "D6");
    EXPECT_EQ(diags[0].line, 9);
    EXPECT_EQ(diags[1].rule, "D6");
    EXPECT_EQ(diags[1].line, 9);
}

TEST(LintFixtures, D6IntrinsicInsideCodecDirAllowed)
{
    // The identical content under src/index/ is the sanctioned home
    // for vector kernels — no finding.
    const auto diags =
        lintContent("src/index/block_codec.cc", readFixture("d6_bad.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, GoodFilePasses)
{
    const auto diags =
        lintContent("src/fixture/good.cc", readFixture("good.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, UnjustifiedSuppressionIsItselfAnError)
{
    const auto diags = lintContent("src/fixture/suppress_nojust.cc",
                                   readFixture("suppress_nojust.cc"));
    // The bad allow() is reported AND the underlying finding stays.
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "SUP");
    EXPECT_EQ(diags[0].line, 10);
    EXPECT_EQ(diags[1].rule, "D1");
    EXPECT_EQ(diags[1].line, 11);
}

TEST(LintFixtures, JustifiedSuppressionSilencesTheFinding)
{
    const auto diags = lintContent("src/fixture/suppress_ok.cc",
                                   readFixture("suppress_ok.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

// --- Tokenizer edge cases the rules depend on -----------------------

TEST(LintTokenizer, StringsAndCommentsNeverMatch)
{
    const char *src = R"(
const char *msg = "assert(x) and rand() and steady_clock";
// a comment mentioning assert(x >= 0) and new int[3]
/* block comment: for (auto &e : someUnorderedMap) {} */
int x = 0;
)";
    EXPECT_TRUE(lintContent("src/a/strings.cc", src).empty());
}

TEST(LintTokenizer, RawStringLiteralIsOpaque)
{
    const char *src = "const char *json = R\"({\"clock\": "
                      "\"steady_clock\", \"call\": \"rand()\"})\";\n";
    EXPECT_TRUE(lintContent("src/a/raw.cc", src).empty());
}

TEST(LintTokenizer, PreprocessorLinesAreSkipped)
{
    const char *src = "#include <unordered_map>\n"
                      "#define TICK() time(nullptr)\n"
                      "int y = 1;\n";
    EXPECT_TRUE(lintContent("src/a/pp.cc", src).empty());
}

TEST(LintTokenizer, DigitSeparatorDoesNotOpenCharLiteral)
{
    const char *src = "const long big = 1'000'000; int z = 2;\n";
    EXPECT_TRUE(lintContent("src/a/sep.cc", src).empty());
}

// --- Rule-specific semantics ----------------------------------------

TEST(LintRules, ClassicForOverMapIsNotRangeIteration)
{
    // Classic for with iterators is still iteration, but the rule
    // targets range-for (the idiom the codebase uses); a classic
    // three-clause loop over indices must not trip on the map name.
    const char *src = R"(
#include <unordered_map>
int count(const std::unordered_map<int, int> &m)
{
    int n = 0;
    for (int i = 0; i < 3; ++i)
        n += static_cast<int>(m.count(i));
    return n;
}
)";
    EXPECT_TRUE(lintContent("src/a/classic.cc", src).empty());
}

TEST(LintRules, HeaderDeclarationFlagsIterationInOtherFile)
{
    Linter linter;
    linter.addFile("src/a/store.h",
                   "#include <unordered_map>\n"
                   "struct Store { std::unordered_map<int, int> "
                   "byId_; };\n");
    linter.addFile("src/a/store.cc",
                   "#include \"store.h\"\n"
                   "int sum(const Store &s)\n"
                   "{\n"
                   "    int t = 0;\n"
                   "    for (const auto &e : s.byId_)\n"
                   "        t += e.second;\n"
                   "    return t;\n"
                   "}\n");
    const auto diags = linter.run();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D1");
    EXPECT_EQ(diags[0].file, "src/a/store.cc");
    EXPECT_EQ(diags[0].line, 5);
}

TEST(LintRules, TestFilesExemptFromNonTestRules)
{
    const char *src = R"(
#include <algorithm>
#include <unordered_map>
#include <vector>
void f(std::unordered_map<int, int> &m, std::vector<int *> &v)
{
    for (const auto &e : m)
        (void)e;
    std::sort(v.begin(), v.end());
    int *p = new int(3);
    delete p;
}
)";
    EXPECT_TRUE(lintContent("tests/test_sample.cc", src).empty());
    // The same content in src/ carries D1 + D5 + two D4s.
    const auto rules = rulesOf(lintContent("src/a/sample.cc", src));
    EXPECT_EQ(rules, (std::vector<std::string>{"D1", "D5", "D4", "D4"}));
}

TEST(LintRules, D2AllowlistedFilesAreExempt)
{
    const char *src = "#include <chrono>\n"
                      "using Clock = std::chrono::steady_clock;\n";
    EXPECT_TRUE(lintContent("src/util/stopwatch.h", src).empty());
    EXPECT_FALSE(lintContent("src/sim/clock.h", src).empty());

    const char *rng = "#include <random>\n"
                      "std::random_device seedSource;\n";
    EXPECT_TRUE(lintContent("src/util/rng.cc", rng).empty());
    EXPECT_FALSE(lintContent("src/util/zipf.cc", rng).empty());
}

TEST(LintRules, DeletedSpecialMembersAreNotRawDelete)
{
    const char *src = R"(
struct NoCopy
{
    NoCopy(const NoCopy &) = delete;
    NoCopy &operator=(const NoCopy &) = delete;
};
)";
    EXPECT_TRUE(lintContent("src/a/nocopy.cc", src).empty());
}

TEST(LintRules, StaticAssertAndCottageCheckAreFine)
{
    const char *src = "static_assert(sizeof(int) == 4);\n"
                      "void g(int x) { COTTAGE_CHECK(x >= 0); }\n";
    EXPECT_TRUE(lintContent("src/a/checks.cc", src).empty());
}

TEST(LintRules, SortWithComparatorPasses)
{
    const char *src = R"(
#include <algorithm>
#include <functional>
#include <vector>
void h(std::vector<double> &v)
{
    std::sort(v.begin(), v.end(), std::less<double>());
    std::stable_sort(v.begin(), v.end(),
                     [](double a, double b) { return a < b; });
}
)";
    EXPECT_TRUE(lintContent("src/a/sorts.cc", src).empty());
}

TEST(LintRules, StableSortWithoutComparatorFlagged)
{
    const char *src = "#include <algorithm>\n"
                      "#include <vector>\n"
                      "void h(std::vector<int> &v)\n"
                      "{ std::stable_sort(v.begin(), v.end()); }\n";
    const auto diags = lintContent("src/a/ss.cc", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D5");
}

TEST(LintRules, MemberSortIsNotStdSort)
{
    // list.sort() (e.g. std::list) only matches when qualified std::.
    const char *src = "#include <list>\n"
                      "void h(std::list<int> &l) { l.sort(); }\n";
    EXPECT_TRUE(lintContent("src/a/memsort.cc", src).empty());
}

// --- Suppression policy ---------------------------------------------

TEST(LintSuppressions, TrailingCommentGuardsItsOwnLine)
{
    const char *src =
        "#include <unordered_map>\n"
        "int f(const std::unordered_map<int, int> &m)\n"
        "{\n"
        "    int t = 0;\n"
        "    for (const auto &e : m) // cottage-lint: allow(D1): "
        "commutative sum over values\n"
        "        t += e.second;\n"
        "    return t;\n"
        "}\n";
    EXPECT_TRUE(lintContent("src/a/trail.cc", src).empty());
}

TEST(LintSuppressions, UnknownRuleIdIsAnError)
{
    const char *src = "// cottage-lint: allow(D42): not a real rule id\n"
                      "int x = 0;\n";
    const auto diags = lintContent("src/a/unknown.cc", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "SUP");
    EXPECT_NE(diags[0].message.find("D42"), std::string::npos);
}

TEST(LintSuppressions, AllowOnlySilencesTheNamedRule)
{
    // A D1 allow must not hide the D5 on the same line.
    const char *src =
        "#include <algorithm>\n"
        "#include <vector>\n"
        "void f(std::vector<int *> &v)\n"
        "{\n"
        "    // cottage-lint: allow(D1): wrong rule for the line below\n"
        "    std::sort(v.begin(), v.end());\n"
        "}\n";
    const auto diags = lintContent("src/a/wrongrule.cc", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D5");
}


// --- Flow-rule fixtures (D7-D9) -------------------------------------

TEST(LintFixtures, D7MeasuredWriteInsideHookGuardFlagged)
{
    const auto diags =
        lintContent("src/engine/d7_bad.cc", readFixture("d7_bad.cc"));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D7");
    EXPECT_EQ(diags[0].line, 13);
    EXPECT_NE(diags[0].message.find("hook guard"), std::string::npos);
}

TEST(LintFixtures, D7GuardedReadsAndLocalsPass)
{
    const auto diags =
        lintContent("src/engine/d7_good.cc", readFixture("d7_good.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, D7JustifiedSuppressionSilences)
{
    const auto diags = lintContent("src/engine/d7_suppressed.cc",
                                   readFixture("d7_suppressed.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, D8RefCapturedAccumulatorFlagged)
{
    const auto diags =
        lintContent("src/harness/d8_bad.cc", readFixture("d8_bad.cc"));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D8");
    EXPECT_EQ(diags[0].line, 10);
    EXPECT_NE(diags[0].message.find("gang-shared"), std::string::npos);
}

TEST(LintFixtures, D8IndexedSlotWritePasses)
{
    const auto diags =
        lintContent("src/harness/d8_good.cc", readFixture("d8_good.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, D8JustifiedSuppressionSilences)
{
    const auto diags = lintContent("src/harness/d8_suppressed.cc",
                                   readFixture("d8_suppressed.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, D9DefaultSeedFlagged)
{
    const auto diags =
        lintContent("src/policy/d9_bad.cc", readFixture("d9_bad.cc"));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D9");
    EXPECT_EQ(diags[0].line, 7);
    EXPECT_NE(diags[0].message.find("seed"), std::string::npos);
}

TEST(LintFixtures, D9ExplicitSeedParameterPasses)
{
    const auto diags =
        lintContent("src/policy/d9_good.cc", readFixture("d9_good.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, D9JustifiedSuppressionSilences)
{
    const auto diags = lintContent("src/policy/d9_suppressed.cc",
                                   readFixture("d9_suppressed.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintFixtures, D9TestFilesExempt)
{
    // Tests seed ad hoc all the time; the provenance rule is for
    // src/ and bench/ only.
    const auto diags =
        lintContent("tests/d9_bad.cc", readFixture("d9_bad.cc"));
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

TEST(LintRules, D7HookEntryReachingMeasuredWriteFlagged)
{
    // The measured class lives in src/engine; a QueryTracer method in
    // another TU writing it through a pointer is a hook-purity break.
    Linter linter;
    linter.addFile("src/engine/counters.h",
                   "class Counters { public: long scored_ = 0; };\n");
    linter.addFile("src/obs/tracer_ext.cc",
                   "#include \"counters.h\"\n"
                   "class QueryTracer\n"
                   "{\n"
                   "  public:\n"
                   "    void bump(Counters *c) "
                   "{ c->scored_ = c->scored_ + 1; }\n"
                   "};\n");
    const auto diags = linter.run();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D7");
    EXPECT_EQ(diags[0].file, "src/obs/tracer_ext.cc");
    EXPECT_NE(diags[0].message.find("hook entry point"),
              std::string::npos);
}

TEST(LintRules, D7TransitiveCallFromGuardFlagged)
{
    // The guarded region itself only calls a helper; the helper writes
    // measured state, and the call graph carries the evidence across.
    Linter linter;
    linter.addFile(
        "src/engine/eng.cc",
        "class QueryTracer;\n"
        "class Eng\n"
        "{\n"
        "  public:\n"
        "    void touch() { docs_ = docs_ + 1; }\n"
        "    void go(QueryTracer *tracer)\n"
        "    {\n"
        "        if (tracer) {\n"
        "            touch();\n"
        "        }\n"
        "    }\n"
        "  private:\n"
        "    long docs_ = 0;\n"
        "};\n");
    const auto diags = linter.run();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D7");
    EXPECT_EQ(diags[0].line, 9);
    EXPECT_NE(diags[0].message.find("touch"), std::string::npos);
}

TEST(LintRules, D8GuardedMemberWritePasses)
{
    // A COTTAGE_GUARDED_BY member is the sanctioned mutex-protected
    // escape hatch, even through a captured this.
    Linter linter;
    linter.addFile(
        "src/harness/agg.cc",
        "struct ThreadPool;\n"
        "class Agg\n"
        "{\n"
        "  public:\n"
        "    void run(ThreadPool &pool)\n"
        "    {\n"
        "        pool.submit([this] { total_ = total_ + 1.0; });\n"
        "    }\n"
        "  private:\n"
        "    double total_ COTTAGE_GUARDED_BY(mutex_) = 0.0;\n"
        "};\n");
    const auto diags = linter.run();
    EXPECT_TRUE(diags.empty()) << diags.front().format();
}

// --- Symbol-index structure -----------------------------------------

TEST(SymbolIndexStructure, ForwardDeclMergesWithDefinition)
{
    cottage::lint::SymbolIndex idx;
    idx.addFile("src/engine/widget.h",
                cottage::lint::lex(
                    "class Widget;\n"
                    "class Widget\n"
                    "{\n"
                    "  public:\n"
                    "    void poke();\n"
                    "    long count_ = 0;\n"
                    "};\n"));
    idx.addFile("src/engine/widget.cc",
                cottage::lint::lex(
                    "void Widget::poke() { count_ = count_ + 1; }\n"));
    idx.finalize();
    const auto &c = idx.classes().at("Widget");
    EXPECT_TRUE(c.defined);
    EXPECT_EQ(c.file, "src/engine/widget.h");
    EXPECT_EQ(c.members.count("count_"), 1u);
    EXPECT_TRUE(idx.isMeasuredMember("count_"));
}

TEST(SymbolIndexStructure, OutOfLineMethodCarriesClassAndWrites)
{
    cottage::lint::SymbolIndex idx;
    idx.addFile("src/engine/widget.h",
                cottage::lint::lex(
                    "class Widget { public: void poke(); long count_ = "
                    "0; };\n"));
    idx.addFile("src/engine/widget.cc",
                cottage::lint::lex(
                    "void Widget::poke() { count_ = count_ + 1; }\n"));
    idx.finalize();
    bool found = false;
    for (const auto &fn : idx.functions()) {
        if (fn.name != "Widget::poke" || !fn.defined())
            continue;
        found = true;
        EXPECT_EQ(fn.klass, "Widget");
        EXPECT_EQ(fn.bare, "poke");
        EXPECT_EQ(fn.file, "src/engine/widget.cc");
        EXPECT_TRUE(fn.writesMeasured);
    }
    EXPECT_TRUE(found);
}

TEST(SymbolIndexStructure, NestedClassesKeepSeparateMemberSets)
{
    cottage::lint::SymbolIndex idx;
    idx.addFile("src/engine/outer.h",
                cottage::lint::lex(
                    "class Outer\n"
                    "{\n"
                    "    class Inner { long x_ = 0; };\n"
                    "    long y_ = 0;\n"
                    "};\n"));
    idx.finalize();
    const auto &outer = idx.classes().at("Outer");
    const auto &inner = idx.classes().at("Outer::Inner");
    EXPECT_EQ(outer.members.count("y_"), 1u);
    EXPECT_EQ(outer.members.count("x_"), 0u);
    EXPECT_EQ(inner.members.count("x_"), 1u);
}

TEST(SymbolIndexStructure, TemplateClassMembersAreIndexed)
{
    cottage::lint::SymbolIndex idx;
    idx.addFile("src/engine/box.h",
                cottage::lint::lex(
                    "template <typename T>\n"
                    "class Box\n"
                    "{\n"
                    "  public:\n"
                    "    T value_;\n"
                    "    long uses_ = 0;\n"
                    "};\n"));
    idx.finalize();
    const auto &box = idx.classes().at("Box");
    EXPECT_TRUE(box.defined);
    EXPECT_EQ(box.members.count("value_"), 1u);
    EXPECT_EQ(box.members.count("uses_"), 1u);
}

TEST(SymbolIndexStructure, NonMeasuredPathMembersAreNotMeasured)
{
    cottage::lint::SymbolIndex idx;
    idx.addFile("src/obs/gauge.h",
                cottage::lint::lex(
                    "class Gauge { public: long ticks_ = 0; };\n"));
    idx.finalize();
    EXPECT_TRUE(idx.isAnyMember("ticks_"));
    EXPECT_FALSE(idx.isMeasuredMember("ticks_"));
}

// --- CLI exit semantics ---------------------------------------------

namespace cli_test {

int
runWith(const std::vector<std::string> &args, std::string *outText,
        std::string *errText)
{
    std::vector<const char *> argv;
    argv.push_back("cottage_lint");
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int rc = cottage::lint::runCli(
        static_cast<int>(argv.size()), argv.data(), out, err);
    if (outText)
        *outText = out.str();
    if (errText)
        *errText = err.str();
    return rc;
}

} // namespace cli_test

TEST(LintCli, CleanFileExitsZero)
{
    std::string out;
    const int rc = cli_test::runWith(
        {"--root", COTTAGE_LINT_FIXTURE_DIR, "--as",
         "src/fixture/good.cc", "good.cc"},
        &out, nullptr);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("0 finding(s)"), std::string::npos);
}

TEST(LintCli, FindingsExitOne)
{
    std::string out;
    const int rc = cli_test::runWith(
        {"--root", COTTAGE_LINT_FIXTURE_DIR, "--as",
         "src/fixture/d1_bad.cc", "d1_bad.cc"},
        &out, nullptr);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(out.find("[D1]"), std::string::npos);
}

TEST(LintCli, NonexistentPathExitsBadInput)
{
    std::string err;
    const int rc = cli_test::runWith(
        {"--root", COTTAGE_LINT_FIXTURE_DIR, "no/such/file.cc"},
        nullptr, &err);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(err.find("does not exist"), std::string::npos);
}

TEST(LintCli, PathMatchingNoSourcesExitsBadInput)
{
    // An existing directory with no .h/.cc/.cpp under it is a typo'd
    // input, not a vacuously clean scan.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "cottage_lint_empty";
    fs::create_directories(dir);
    std::ofstream(dir / "notes.txt") << "not a source file\n";

    std::string err;
    const int rc =
        cli_test::runWith({dir.string()}, nullptr, &err);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(err.find("matched no source files"), std::string::npos);
}

TEST(LintCli, UnknownFlagExitsBadInput)
{
    std::string err;
    const int rc = cli_test::runWith({"--frobnicate"}, nullptr, &err);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(err.find("unknown flag"), std::string::npos);
}

TEST(LintCliDeathTest, BadInputDiesWithExitTwo)
{
    // The full-process contract CI relies on: a typo'd path must kill
    // the run with exit code 2 and a diagnostic on stderr.
    const char *argv[] = {"cottage_lint", "--root",
                          COTTAGE_LINT_FIXTURE_DIR, "no/such/file.cc"};
    EXPECT_EXIT(std::exit(cottage::lint::runCli(4, argv, std::cout,
                                                std::cerr)),
                ::testing::ExitedWithCode(2), "does not exist");
}

// --- Lexer regressions ----------------------------------------------

TEST(LintTokenizer, RawStringInsideContinuedPreprocessorLine)
{
    // The '//' lives in a raw string inside a #define whose backslash
    // continuation moves it to the next physical line; neither a
    // comment nor a token may leak out of the directive.
    const std::string src = "#define MSG \\\n"
                            "    R\"(see // http://example.com)\"\n"
                            "const char *m = MSG;\n"
                            "int after = 1;\n";
    const auto lexed = cottage::lint::lex(src);
    EXPECT_TRUE(lexed.comments.empty());
    bool sawAfter = false;
    for (const auto &t : lexed.tokens)
        sawAfter = sawAfter || t.text == "after";
    EXPECT_TRUE(sawAfter);
    EXPECT_TRUE(lintContent("src/a/rawpp.cc", src).empty());
}

TEST(LintTokenizer, MultiLineRawStringHidesCommentMarkers)
{
    const std::string src = "const char *u = R\"(one // not a comment\n"
                            "two /* still raw */)\";\n"
                            "int tail = 2;\n";
    const auto lexed = cottage::lint::lex(src);
    EXPECT_TRUE(lexed.comments.empty());
    bool sawTail = false;
    for (const auto &t : lexed.tokens)
        sawTail = sawTail || t.text == "tail";
    EXPECT_TRUE(sawTail);
    EXPECT_TRUE(lintContent("src/a/rawml.cc", src).empty());
}

// --- The repo itself stays clean ------------------------------------

TEST(LintRepo, DiagnosticFormatIsStable)
{
    Diagnostic d{"src/a/b.cc", 12, "D3", "message text"};
    EXPECT_EQ(d.format(), "src/a/b.cc:12: [D3] message text");
}

} // namespace
