/**
 * @file
 * Unit tests for the text module: vocabulary, synthetic corpus
 * generation and query traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <sstream>
#include <unordered_map>

#include "text/corpus.h"
#include "text/trace.h"
#include "text/vocabulary.h"

#include "stats/summary.h"

namespace cottage {
namespace {

TEST(Vocabulary, SeedWordsAndSyntheticTerms)
{
    const Vocabulary vocab(2000);
    EXPECT_EQ(vocab.size(), 2000u);
    EXPECT_EQ(vocab.term(0), "the");
    // The paper's example queries are present, in the content area
    // (past the stopword/head zone) where query generation draws its
    // mandatory content term.
    for (const char *word : {"canada", "tokyo", "toyota"}) {
        const TermId id = vocab.lookup(word);
        ASSERT_NE(id, invalidTerm) << word;
        EXPECT_GE(id, 256u) << word;
    }
    // High ranks use the synthetic form.
    EXPECT_EQ(vocab.term(1999), "term_001999");
    EXPECT_EQ(vocab.lookup("term_001999"), 1999u);
}

TEST(Vocabulary, LookupIsCaseInsensitive)
{
    const Vocabulary vocab(2000);
    EXPECT_EQ(vocab.lookup("Canada"), vocab.lookup("canada"));
    EXPECT_EQ(vocab.lookup("never-a-term"), invalidTerm);
}

TEST(Vocabulary, TokenizeDropsUnknown)
{
    const Vocabulary vocab(2000);
    const auto ids = vocab.tokenize("canada xyzzy-unknown tokyo");
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], vocab.lookup("canada"));
    EXPECT_EQ(ids[1], vocab.lookup("tokyo"));
}

CorpusConfig
smallCorpusConfig()
{
    CorpusConfig config;
    config.numDocs = 500;
    config.vocabSize = 2000;
    config.meanDocLength = 60.0;
    config.numTopics = 8;
    config.seed = 123;
    return config;
}

TEST(Corpus, GeneratesRequestedShape)
{
    const Corpus corpus = Corpus::generate(smallCorpusConfig());
    EXPECT_EQ(corpus.numDocs(), 500u);
    EXPECT_EQ(corpus.vocabulary().size(), 2000u);
    EXPECT_NEAR(corpus.averageDocLength(), 60.0, 10.0);
}

TEST(Corpus, DocumentsAreWellFormed)
{
    const Corpus corpus = Corpus::generate(smallCorpusConfig());
    for (const Document &doc : corpus.documents()) {
        EXPECT_FALSE(doc.terms.empty());
        uint32_t total = 0;
        for (std::size_t i = 0; i < doc.terms.size(); ++i) {
            EXPECT_LT(doc.terms[i].term, corpus.vocabulary().size());
            EXPECT_GE(doc.terms[i].freq, 1u);
            if (i > 0) { // sorted ascending, no duplicates
                EXPECT_LT(doc.terms[i - 1].term, doc.terms[i].term);
            }
            total += doc.terms[i].freq;
        }
        EXPECT_EQ(total, doc.length);
    }
}

TEST(Corpus, DeterministicForSameSeed)
{
    const Corpus a = Corpus::generate(smallCorpusConfig());
    const Corpus b = Corpus::generate(smallCorpusConfig());
    ASSERT_EQ(a.numDocs(), b.numDocs());
    for (uint32_t d = 0; d < a.numDocs(); ++d) {
        ASSERT_EQ(a.document(d).terms.size(), b.document(d).terms.size());
        for (std::size_t i = 0; i < a.document(d).terms.size(); ++i) {
            EXPECT_EQ(a.document(d).terms[i].term,
                      b.document(d).terms[i].term);
            EXPECT_EQ(a.document(d).terms[i].freq,
                      b.document(d).terms[i].freq);
        }
    }
}

TEST(Corpus, SeedChangesOutput)
{
    CorpusConfig config = smallCorpusConfig();
    const Corpus a = Corpus::generate(config);
    config.seed = 124;
    const Corpus b = Corpus::generate(config);
    bool differs = false;
    for (uint32_t d = 0; d < a.numDocs() && !differs; ++d)
        differs = a.document(d).length != b.document(d).length;
    EXPECT_TRUE(differs);
}

TEST(Corpus, PopularTermsHaveLargerDocFrequency)
{
    const Corpus corpus = Corpus::generate(smallCorpusConfig());
    std::unordered_map<TermId, uint32_t> df;
    for (const Document &doc : corpus.documents())
        for (const TermFreq &tf : doc.terms)
            ++df[tf.term];
    // Rank 0 must be much more common than rank 1500.
    EXPECT_GT(df[0], df[1500] + 20);
    // Zipf head: rank 0 appears in a large share of documents.
    EXPECT_GT(df[0], corpus.numDocs() / 4);
}

TEST(Trace, GeneratesTimedQueries)
{
    TraceConfig config;
    config.numQueries = 200;
    config.vocabSize = 2000;
    config.arrivalQps = 50.0;
    const QueryTrace trace = QueryTrace::generate(config);
    ASSERT_EQ(trace.size(), 200u);
    double last = 0.0;
    for (const Query &query : trace.queries()) {
        EXPECT_GE(query.arrivalSeconds, last);
        last = query.arrivalSeconds;
        EXPECT_GE(query.terms.size(), 1u);
        EXPECT_LE(query.terms.size(), 4u);
        for (TermId term : query.terms)
            EXPECT_LT(term, config.vocabSize);
        // No duplicate terms within a query.
        auto sorted = query.terms;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end());
    }
    // Mean inter-arrival should match 1/qps.
    EXPECT_NEAR(trace.durationSeconds() / 200.0, 1.0 / 50.0, 0.01);
}

TEST(Trace, FlavorsDiffer)
{
    TraceConfig config;
    config.numQueries = 2000;
    config.vocabSize = 10000;
    config.flavor = TraceFlavor::Wikipedia;
    const QueryTrace wiki = QueryTrace::generate(config);
    config.flavor = TraceFlavor::Lucene;
    const QueryTrace lucene = QueryTrace::generate(config);

    const auto avgLen = [](const QueryTrace &trace) {
        double total = 0.0;
        for (const Query &query : trace.queries())
            total += static_cast<double>(query.terms.size());
        return total / static_cast<double>(trace.size());
    };
    // Lucene-flavor queries are longer on average by construction.
    EXPECT_GT(avgLen(lucene), avgLen(wiki) + 0.2);
    EXPECT_EQ(wiki.name(), "wikipedia");
    EXPECT_EQ(lucene.name(), "lucene");
}

TEST(Trace, BurstinessClustersArrivals)
{
    TraceConfig config;
    config.numQueries = 4000;
    config.vocabSize = 2000;
    config.arrivalQps = 100.0;
    config.burstPeriodSeconds = 10.0;

    const auto windowVariance = [](const QueryTrace &trace) {
        // Count arrivals per 1-second window; return the count
        // variance (a Poisson process has variance ~= mean).
        std::vector<double> counts(
            static_cast<std::size_t>(trace.durationSeconds()) + 1, 0.0);
        for (const Query &query : trace.queries())
            counts[static_cast<std::size_t>(query.arrivalSeconds)] += 1.0;
        return variance(counts);
    };

    config.burstiness = 0.0;
    const double smooth = windowVariance(QueryTrace::generate(config));
    config.burstiness = 0.8;
    const double bursty = windowVariance(QueryTrace::generate(config));
    EXPECT_GT(bursty, smooth * 2.0);
}

TEST(Trace, PersonalizedFractionAttachesWeights)
{
    TraceConfig config;
    config.numQueries = 400;
    config.vocabSize = 2000;
    config.personalizedFraction = 0.5;
    const QueryTrace trace = QueryTrace::generate(config);
    std::size_t weighted = 0;
    for (const Query &query : trace.queries()) {
        if (query.personalized()) {
            ++weighted;
            ASSERT_EQ(query.weights.size(), query.terms.size());
            for (double w : query.weights) {
                EXPECT_GE(w, config.minTermWeight);
                EXPECT_LE(w, config.maxTermWeight);
            }
        }
    }
    EXPECT_GT(weighted, 120u);
    EXPECT_LT(weighted, 280u);
}

TEST(Trace, SaveLoadRoundTrip)
{
    TraceConfig config;
    config.numQueries = 50;
    config.vocabSize = 500;
    const QueryTrace trace = QueryTrace::generate(config);

    std::stringstream buffer;
    trace.save(buffer);
    const QueryTrace loaded = QueryTrace::load(buffer);

    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_NEAR(loaded.query(i).arrivalSeconds,
                    trace.query(i).arrivalSeconds, 1e-6);
        EXPECT_EQ(loaded.query(i).terms, trace.query(i).terms);
    }
}

/** A small generated trace in its saved form. */
std::string
savedTrace(uint64_t numQueries)
{
    TraceConfig config;
    config.numQueries = numQueries;
    config.vocabSize = 500;
    std::stringstream buffer;
    QueryTrace::generate(config).save(buffer);
    return buffer.str();
}

QueryTrace
loadText(const std::string &text)
{
    std::istringstream in(text);
    return QueryTrace::load(in);
}

TEST(Trace, SaveLoadSaveIsByteIdentical)
{
    const std::string text = savedTrace(50);
    const QueryTrace loaded = loadText(text);
    ASSERT_EQ(loaded.size(), 50u);
    std::stringstream again;
    loaded.save(again);
    // Only the header names the flavor; every query line is identical.
    EXPECT_EQ(again.str().substr(again.str().find('\n')),
              text.substr(text.find('\n')));
}

/**
 * A trace cut at any byte either loads as a prefix of the whole (a
 * number cut short still parses) or exits 2 with a diagnostic: never
 * an uncaught exception, an abort, or a query that is not the saved
 * one.
 */
TEST(TraceLoadDeathTest, TruncationAtEveryByteLoadsAPrefixOrExitsTwo)
{
    const std::string text = savedTrace(4);
    const QueryTrace whole = loadText(text);
    const auto exitedZeroOrTwo = [](int status) {
        return WIFEXITED(status) &&
               (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 2);
    };
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        EXPECT_EXIT(
            {
                const QueryTrace part = loadText(text.substr(0, cut));
                bool prefix = part.size() <= whole.size();
                for (std::size_t i = 0; prefix && i + 1 < part.size();
                     ++i) {
                    prefix = part.query(i).terms == whole.query(i).terms &&
                             part.query(i).arrivalSeconds ==
                                 whole.query(i).arrivalSeconds;
                }
                std::exit(prefix ? 0 : 3);
            },
            exitedZeroOrTwo, "")
            << "cut at byte " << cut;
        // Cut at a line end, the load is exactly the lines before the
        // cut: the newlines before a cut at a newline count the header
        // plus every query line but the one ending at the cut.
        if (cut < text.size() && text[cut] == '\n') {
            const QueryTrace part = loadText(text.substr(0, cut));
            const auto lines = static_cast<std::size_t>(
                std::count(text.begin(), text.begin() + cut, '\n'));
            ASSERT_EQ(part.size(), lines) << "cut at byte " << cut;
            for (std::size_t i = 0; i < part.size(); ++i)
                EXPECT_EQ(part.query(i).terms, whole.query(i).terms);
        }
    }
}

/** Any single flipped bit of a saved trace loads or exits 2. */
TEST(TraceLoadDeathTest, EverySingleBitFlipLoadsOrExitsTwo)
{
    const std::string text = savedTrace(3);
    const auto exitedZeroOrTwo = [](int status) {
        return WIFEXITED(status) &&
               (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 2);
    };
    for (std::size_t byte = 0; byte < text.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = text;
            flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
            EXPECT_EXIT(
                {
                    loadText(flipped);
                    std::exit(0);
                },
                exitedZeroOrTwo, "")
                << "byte " << byte << " bit " << bit;
        }
    }
}

TEST(TraceLoadDeathTest, MalformedLinesExitTwoNamingTheLine)
{
    const auto exitsTwo = [](const std::string &text,
                             const std::string &message) {
        EXPECT_EXIT(loadText(text), ::testing::ExitedWithCode(2), message)
            << text;
    };
    exitsTwo("0.5 12x\n", "line 1: term: expected an integer");
    exitsTwo("# header\nabc 3\n", "line 2: arrival: expected a number");
    exitsTwo("0.5 3 -4\n", "term: expected an integer");
    exitsTwo("nan 3\n", "arrival: expected a finite number");
    exitsTwo("inf 3\n", "arrival: expected a finite number");
    exitsTwo("1e999 3\n", "arrival: expected a finite number");
    exitsTwo("-0.5 3\n", "arrival: expected a non-negative time");
    exitsTwo("0.5\n", "term: input ends early");
    // Term ids above TermId's range are rejected, never truncated;
    // the all-ones id is the invalidTerm sentinel, not a term.
    exitsTwo("0.5 4294967296\n", "term: expected an integer");
    exitsTwo("0.5 4294967295\n", "term: expected an integer");
    exitsTwo("0.5 99999999999999999999999\n", "term: expected an integer");
    // The largest real id still loads.
    EXPECT_EQ(loadText("0.5 4294967294\n").query(0).terms,
              std::vector<TermId>{4294967294u});
}

TEST(Trace, AppendAssignsSequentialIds)
{
    QueryTrace trace;
    Query q;
    q.terms = {1, 2};
    trace.append(q);
    trace.append(q);
    EXPECT_EQ(trace.query(0).id, 0u);
    EXPECT_EQ(trace.query(1).id, 1u);
}

TEST(Trace, QueryTextUsesVocabulary)
{
    const Vocabulary vocab(2000);
    Query query;
    query.terms = {vocab.lookup("canada"), vocab.lookup("tokyo")};
    EXPECT_EQ(query.text(vocab), "canada tokyo");
}

} // namespace
} // namespace cottage
