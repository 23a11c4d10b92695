/**
 * @file
 * Unit and property tests for the index module: BM25, inverted index
 * construction, term statistics, and the four evaluators (including
 * the rank-safety equivalence property: MaxScore, WAND and BMW must return
 * exactly the exhaustive top-K).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>

#include "index/bm25.h"
#include "index/bmw_evaluator.h"
#include "index/collection_stats.h"
#include "index/exhaustive_evaluator.h"
#include "index/inverted_index.h"
#include "index/maxscore_evaluator.h"
#include "index/term_stats.h"
#include "index/top_k.h"
#include "index/wand_evaluator.h"
#include "text/corpus.h"
#include "text/trace.h"
#include "util/rng.h"

namespace cottage {
namespace {

TEST(Bm25, IdfDecreasesWithDocFreq)
{
    const Bm25 bm25(1000, 100.0);
    EXPECT_GT(bm25.idf(1), bm25.idf(10));
    EXPECT_GT(bm25.idf(10), bm25.idf(500));
    EXPECT_GT(bm25.idf(1000), 0.0); // Lucene-style IDF stays positive
}

TEST(Bm25, ScoreSaturatesWithTermFreq)
{
    const Bm25 bm25(1000, 100.0);
    const double idf = bm25.idf(10);
    const double s1 = bm25.score(idf, 1, 100);
    const double s2 = bm25.score(idf, 2, 100);
    const double s100 = bm25.score(idf, 100, 100);
    EXPECT_GT(s2, s1);
    EXPECT_GT(s100, s2);
    // Diminishing returns; never exceeds the static upper bound.
    EXPECT_LT(s2 - s1, s1);
    EXPECT_LT(s100, bm25.staticUpperBound(idf));
}

TEST(Bm25, LongerDocumentsScoreLower)
{
    const Bm25 bm25(1000, 100.0);
    const double idf = bm25.idf(10);
    EXPECT_GT(bm25.score(idf, 2, 50), bm25.score(idf, 2, 200));
}

TEST(TopKHeap, KeepsBestKWithDeterministicTies)
{
    TopKHeap heap(3);
    EXPECT_TRUE(heap.push({5, 1.0}));
    EXPECT_TRUE(heap.push({4, 2.0}));
    EXPECT_TRUE(heap.push({9, 1.0}));
    EXPECT_TRUE(heap.full());
    // Equal score, smaller doc id: must displace doc 9.
    EXPECT_TRUE(heap.push({2, 1.0}));
    // Equal score, larger doc id than current worst (5 @ 1.0): rejected.
    EXPECT_FALSE(heap.push({7, 1.0}));
    const auto ranked = heap.extractSorted();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].doc, 4u);
    EXPECT_EQ(ranked[1].doc, 2u);
    EXPECT_EQ(ranked[2].doc, 5u);
}

TEST(TopKHeap, ZeroCapacityRejectsEverything)
{
    TopKHeap heap(0);
    EXPECT_FALSE(heap.push({1, 5.0}));
    EXPECT_TRUE(heap.extractSorted().empty());
}

TEST(TopKHeap, ThresholdIsMinusInfinityUntilFull)
{
    TopKHeap heap(2);
    // Not full: any score must beat the threshold, including negative
    // ones (a -1.0 sentinel would wrongly prune scores below -1).
    EXPECT_EQ(heap.threshold(),
              -std::numeric_limits<double>::infinity());
    EXPECT_TRUE(heap.push({1, -5.0}));
    EXPECT_EQ(heap.threshold(),
              -std::numeric_limits<double>::infinity());
    EXPECT_TRUE(heap.push({2, -3.0}));
    // Full: threshold is the current worst score.
    EXPECT_DOUBLE_EQ(heap.threshold(), -5.0);
    EXPECT_TRUE(heap.push({3, -4.0}));
    EXPECT_DOUBLE_EQ(heap.threshold(), -4.0);
}

class IndexFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CorpusConfig config;
        config.numDocs = 800;
        config.vocabSize = 3000;
        config.meanDocLength = 80.0;
        config.numTopics = 12;
        config.seed = 77;
        corpus_ = std::make_unique<Corpus>(Corpus::generate(config));
        stats_ = std::make_shared<CollectionStats>(*corpus_);

        allDocs_.resize(corpus_->numDocs());
        for (DocId d = 0; d < corpus_->numDocs(); ++d)
            allDocs_[d] = d;
        index_ = std::make_unique<InvertedIndex>(*corpus_, allDocs_, stats_);
    }

    std::unique_ptr<Corpus> corpus_;
    std::shared_ptr<CollectionStats> stats_;
    std::vector<DocId> allDocs_;
    std::unique_ptr<InvertedIndex> index_;
};

TEST_F(IndexFixture, CollectionStatsMatchCorpus)
{
    EXPECT_EQ(stats_->numDocs(), corpus_->numDocs());
    EXPECT_NEAR(stats_->avgDocLength(), corpus_->averageDocLength(), 1e-9);
    // df of a term equals the number of documents containing it.
    uint64_t df0 = 0;
    for (const Document &doc : corpus_->documents()) {
        for (const TermFreq &tf : doc.terms) {
            if (tf.term == 0) {
                ++df0;
                break;
            }
        }
    }
    EXPECT_EQ(stats_->docFreq(0), df0);
    EXPECT_GE(stats_->collectionFreq(0), stats_->docFreq(0));
    EXPECT_EQ(stats_->docFreq(999999), 0u);
}

TEST_F(IndexFixture, MaxScoreBoundIsTightAndExact)
{
    const BlockMaxPostingList *list = index_->blockMax(0);
    ASSERT_NE(list, nullptr);
    const double idf = index_->idf(0);
    double best = 0.0;
    std::vector<Posting> postings;
    list->decode(postings);
    for (const Posting &posting : postings)
        best = std::max(best, index_->scorePosting(idf, posting));
    EXPECT_DOUBLE_EQ(index_->maxScore(0), best);
    // The static bound dominates the exact bound.
    EXPECT_GE(index_->scorer().staticUpperBound(idf), best);
    // Absent term -> zero bound.
    EXPECT_DOUBLE_EQ(index_->maxScore(2999999), 0.0);
}

TEST_F(IndexFixture, EvaluatorsAgreeWithExhaustive)
{
    // The core rank-safety property: identical top-K from all four
    // strategies across many random queries.
    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;
    const BmwEvaluator bmw;

    TraceConfig traceConfig;
    traceConfig.numQueries = 150;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 5;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    for (const Query &query : trace.queries()) {
        const SearchResult base = exhaustive.search(*index_, query.terms, 10);
        for (const Evaluator *other :
             {static_cast<const Evaluator *>(&maxscore),
              static_cast<const Evaluator *>(&wand),
              static_cast<const Evaluator *>(&bmw)}) {
            const SearchResult result =
                other->search(*index_, query.terms, 10);
            ASSERT_EQ(result.topK.size(), base.topK.size())
                << other->name() << " query " << query.id;
            for (std::size_t i = 0; i < base.topK.size(); ++i) {
                EXPECT_EQ(result.topK[i].doc, base.topK[i].doc)
                    << other->name() << " rank " << i << " query "
                    << query.id;
                EXPECT_NEAR(result.topK[i].score, base.topK[i].score,
                            1e-9);
            }
        }
    }
}

/**
 * The rank-safety property over *randomized* corpora: regenerate the
 * whole collection (size, vocabulary, document length, topic mix) from
 * a derived seed each round and re-assert MaxScore/WAND == exhaustive.
 * Guards against pruning bugs that only fire under score distributions
 * the one fixed fixture corpus happens not to produce.
 */
TEST(EvaluatorProperty, PruningMatchesExhaustiveOnRandomCorpora)
{
    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;
    Rng rng(0xC0774u);

    for (int round = 0; round < 5; ++round) {
        CorpusConfig config;
        config.numDocs = 300 + static_cast<uint32_t>(rng.uniformInt(0, 699));
        config.vocabSize = 800 + static_cast<uint32_t>(rng.uniformInt(0, 2199));
        config.meanDocLength = 40.0 + 80.0 * rng.uniform();
        config.numTopics = 4 + static_cast<uint32_t>(rng.uniformInt(0, 15));
        config.seed = rng.next();
        const Corpus corpus = Corpus::generate(config);
        auto stats = std::make_shared<CollectionStats>(corpus);
        std::vector<DocId> allDocs(corpus.numDocs());
        for (DocId d = 0; d < corpus.numDocs(); ++d)
            allDocs[d] = d;
        const InvertedIndex index(corpus, allDocs, stats);

        TraceConfig traceConfig;
        traceConfig.numQueries = 40;
        traceConfig.vocabSize = config.vocabSize;
        traceConfig.seed = rng.next();
        const QueryTrace trace = QueryTrace::generate(traceConfig);
        const std::size_t k = static_cast<std::size_t>(rng.uniformInt(1, 20));

        for (const Query &query : trace.queries()) {
            const SearchResult base =
                exhaustive.search(index, query.terms, k);
            for (const Evaluator *other :
                 {static_cast<const Evaluator *>(&maxscore),
                  static_cast<const Evaluator *>(&wand)}) {
                const SearchResult result =
                    other->search(index, query.terms, k);
                ASSERT_EQ(result.topK.size(), base.topK.size())
                    << other->name() << " round " << round << " query "
                    << query.id;
                for (std::size_t i = 0; i < base.topK.size(); ++i) {
                    ASSERT_EQ(result.topK[i].doc, base.topK[i].doc)
                        << other->name() << " round " << round
                        << " rank " << i << " query " << query.id;
                    ASSERT_NEAR(result.topK[i].score,
                                base.topK[i].score, 1e-9);
                }
            }
        }
    }
}

/**
 * The merged top-K must not depend on the order shard results arrive
 * in: with the strict (score, doc) total order, the best K of a
 * multi-set is unique, so pushing per-shard rankings into a TopKHeap
 * in any permutation must extract the identical sorted ranking. This
 * is what makes the parallel fan-out's merge deterministic.
 */
TEST(TopKHeap, MergeIsOrderInvariantUnderShuffledArrival)
{
    Rng rng(4242);
    for (int round = 0; round < 20; ++round) {
        // Synthesize per-shard rankings with colliding scores.
        std::vector<std::vector<ScoredDoc>> shardResults(8);
        DocId nextDoc = 0;
        for (auto &shard : shardResults) {
            const std::size_t n =
                static_cast<std::size_t>(rng.uniformInt(0, 12));
            for (std::size_t i = 0; i < n; ++i)
                shard.push_back(
                    {nextDoc++, static_cast<double>(rng.uniformInt(0, 5))});
        }

        TopKHeap reference(10);
        for (const auto &shard : shardResults)
            for (const ScoredDoc &hit : shard)
                reference.push(hit);
        const std::vector<ScoredDoc> expected = reference.extractSorted();

        std::vector<std::size_t> order(shardResults.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (int shuffle = 0; shuffle < 10; ++shuffle) {
            rng.shuffle(order);
            TopKHeap merged(10);
            for (std::size_t s : order)
                for (const ScoredDoc &hit : shardResults[s])
                    merged.push(hit);
            const std::vector<ScoredDoc> got = merged.extractSorted();
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                ASSERT_EQ(got[i].doc, expected[i].doc) << "rank " << i;
                ASSERT_EQ(got[i].score, expected[i].score);
            }
        }
    }
}

/**
 * The same equivalence property swept over result depths K — the
 * pruning thresholds behave differently at each depth.
 */
class EvaluatorDepthSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(EvaluatorDepthSweep, RankSafetyHoldsAtEveryDepth)
{
    CorpusConfig config;
    config.numDocs = 600;
    config.vocabSize = 2500;
    config.seed = 55;
    const Corpus corpus = Corpus::generate(config);
    std::vector<DocId> allDocs(corpus.numDocs());
    for (DocId d = 0; d < corpus.numDocs(); ++d)
        allDocs[d] = d;
    const InvertedIndex index(
        corpus, allDocs, std::make_shared<CollectionStats>(corpus));

    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;
    const std::size_t k = GetParam();

    TraceConfig traceConfig;
    traceConfig.numQueries = 60;
    traceConfig.vocabSize = 2500;
    traceConfig.seed = 56;
    const QueryTrace trace = QueryTrace::generate(traceConfig);
    for (const Query &query : trace.queries()) {
        const SearchResult base = exhaustive.search(index, query.terms, k);
        const SearchResult ms = maxscore.search(index, query.terms, k);
        const SearchResult wd = wand.search(index, query.terms, k);
        ASSERT_EQ(ms.topK.size(), base.topK.size());
        ASSERT_EQ(wd.topK.size(), base.topK.size());
        for (std::size_t i = 0; i < base.topK.size(); ++i) {
            EXPECT_EQ(ms.topK[i].doc, base.topK[i].doc) << "k=" << k;
            EXPECT_EQ(wd.topK[i].doc, base.topK[i].doc) << "k=" << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, EvaluatorDepthSweep,
                         ::testing::Values(1u, 3u, 10u, 50u, 500u));

TEST_F(IndexFixture, WeightedQueriesStayRankSafe)
{
    // Personalization weights must not break pruning: all evaluators
    // agree on weighted queries too.
    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;

    Rng rng(99);
    TraceConfig traceConfig;
    traceConfig.numQueries = 80;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 7;
    const QueryTrace trace = QueryTrace::generate(traceConfig);
    for (const Query &query : trace.queries()) {
        std::vector<WeightedTerm> weighted;
        for (TermId term : query.terms)
            weighted.push_back({term, rng.uniform(0.25, 3.0)});

        const SearchResult base = exhaustive.search(*index_, weighted, 10);
        for (const Evaluator *other :
             {static_cast<const Evaluator *>(&maxscore),
              static_cast<const Evaluator *>(&wand)}) {
            const SearchResult result =
                other->search(*index_, weighted, 10);
            ASSERT_EQ(result.topK.size(), base.topK.size())
                << other->name();
            for (std::size_t i = 0; i < base.topK.size(); ++i) {
                EXPECT_EQ(result.topK[i].doc, base.topK[i].doc)
                    << other->name() << " rank " << i;
            }
        }
    }
}

TEST_F(IndexFixture, UnitWeightsEqualUnweightedSearch)
{
    const MaxScoreEvaluator maxscore;
    const std::vector<TermId> terms = {30, 200};
    const SearchResult plain = maxscore.search(*index_, terms, 10);
    const SearchResult unit = maxscore.search(*index_, toWeighted(terms), 10);
    ASSERT_EQ(plain.topK.size(), unit.topK.size());
    for (std::size_t i = 0; i < plain.topK.size(); ++i) {
        EXPECT_EQ(plain.topK[i].doc, unit.topK[i].doc);
        EXPECT_DOUBLE_EQ(plain.topK[i].score, unit.topK[i].score);
    }
}

TEST_F(IndexFixture, UpweightingATermScalesItsContribution)
{
    const ExhaustiveEvaluator exhaustive;
    // Single-term query: doubling the weight doubles every score and
    // preserves the ranking exactly.
    const SearchResult base =
        exhaustive.search(*index_, std::vector<TermId>{30}, 10);
    const SearchResult boosted =
        exhaustive.search(*index_, std::vector<WeightedTerm>{{30, 2.0}}, 10);
    ASSERT_EQ(base.topK.size(), boosted.topK.size());
    for (std::size_t i = 0; i < base.topK.size(); ++i) {
        EXPECT_EQ(boosted.topK[i].doc, base.topK[i].doc);
        EXPECT_NEAR(boosted.topK[i].score, 2.0 * base.topK[i].score,
                    1e-9);
    }
}

/**
 * The anytime contract every evaluator must honor: a maxScoredDocs cap
 * stops the evaluation after that many candidates, returns the
 * best-so-far top-K, and reports truncation. Because evaluation is
 * deterministic, a capped run is a pure prefix replay — the engine
 * relies on this to rebuild a deadline-missing ISN's exact partial
 * ranking from its completed service fraction.
 */
class EvaluatorAnytimeCap : public IndexFixture
{
  protected:
    static std::vector<const Evaluator *>
    all()
    {
        static const ExhaustiveEvaluator exhaustive;
        static const MaxScoreEvaluator maxscore;
        static const WandEvaluator wand;
        static const BmwEvaluator bmw;
        return {&exhaustive, &maxscore, &wand, &bmw};
    }
};

TEST_F(EvaluatorAnytimeCap, ZeroCapReturnsEmptyAndTruncated)
{
    const std::vector<TermId> terms = {0, 5};
    for (const Evaluator *evaluator : all()) {
        const SearchResult result =
            evaluator->search(*index_, terms, 10, 0);
        EXPECT_TRUE(result.topK.empty()) << evaluator->name();
        EXPECT_TRUE(result.work.truncated) << evaluator->name();
        EXPECT_EQ(result.work.docsScored, 0u) << evaluator->name();
    }
}

TEST_F(EvaluatorAnytimeCap, LooseCapIsIdenticalToUncapped)
{
    const std::vector<TermId> terms = {0, 5, 30};
    for (const Evaluator *evaluator : all()) {
        const SearchResult full = evaluator->search(*index_, terms, 10);
        ASSERT_FALSE(full.work.truncated) << evaluator->name();
        for (uint64_t cap :
             {full.work.docsScored, full.work.docsScored + 1, noDocCap}) {
            const SearchResult capped =
                evaluator->search(*index_, terms, 10, cap);
            EXPECT_FALSE(capped.work.truncated)
                << evaluator->name() << " cap " << cap;
            EXPECT_EQ(capped.work.docsScored, full.work.docsScored)
                << evaluator->name();
            ASSERT_EQ(capped.topK.size(), full.topK.size())
                << evaluator->name();
            for (std::size_t i = 0; i < full.topK.size(); ++i) {
                EXPECT_EQ(capped.topK[i].doc, full.topK[i].doc)
                    << evaluator->name() << " rank " << i;
                EXPECT_DOUBLE_EQ(capped.topK[i].score, full.topK[i].score)
                    << evaluator->name() << " rank " << i;
            }
        }
    }
}

TEST_F(EvaluatorAnytimeCap, TightCapScoresExactlyCapDocsDeterministically)
{
    TraceConfig traceConfig;
    traceConfig.numQueries = 50;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 17;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    for (const Evaluator *evaluator : all()) {
        for (const Query &query : trace.queries()) {
            const SearchResult full =
                evaluator->search(*index_, query.terms, 10);
            if (full.work.docsScored < 2)
                continue;
            const uint64_t cap = full.work.docsScored / 2;
            const SearchResult a =
                evaluator->search(*index_, query.terms, 10, cap);
            // A tight cap stops the scan at exactly `cap` scored docs,
            // with a scoreable candidate left behind.
            EXPECT_TRUE(a.work.truncated)
                << evaluator->name() << " query " << query.id;
            EXPECT_EQ(a.work.docsScored, cap)
                << evaluator->name() << " query " << query.id;
            EXPECT_LE(a.work.postingsScored, full.work.postingsScored)
                << evaluator->name();
            // Prefix replay: the same cap reproduces the identical
            // partial ranking, bit for bit.
            const SearchResult b =
                evaluator->search(*index_, query.terms, 10, cap);
            ASSERT_EQ(a.topK.size(), b.topK.size()) << evaluator->name();
            for (std::size_t i = 0; i < a.topK.size(); ++i) {
                ASSERT_EQ(a.topK[i].doc, b.topK[i].doc)
                    << evaluator->name() << " rank " << i;
                ASSERT_EQ(a.topK[i].score, b.topK[i].score)
                    << evaluator->name() << " rank " << i;
            }
        }
    }
}

TEST_F(EvaluatorAnytimeCap, CappedWorkNeverExceedsCap)
{
    TraceConfig traceConfig;
    traceConfig.numQueries = 30;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 23;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    for (const Evaluator *evaluator : all()) {
        for (const Query &query : trace.queries()) {
            for (uint64_t cap : {1u, 7u, 50u, 400u}) {
                const SearchResult result =
                    evaluator->search(*index_, query.terms, 10, cap);
                EXPECT_LE(result.work.docsScored, cap)
                    << evaluator->name() << " query " << query.id;
                EXPECT_LE(result.topK.size(),
                          std::min<std::size_t>(10, cap))
                    << evaluator->name();
            }
        }
    }
}

/**
 * Regression for the negative-weight pruning bug: with a demoting
 * (negative-weight) term, a list's score upper bound is 0 — using
 * maxScore * weight (a *lower* bound there) let MaxScore and WAND skip
 * documents that actually belonged in the top-K. All evaluators must
 * match exhaustive under mixed-sign weights.
 */
TEST_F(IndexFixture, NegativeWeightsStayRankSafe)
{
    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;
    const BmwEvaluator bmw;

    Rng rng(0x9E6);
    TraceConfig traceConfig;
    traceConfig.numQueries = 120;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 11;
    const QueryTrace trace = QueryTrace::generate(traceConfig);
    for (const Query &query : trace.queries()) {
        std::vector<WeightedTerm> weighted;
        for (std::size_t i = 0; i < query.terms.size(); ++i) {
            // Flip signs aggressively; keep at least one promoting
            // term so the top-K is non-trivial.
            const double magnitude = rng.uniform(0.25, 3.0);
            const bool demote = i > 0 && rng.uniform() < 0.5;
            weighted.push_back(
                {query.terms[i], demote ? -magnitude : magnitude});
        }

        const SearchResult base = exhaustive.search(*index_, weighted, 10);
        for (const Evaluator *other :
             {static_cast<const Evaluator *>(&maxscore),
              static_cast<const Evaluator *>(&wand),
              static_cast<const Evaluator *>(&bmw)}) {
            const SearchResult result =
                other->search(*index_, weighted, 10);
            ASSERT_EQ(result.topK.size(), base.topK.size())
                << other->name() << " query " << query.id;
            for (std::size_t i = 0; i < base.topK.size(); ++i) {
                ASSERT_EQ(result.topK[i].doc, base.topK[i].doc)
                    << other->name() << " rank " << i << " query "
                    << query.id;
                ASSERT_NEAR(result.topK[i].score, base.topK[i].score,
                            1e-9);
            }
        }
    }
}

TEST_F(IndexFixture, CompressionShrinksTheIndex)
{
    const InvertedIndex::Footprint fp = index_->footprint();
    EXPECT_EQ(fp.rawPostingBytes,
              index_->totalPostings() * sizeof(Posting));
    EXPECT_GT(fp.compressedPostingBytes, 0u);
    // The StreamVByte block payload should at least halve 8-byte flat
    // postings.
    EXPECT_LT(fp.compressedPostingBytes, fp.rawPostingBytes / 2);
    EXPECT_GT(fp.docTableBytes, 0u);
    // The block-max skip layer is accounted too: that payload plus the
    // per-block metadata.
    EXPECT_GE(fp.blockMaxBytes, fp.compressedPostingBytes);
    std::size_t expectedBlockMax = 0;
    for (const BlockMaxPostingList &list : index_->blockLists())
        expectedBlockMax += list.bytes();
    EXPECT_EQ(fp.blockMaxBytes, expectedBlockMax);
}

TEST_F(IndexFixture, PruningReducesWork)
{
    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;

    TraceConfig traceConfig;
    traceConfig.numQueries = 100;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 6;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    uint64_t exhaustiveDocs = 0;
    uint64_t maxscoreDocs = 0;
    uint64_t wandDocs = 0;
    for (const Query &query : trace.queries()) {
        exhaustiveDocs +=
            exhaustive.search(*index_, query.terms, 10).work.docsScored;
        maxscoreDocs +=
            maxscore.search(*index_, query.terms, 10).work.docsScored;
        wandDocs += wand.search(*index_, query.terms, 10).work.docsScored;
    }
    EXPECT_LT(maxscoreDocs, exhaustiveDocs);
    EXPECT_LT(wandDocs, exhaustiveDocs);
}

TEST_F(IndexFixture, ResultsSortedBestFirst)
{
    const ExhaustiveEvaluator exhaustive;
    const std::vector<TermId> terms = {0, 5};
    const SearchResult result = exhaustive.search(*index_, terms, 10);
    ASSERT_FALSE(result.topK.empty());
    for (std::size_t i = 1; i < result.topK.size(); ++i)
        EXPECT_TRUE(ranksBetter(result.topK[i - 1], result.topK[i]) ||
                    (result.topK[i - 1].score == result.topK[i].score &&
                     result.topK[i - 1].doc == result.topK[i].doc));
}

TEST_F(IndexFixture, MissingTermsYieldEmptyResult)
{
    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const std::vector<TermId> terms = {2999999};
    EXPECT_TRUE(exhaustive.search(*index_, terms, 10).topK.empty());
    EXPECT_TRUE(maxscore.search(*index_, terms, 10).topK.empty());
}

TEST_F(IndexFixture, TermStatsBasicInvariants)
{
    const TermStatsStore store(*index_, 10);
    EXPECT_EQ(store.size(), index_->numTerms());
    const TermStats *ts = store.get(0);
    ASSERT_NE(ts, nullptr);

    EXPECT_DOUBLE_EQ(ts->postingLength,
                     static_cast<double>(index_->blockMax(0)->size()));
    EXPECT_DOUBLE_EQ(ts->maxScore, index_->maxScore(0));
    EXPECT_DOUBLE_EQ(ts->idf, index_->idf(0));

    // Percentile ordering.
    EXPECT_LE(ts->firstQuartile, ts->median);
    EXPECT_LE(ts->median, ts->thirdQuartile);
    EXPECT_LE(ts->thirdQuartile, ts->maxScore);
    EXPECT_LE(ts->kthScore, ts->maxScore);

    // Mean inequalities (harmonic <= geometric <= arithmetic).
    EXPECT_LE(ts->harmMeanScore, ts->geoMeanScore + 1e-9);
    EXPECT_LE(ts->geoMeanScore, ts->meanScore + 1e-9);

    // Count features are bounded by the posting length.
    EXPECT_GE(ts->numMaxScore, 1.0);
    EXPECT_LE(ts->docsNearMax, ts->postingLength);
    EXPECT_LE(ts->docsNearKth, ts->postingLength);
    EXPECT_LE(ts->localMaximaAboveMean, ts->localMaxima);
    EXPECT_LE(ts->localMaxima, ts->postingLength);

    // Heap-insertion feature: at least min(K, df), at most df.
    EXPECT_GE(ts->docsEverInTopK,
              std::min<double>(10.0, ts->postingLength));
    EXPECT_LE(ts->docsEverInTopK, ts->postingLength);

    // The static bound dominates the exact max.
    EXPECT_GE(ts->estimatedMaxScore, ts->maxScore);

    EXPECT_EQ(store.get(2999999), nullptr);

    // One slot table serves the postings and the statistics: on every
    // shard of a 4-way split, the two lookups agree on each id of the
    // vocabulary, the two ids past it, and the largest TermId.
    const TermId vocab =
        static_cast<TermId>(corpus_->vocabulary().size());
    std::vector<TermId> ids;
    for (TermId t = 0; t <= vocab + 1; ++t)
        ids.push_back(t);
    ids.push_back(std::numeric_limits<TermId>::max());
    std::size_t absent = 0;
    for (DocId s = 0; s < 4; ++s) {
        std::vector<DocId> docs;
        for (DocId d = s; d < corpus_->numDocs(); d += 4)
            docs.push_back(d);
        const InvertedIndex shard(*corpus_, docs, stats_);
        const TermStatsStore shardStats(shard, 10);
        for (TermId t : ids) {
            const BlockMaxPostingList *list = shard.blockMax(t);
            const TermStats *termStats = shardStats.get(t);
            ASSERT_EQ(termStats != nullptr, list != nullptr) << "term " << t;
            if (list == nullptr) {
                absent += t < vocab;
                continue;
            }
            EXPECT_EQ(termStats->postingLength,
                      static_cast<double>(list->size()));
            EXPECT_EQ(std::bit_cast<uint64_t>(termStats->maxScore),
                      std::bit_cast<uint64_t>(list->maxScore()));
        }
    }
    // Some in-vocabulary terms are missing from some shard, so the
    // sentinel is reached inside the table as well as past its end.
    EXPECT_GT(absent, 0u);
}

TEST_F(IndexFixture, TermStatsKthScoreMatchesSortedScores)
{
    const TermStatsStore store(*index_, 10);
    const BlockMaxPostingList *list = index_->blockMax(2);
    ASSERT_NE(list, nullptr);
    const double idf = index_->idf(2);
    std::vector<Posting> postings;
    list->decode(postings);
    std::vector<double> scores;
    for (const Posting &posting : postings)
        scores.push_back(index_->scorePosting(idf, posting));
    std::sort(scores.begin(), scores.end(), std::greater<double>());
    const TermStats *ts = store.get(2);
    ASSERT_NE(ts, nullptr);
    const double expected =
        scores.size() >= 10 ? scores[9] : scores.back();
    EXPECT_NEAR(ts->kthScore, expected, 1e-12);
}

} // namespace
} // namespace cottage
