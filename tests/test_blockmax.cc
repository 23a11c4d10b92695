/**
 * @file
 * Block-max layer tests: structural invariants of BlockMaxPostingList,
 * cursor deep/shallow seek semantics and I/O accounting, the *bitwise*
 * rank-safety property of the BMW evaluator against exhaustive over
 * randomized corpora (ties, negative weights, single-term and
 * all-stopword queries), and work-saving assertions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/block_codec.h"
#include "index/block_max.h"
#include "index/bmw_evaluator.h"
#include "index/collection_stats.h"
#include "index/exhaustive_evaluator.h"
#include "index/inverted_index.h"
#include "index/maxscore_evaluator.h"
#include "index/wand_evaluator.h"
#include "text/corpus.h"
#include "text/trace.h"
#include "util/rng.h"

namespace cottage {
namespace {

/** Build an index over a whole corpus with a given block size. */
std::unique_ptr<InvertedIndex>
wholeCorpusIndex(const Corpus &corpus, uint32_t blockSize)
{
    std::vector<DocId> allDocs(corpus.numDocs());
    for (DocId d = 0; d < corpus.numDocs(); ++d)
        allDocs[d] = d;
    return std::make_unique<InvertedIndex>(
        corpus, allDocs, std::make_shared<CollectionStats>(corpus),
        Bm25Params{}, blockSize);
}

/** A whole list, decoded. */
std::vector<Posting>
decoded(const BlockMaxPostingList &list)
{
    std::vector<Posting> postings;
    list.decode(postings);
    return postings;
}

/** Decode scratch for one cursor on @p list. */
std::vector<uint32_t>
scratchFor(const BlockMaxPostingList &list)
{
    return std::vector<uint32_t>(BlockMaxCursor::scratchSlots(list));
}

/** The longest list of a shard (first by term on ties). */
const BlockMaxPostingList &
longestList(const InvertedIndex &index)
{
    const BlockMaxPostingList *longest = nullptr;
    for (const BlockMaxPostingList &list : index.blockLists()) {
        if (longest == nullptr || list.size() > longest->size())
            longest = &list;
    }
    COTTAGE_CHECK(longest != nullptr);
    return *longest;
}

/** Bitwise score equality: rank-safety here means identical doubles. */
void
expectBitIdentical(const SearchResult &result, const SearchResult &base,
                   const char *name, QueryId query)
{
    ASSERT_EQ(result.topK.size(), base.topK.size())
        << name << " query " << query;
    for (std::size_t i = 0; i < base.topK.size(); ++i) {
        ASSERT_EQ(result.topK[i].doc, base.topK[i].doc)
            << name << " rank " << i << " query " << query;
        const double a = result.topK[i].score;
        const double b = base.topK[i].score;
        ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
            << name << " rank " << i << " query " << query
            << ": scores differ in bits (" << a << " vs " << b << ")";
    }
}

class BlockMaxFixture : public ::testing::Test
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
        index_ = wholeCorpusIndex(*corpus_, 64);
    }

    std::unique_ptr<Corpus> corpus_;
    std::unique_ptr<InvertedIndex> index_;
};

TEST_F(BlockMaxFixture, BlocksPartitionEveryList)
{
    for (const BlockMaxPostingList &list : index_->blockLists()) {
        EXPECT_EQ(index_->blockMax(list.term()), &list);
        ASSERT_GT(list.numBlocks(), 0u);
        const std::vector<Posting> postings = decoded(list);
        ASSERT_EQ(postings.size(), list.size());

        const double idf = index_->idf(list.term());
        uint64_t covered = 0;
        for (std::size_t b = 0; b < list.numBlocks(); ++b) {
            const auto &block = list.block(b);
            // Exact per-block bound: the max over exactly the block's
            // postings, and lastDoc is the block's final document.
            double expectedMax = 0.0;
            for (uint32_t i = 0; i < block.count; ++i) {
                expectedMax = std::max(
                    expectedMax,
                    index_->scorePosting(idf, postings[covered + i]));
            }
            EXPECT_DOUBLE_EQ(block.maxScore, expectedMax)
                << "term " << list.term() << " block " << b;
            EXPECT_EQ(block.lastDoc,
                      postings[covered + block.count - 1].doc);
            if (b + 1 < list.numBlocks()) {
                EXPECT_EQ(block.count, list.blockSize());
            }
            covered += block.count;
        }
        EXPECT_EQ(covered, list.size());
        EXPECT_DOUBLE_EQ(list.maxScore(), index_->maxScore(list.term()));
    }
}

/**
 * The block lists are the index's only postings, so they must decode
 * to exactly the (doc, freq) postings the corpus implies: for every
 * term of every shard, ascending by shard-local doc, at the
 * production block sizes {64, 128, 256} and at degenerate ones (the
 * gap chain restarts per block, so every block decodes standalone).
 */
TEST_F(BlockMaxFixture, DecodedListsReproduceCorpusPostings)
{
    constexpr uint32_t numShards = 4;
    const auto stats = std::make_shared<CollectionStats>(*corpus_);
    for (uint32_t blockSize : {1u, 3u, 64u, 128u, 256u, 100000u}) {
        for (uint32_t shard = 0; shard < numShards; ++shard) {
            std::vector<DocId> docIds;
            for (DocId d = shard; d < corpus_->numDocs(); d += numShards)
                docIds.push_back(d);
            const InvertedIndex index(*corpus_, docIds, stats, Bm25Params{},
                                      blockSize);

            std::map<TermId, std::vector<Posting>> expected;
            uint64_t total = 0;
            for (LocalDocId local = 0; local < docIds.size(); ++local) {
                for (const TermFreq &tf :
                     corpus_->document(docIds[local]).terms) {
                    expected[tf.term].push_back({local, tf.freq});
                    ++total;
                }
            }
            ASSERT_EQ(index.numTerms(), expected.size());
            EXPECT_EQ(index.totalPostings(), total);
            // blockLists() ascends by term, like the ordered map.
            auto want = expected.begin();
            for (const BlockMaxPostingList &list : index.blockLists()) {
                ASSERT_EQ(list.term(), want->first);
                const std::vector<Posting> got = decoded(list);
                ASSERT_EQ(got.size(), want->second.size())
                    << "term " << list.term() << " shard " << shard;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_EQ(got[i].doc, want->second[i].doc)
                        << "term " << list.term() << " posting " << i
                        << " shard " << shard << " block size "
                        << blockSize;
                    ASSERT_EQ(got[i].freq, want->second[i].freq)
                        << "term " << list.term() << " posting " << i;
                }
                ++want;
            }
        }
    }
}

TEST_F(BlockMaxFixture, CursorWalkMatchesDecodedList)
{
    for (const BlockMaxPostingList &list : index_->blockLists()) {
        BlockIo io;
        std::vector<uint32_t> scratch = scratchFor(list);
        BlockMaxCursor cursor(list, io, scratch.data());
        for (const Posting &expected : decoded(list)) {
            ASSERT_FALSE(cursor.exhausted());
            EXPECT_EQ(cursor.doc(), expected.doc);
            EXPECT_EQ(cursor.freq(), expected.freq);
            cursor.advance();
        }
        EXPECT_TRUE(cursor.exhausted());
        // A full walk decodes every block and skips nothing.
        EXPECT_EQ(io.blocksDecoded, list.numBlocks());
        EXPECT_EQ(io.blocksSkipped, 0u);
        EXPECT_EQ(io.docsSkipped, 0u);
    }
}

TEST_F(BlockMaxFixture, SeekLandsOnLowerBoundAndCountsSkips)
{
    // Pick a reasonably long list so seeks cross block boundaries.
    const BlockMaxPostingList &bm = longestList(*index_);
    ASSERT_GT(bm.size(), 128u);
    const std::vector<Posting> postings = decoded(bm);
    std::vector<uint32_t> scratch = scratchFor(bm);

    Rng rng(31337);
    for (int round = 0; round < 200; ++round) {
        const LocalDocId target = static_cast<LocalDocId>(
            rng.uniformInt(0, static_cast<int64_t>(index_->numDocs())));
        BlockIo io;
        BlockMaxCursor cursor(bm, io, scratch.data());
        cursor.seek(target);

        const auto it = std::lower_bound(
            postings.begin(), postings.end(), target,
            [](const Posting &p, LocalDocId d) { return p.doc < d; });
        if (it == postings.end()) {
            EXPECT_TRUE(cursor.exhausted()) << "target " << target;
        } else {
            ASSERT_FALSE(cursor.exhausted()) << "target " << target;
            EXPECT_EQ(cursor.doc(), it->doc) << "target " << target;
        }
        // Everything before the landing point was skipped, and the
        // cursor decoded at most one block to get there.
        EXPECT_EQ(io.docsSkipped,
                  static_cast<uint64_t>(it - postings.begin()));
        EXPECT_LE(io.blocksDecoded, 1u);
    }
}

TEST_F(BlockMaxFixture, ShallowSeekNeverDecodes)
{
    const BlockMaxPostingList *bm = &longestList(*index_);
    ASSERT_GT(bm->numBlocks(), 2u);

    BlockIo io;
    std::vector<uint32_t> scratch = scratchFor(*bm);
    BlockMaxCursor cursor(*bm, io, scratch.data());
    const LocalDocId target = bm->block(1).lastDoc;
    cursor.shallowSeek(target);
    EXPECT_EQ(io.blocksDecoded, 0u);
    EXPECT_EQ(io.blocksSkipped, 1u);
    EXPECT_EQ(io.docsSkipped,
              static_cast<uint64_t>(bm->block(0).count));
    EXPECT_EQ(cursor.blockLastDoc(), bm->block(1).lastDoc);
    EXPECT_DOUBLE_EQ(cursor.blockMaxScore(), bm->block(1).maxScore);
    // The follow-up deep seek decodes exactly the one block it needs.
    cursor.seek(target);
    EXPECT_EQ(io.blocksDecoded, 1u);
    EXPECT_EQ(cursor.doc(), target);
}

/**
 * The tentpole property, strengthened to the bit level: BMW must
 * return the *bit-identical* top-K (ids and score doubles) the
 * exhaustive evaluator returns — over regenerated random corpora,
 * random block sizes and result depths, with plain, weighted and
 * mixed-sign (demoting) queries, plus the degenerate shapes that break
 * naive pruning: single-term queries and all-stopword (highest
 * document frequency) queries full of score ties.
 */
TEST(BlockMaxProperty, BmwIsBitIdenticalToExhaustive)
{
    const ExhaustiveEvaluator exhaustive;
    const BmwEvaluator bmw;
    Rng rng(0xB10CBA5Eu);

    for (int round = 0; round < 5; ++round) {
        CorpusConfig config;
        config.numDocs =
            300 + static_cast<uint32_t>(rng.uniformInt(0, 699));
        config.vocabSize =
            800 + static_cast<uint32_t>(rng.uniformInt(0, 2199));
        config.meanDocLength = 40.0 + 80.0 * rng.uniform();
        config.numTopics = 4 + static_cast<uint32_t>(rng.uniformInt(0, 15));
        config.seed = rng.next();
        const Corpus corpus = Corpus::generate(config);
        const uint32_t blockSize =
            static_cast<uint32_t>(rng.uniformInt(1, 256));
        const auto index = wholeCorpusIndex(corpus, blockSize);
        const std::size_t k =
            static_cast<std::size_t>(rng.uniformInt(1, 20));

        // All-stopword query: the highest-df terms produce long lists
        // with tiny idf and massive tie plateaus.
        std::vector<std::pair<std::size_t, TermId>> byDf;
        for (const BlockMaxPostingList &list : index->blockLists())
            byDf.push_back({list.size(), list.term()});
        std::sort(byDf.begin(), byDf.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
        std::vector<TermId> stopwords;
        for (std::size_t i = 0; i < std::min<std::size_t>(4, byDf.size());
             ++i)
            stopwords.push_back(byDf[i].second);

        TraceConfig traceConfig;
        traceConfig.numQueries = 30;
        traceConfig.vocabSize = config.vocabSize;
        traceConfig.seed = rng.next();
        const QueryTrace trace = QueryTrace::generate(traceConfig);

        std::vector<std::vector<WeightedTerm>> queries;
        for (const Query &query : trace.queries()) {
            // Plain, then mixed-sign weighted variant of each query.
            queries.push_back(toWeighted(query.terms));
            std::vector<WeightedTerm> weighted;
            for (std::size_t i = 0; i < query.terms.size(); ++i) {
                const double magnitude = rng.uniform(0.25, 3.0);
                const bool demote = i > 0 && rng.uniform() < 0.5;
                weighted.push_back({query.terms[i],
                                    demote ? -magnitude : magnitude});
            }
            queries.push_back(weighted);
            // Single-term query from the same draw.
            queries.push_back(toWeighted({query.terms[0]}));
        }
        queries.push_back(toWeighted(stopwords));

        for (std::size_t q = 0; q < queries.size(); ++q) {
            const SearchResult base =
                exhaustive.search(*index, queries[q], k);
            expectBitIdentical(bmw.search(*index, queries[q], k), base,
                               "bmw", static_cast<QueryId>(q));
        }
    }
}

/**
 * Determinism matrix over the production block sizes: at {64, 128,
 * 256}, bmw must (a) return the bit-identical top-K the
 * exhaustive evaluator returns, and (b) produce a byte-identical
 * per-query work-counter stream (docsSkipped / blocksDecoded /
 * blocksSkipped included) when the same trace is replayed — the
 * codec's group decode and skip charging differ per block size, so
 * each size is its own replay contract. test_parallel.cc runs the
 * same matrix across thread counts; this one pins the single-threaded
 * baseline the parallel runs are compared against.
 */
TEST_F(BlockMaxFixture, WorkCountersReplayByteIdenticalPerBlockSize)
{
    const ExhaustiveEvaluator exhaustive;
    const BmwEvaluator bmw;

    TraceConfig traceConfig;
    traceConfig.numQueries = 120;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 99;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    const auto serializeWork = [](const SearchWork &work) {
        std::string bytes;
        for (uint64_t field :
             {work.postingsScored, work.docsScored, work.heapInsertions,
              work.postingsSkipped, work.docsSkipped, work.blocksDecoded,
              work.blocksSkipped}) {
            bytes.append(reinterpret_cast<const char *>(&field),
                         sizeof field);
        }
        return bytes;
    };

    for (const uint32_t blockSize : {64u, 128u, 256u}) {
        const auto index = wholeCorpusIndex(*corpus_, blockSize);
        std::string first, second;
        for (const Query &query : trace.queries()) {
            const SearchResult a = bmw.search(*index, query.terms, 10);
            first += serializeWork(a.work);
            expectBitIdentical(a,
                               exhaustive.search(*index, query.terms, 10),
                               "bmw", query.id);
        }
        for (const Query &query : trace.queries())
            second += serializeWork(bmw.search(*index, query.terms, 10).work);
        EXPECT_EQ(first, second)
            << "bmw at block size " << blockSize
            << ": work-counter stream not replay-stable";
    }
}

/**
 * QueryCursors' scratch-slab stack/heap boundary, pinned on both
 * sides: a query whose cursors' combined scratch demand lands EXACTLY
 * on kEvaluatorStackSlabSlots must take the stack path (the boundary
 * is inclusive — `slabSlots > kEvaluatorStackSlabSlots` spills), and
 * one term more must take the heap path, with bit-identical rankings
 * either way. At block size 128 each cursor wants
 * 2 * streamVByteDecodeCapacity(128) = 256 slots, so 8 terms fill the
 * 2048-slot slab exactly and 9 overflow it. An off-by-one in the spill
 * comparison (>=) would send the exact-fit query through an
 * uninitialized or undersized path; this test is the tripwire.
 */
TEST(BlockMaxSlab, StackHeapBoundaryIsExactAndRankSafe)
{
    CorpusConfig config;
    config.numDocs = 800;
    config.vocabSize = 3000;
    config.meanDocLength = 80.0;
    config.numTopics = 12;
    config.seed = 77;
    const Corpus corpus = Corpus::generate(config);
    const uint32_t blockSize = 128;
    const auto index = wholeCorpusIndex(corpus, blockSize);

    const std::size_t slotsPerTerm =
        2 * streamVByteDecodeCapacity(blockSize);
    const std::size_t exactTerms = kEvaluatorStackSlabSlots / slotsPerTerm;
    ASSERT_EQ(exactTerms * slotsPerTerm, kEvaluatorStackSlabSlots)
        << "block size no longer divides the slab evenly; pick another";

    // The highest-df terms: long multi-block lists, so every cursor
    // really decodes through its scratch half.
    std::vector<std::pair<std::size_t, TermId>> byDf;
    for (const BlockMaxPostingList &list : index->blockLists())
        byDf.push_back({list.size(), list.term()});
    std::sort(byDf.begin(), byDf.end(), [](const auto &a, const auto &b) {
        if (a.first != b.first)
            return a.first > b.first;
        return a.second < b.second;
    });
    ASSERT_GT(byDf.size(), exactTerms);

    std::vector<TermId> terms;
    for (std::size_t i = 0; i <= exactTerms; ++i)
        terms.push_back(byDf[i].second);
    const std::vector<TermId> exactFit(terms.begin(),
                                       terms.begin() + exactTerms);
    const std::vector<TermId> oneOver = terms;

    std::size_t demand = 0;
    for (const TermId term : exactFit)
        demand += BlockMaxCursor::scratchSlots(*index->blockMax(term));
    ASSERT_EQ(demand, kEvaluatorStackSlabSlots);

    const ExhaustiveEvaluator exhaustive;
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;
    const BmwEvaluator bmw;
    for (const std::vector<TermId> &query : {exactFit, oneOver}) {
        const auto weighted = toWeighted(query);
        for (const std::size_t k : {1u, 10u, 50u}) {
            const SearchResult base =
                exhaustive.search(*index, weighted, k);
            ASSERT_FALSE(base.topK.empty());
            // Every evaluator opens its cursors through QueryCursors.
            for (const Evaluator *other :
                 {static_cast<const Evaluator *>(&maxscore),
                  static_cast<const Evaluator *>(&wand),
                  static_cast<const Evaluator *>(&bmw)}) {
                expectBitIdentical(other->search(*index, weighted, k), base,
                                   other->name(),
                                   static_cast<QueryId>(query.size()));
            }
        }
    }
}

TEST_F(BlockMaxFixture, BlockPruningBeatsFlatPruning)
{
    const MaxScoreEvaluator maxscore;
    const WandEvaluator wand;
    const BmwEvaluator bmw;

    TraceConfig traceConfig;
    traceConfig.numQueries = 100;
    traceConfig.vocabSize = 3000;
    traceConfig.seed = 6;
    const QueryTrace trace = QueryTrace::generate(traceConfig);

    SearchWork wandWork, maxscoreWork, bmwWork;
    for (const Query &query : trace.queries()) {
        wandWork += wand.search(*index_, query.terms, 10).work;
        maxscoreWork += maxscore.search(*index_, query.terms, 10).work;
        bmwWork += bmw.search(*index_, query.terms, 10).work;
    }
    // The acceptance property: the shallow block-max check rejects
    // candidates WAND would have scored.
    EXPECT_LT(bmwWork.docsScored, wandWork.docsScored);
    // And the skip machinery actually engages.
    EXPECT_GT(bmwWork.blocksSkipped, 0u);
    EXPECT_GT(bmwWork.blocksDecoded, 0u);
    EXPECT_GT(bmwWork.docsSkipped, 0u);
    // The whole-list evaluators report their seek savings, but no
    // block counters: those stay bmw's (DESIGN.md §5e).
    EXPECT_GT(wandWork.docsSkipped, 0u);
    EXPECT_GT(maxscoreWork.docsSkipped, 0u);
    EXPECT_EQ(wandWork.blocksDecoded, 0u);
    EXPECT_EQ(maxscoreWork.blocksDecoded, 0u);
}

} // namespace
} // namespace cottage
