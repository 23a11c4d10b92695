/**
 * @file
 * Reproduces Fig. 6 — a query's per-document score histogram on one
 * ISN against the Gamma distribution Taily fits from term statistics.
 * The interesting quantity is the tail: P(X > Kth score) from the fit
 * vs the empirical tail, whose mismatch is what makes Gamma-based ISN
 * cutoffs (Taily, Cottage-withoutML) imprecise.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "harness/experiment.h"
#include "harness/table.h"
#include "stats/gamma.h"
#include "stats/histogram.h"
#include "stats/ks.h"
#include "util/cli.h"

using namespace cottage;

int
main(int argc, char **argv)
{
    const CliFlags flags(argc, argv);
    ExperimentConfig config = ExperimentConfig::fromFlags(flags);
    config.traceQueries = 100; // the stack is all we need
    config.print(std::cout);
    Experiment experiment(std::move(config));

    const std::string text = flags.getString("query", "tokyo");
    const std::vector<TermId> terms =
        experiment.corpus().vocabulary().tokenize(text);
    if (terms.empty())
        fatal("query '" + text + "' has no known terms");
    const auto shard =
        static_cast<ShardId>(flags.getInt("isn", 0));

    // Empirical per-document scores of the query on the shard (docs
    // without any query term ignored, as in the paper).
    const InvertedIndex &index = experiment.index().shard(shard);
    std::vector<double> scores;
    {
        std::vector<double> perDoc(index.numDocs(), 0.0);
        std::vector<Posting> postings;
        for (TermId term : terms) {
            const BlockMaxPostingList *list = index.blockMax(term);
            if (list == nullptr)
                continue;
            const double idf = index.idf(term);
            list->decode(postings);
            for (const Posting &posting : postings)
                perDoc[posting.doc] += index.scorePosting(idf, posting);
        }
        for (double s : perDoc)
            if (s > 0.0)
                scores.push_back(s);
    }
    if (scores.empty())
        fatal("query matches nothing on ISN " + std::to_string(shard));

    const GammaDistribution fit = GammaDistribution::fitMoments(scores);

    std::cout << "\n=== Fig. 6: score histogram vs fitted Gamma, query \""
              << text << "\", ISN " << shard << " (" << scores.size()
              << " docs) ===\n";
    const double maxScore = *std::max_element(scores.begin(), scores.end());
    Histogram hist = Histogram::linear(0.0, maxScore * 1.001, 20);
    for (double s : scores)
        hist.add(s);

    TextTable table({"score bin", "empirical", "gamma-fit"});
    for (std::size_t b = 0; b < hist.bins(); ++b) {
        const double lo = hist.binLow(b);
        const double hi = hist.binHigh(b);
        const double model = (fit.cdf(hi) - fit.cdf(lo)) *
                             static_cast<double>(scores.size());
        table.addRow({TextTable::cell(lo, 2) + "-" + TextTable::cell(hi, 2),
                      TextTable::cell(hist.count(b)),
                      TextTable::cell(model, 1)});
    }
    std::cout << table.render();

    // The tail the selection decision depends on.
    std::vector<double> sorted = scores;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    const std::size_t k = experiment.index().topK();
    const double kth = sorted[std::min(k, sorted.size()) - 1];
    std::size_t empiricalAbove = 0;
    for (double s : scores)
        empiricalAbove += s > kth;
    const double modelAbove =
        fit.survival(kth) * static_cast<double>(scores.size());

    const double ks =
        ksDistance(scores, [&](double x) { return fit.cdf(x); });
    std::cout << "\nfitted Gamma: shape " << TextTable::cell(fit.shape(), 3)
              << ", scale " << TextTable::cell(fit.scale(), 3) << "\n";
    std::cout << "KS distance: " << TextTable::cell(ks, 3) << "\n";
    std::cout << "docs above the K-th score (" << TextTable::cell(kth, 2)
              << "): empirical " << empiricalAbove << ", gamma estimate "
              << TextTable::cell(modelAbove, 1)
              << " -> the cutoff error Taily inherits\n";
    return 0;
}
