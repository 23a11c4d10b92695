/**
 * @file
 * cottage_lint CLI driver, split from main() so the exit semantics
 * (0 = clean, 1 = findings, 2 = bad input) can be exercised from the
 * test suite (including as death tests).
 */

#ifndef COTTAGE_LINT_CLI_H
#define COTTAGE_LINT_CLI_H

#include <iosfwd>

namespace cottage::lint {

/** Process exit codes, matching scripts/check_bench.py's convention. */
enum CliExit : int {
    kExitClean = 0,    ///< Scan ran, no findings survived suppression.
    kExitFindings = 1, ///< Scan ran, at least one finding.
    kExitBadInput = 2, ///< Usage error, unreadable/nonexistent input,
                       ///< or an input that matched no source files.
};

/**
 * Run the CLI: parse @p argv, scan, print findings to @p out and
 * diagnostics to @p err. Returns a CliExit value; never calls exit()
 * itself.
 */
int runCli(int argc, const char *const *argv, std::ostream &out,
           std::ostream &err);

} // namespace cottage::lint

#endif // COTTAGE_LINT_CLI_H
