/**
 * @file
 * cottage_lint CLI implementation.
 *
 *     cottage_lint [--root <dir>] [--as <virtual-path>] [paths...]
 *
 * With no paths, scans src/, bench/, tests/ and tools/ under --root
 * (default "."). Directories are walked recursively for .h/.cc/.cpp
 * files in sorted order; build trees and the lint fixtures are
 * skipped. Exit codes: 0 clean, 1 findings, 2 bad input — and "bad
 * input" includes an explicit path that does not exist or matches no
 * source files, so a typo'd path in CI fails loudly instead of
 * reporting a vacuous "0 findings" (scripts/check_bench.py uses the
 * same convention).
 *
 * --as lints a single file under a pretend repo-relative path, so the
 * path-scoped rules (D2/D3/D7/D9, test exemptions) can be exercised
 * against a file living elsewhere (the fixture suite uses this).
 */

#include "cli.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace cottage::lint {

namespace fs = std::filesystem;

namespace {

/** Default scan set, matching the CI static-analysis job. */
const char *const kDefaultRoots[] = {"src", "bench", "tests", "tools"};

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

/** Subtrees never scanned: build output and the known-bad fixtures. */
bool
isSkippedDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return name.rfind("build", 0) == 0 || name == "fixtures" ||
           name == ".git";
}

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/** Collect source files under @p p (file or directory), sorted. */
void
collect(const fs::path &p, std::vector<fs::path> &out)
{
    if (fs::is_regular_file(p)) {
        out.push_back(p);
        return;
    }
    if (!fs::is_directory(p))
        return;
    std::vector<fs::path> entries;
    for (fs::recursive_directory_iterator it(p), end; it != end; ++it) {
        if (it->is_directory() && isSkippedDir(it->path())) {
            it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() && isSourceFile(it->path()))
            entries.push_back(it->path());
    }
    std::sort(entries.begin(), entries.end(),
              std::less<fs::path>()); // lexicographic, deterministic
    out.insert(out.end(), entries.begin(), entries.end());
}

} // namespace

int
runCli(int argc, const char *const *argv, std::ostream &out,
       std::ostream &err)
{
    fs::path root = ".";
    std::string asPath;
    std::vector<std::string> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--as" && i + 1 < argc) {
            asPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            out << "usage: cottage_lint [--root <dir>] "
                   "[--as <virtual-path>] [paths...]\n";
            return kExitClean;
        } else if (!arg.empty() && arg[0] == '-') {
            err << "cottage_lint: unknown flag " << arg << "\n";
            return kExitBadInput;
        } else {
            inputs.push_back(arg);
        }
    }

    if (!asPath.empty() && inputs.size() != 1) {
        err << "cottage_lint: --as needs exactly one input file\n";
        return kExitBadInput;
    }

    std::vector<fs::path> files;
    if (inputs.empty()) {
        for (const char *sub : kDefaultRoots)
            collect(root / sub, files);
        if (files.empty()) {
            err << "cottage_lint: no source files found under " << root
                << "\n";
            return kExitBadInput;
        }
    } else {
        for (const std::string &in : inputs) {
            const fs::path p =
                fs::path(in).is_absolute() ? fs::path(in) : root / in;
            if (!fs::exists(p)) {
                err << "cottage_lint: input path does not exist: " << p
                    << "\n";
                return kExitBadInput;
            }
            const std::size_t before = files.size();
            collect(p, files);
            if (files.size() == before) {
                err << "cottage_lint: input matched no source files: "
                    << p << "\n";
                return kExitBadInput;
            }
        }
    }

    Linter linter;
    for (const fs::path &file : files) {
        std::string content;
        if (!readFile(file, content)) {
            err << "cottage_lint: cannot read " << file << "\n";
            return kExitBadInput;
        }
        std::string rel = asPath;
        if (rel.empty()) {
            const fs::path relPath = file.lexically_relative(root);
            rel = (relPath.empty() || *relPath.begin() == "..")
                      ? file.generic_string()
                      : relPath.generic_string();
        }
        linter.addFile(rel, std::move(content));
    }

    const std::vector<Diagnostic> diags = linter.run();
    for (const Diagnostic &d : diags)
        out << d.format() << "\n";
    out << "cottage_lint: " << files.size() << " file(s), "
        << diags.size() << " finding(s)\n";
    return diags.empty() ? kExitClean : kExitFindings;
}

} // namespace cottage::lint
