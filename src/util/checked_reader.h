/**
 * @file
 * Token reader for the files the library loads (predictor models,
 * their manifests and query traces). Every read either yields a
 * well-formed value or exits with status 2 and a diagnostic naming
 * the file kind and the field, the same code as a command-line usage
 * error: a malformed input is the operator's mistake, not a bug, so
 * it must neither abort nor load silently as zeros.
 */

#ifndef COTTAGE_UTIL_CHECKED_READER_H
#define COTTAGE_UTIL_CHECKED_READER_H

#include <cstdint>
#include <iosfwd>
#include <string>

namespace cottage {

/** Whitespace-separated tokens from a stream, parsed or rejected. */
class CheckedReader
{
  public:
    /** @p source names the input in diagnostics ("cottage MLP model"). */
    CheckedReader(std::istream &in, std::string source);

    /** Next token; exits 2 when the input ends first. */
    std::string word(const std::string &field);

    /**
     * Next token as a finite double; exits 2 on a malformed token, NaN,
     * Inf or a value out of double range. Parses exactly as
     * `std::istream >> double` does for decimal tokens, so saved models
     * round-trip bit for bit.
     */
    double finite(const std::string &field);

    /** Next token as a decimal integer in [lo, hi]; exits 2 otherwise. */
    uint64_t integer(const std::string &field, uint64_t lo, uint64_t hi);

    /** True when only whitespace remains. */
    bool atEnd();

    /** Report malformed input and exit with status 2. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    std::istream &in_;
    std::string source_;
};

} // namespace cottage

#endif // COTTAGE_UTIL_CHECKED_READER_H
