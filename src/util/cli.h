/**
 * @file
 * Minimal command-line flag parsing for the example applications and
 * bench harnesses. Supports "--key=value" and boolean "--flag" forms
 * (the "--key value" form is intentionally not supported: it is
 * ambiguous against positional arguments), with typed accessors and
 * defaults. Unknown positional arguments are collected in order.
 */

#ifndef COTTAGE_UTIL_CLI_H
#define COTTAGE_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cottage {

/** Parsed command line. */
class CliFlags
{
  public:
    CliFlags() = default;

    /**
     * Parse argv. A token "--name=value" becomes a key/value flag; a
     * bare "--name" becomes a boolean flag with value "true". Other
     * tokens become positional arguments.
     */
    CliFlags(int argc, const char *const *argv);

    /** True if the flag appeared on the command line. */
    bool has(const std::string &name) const;

    /** String value, or fallback when absent. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /** Integer value, or fallback when absent. Fatal on parse failure. */
    int64_t getInt(const std::string &name, int64_t fallback) const;

    /** Double value, or fallback when absent. Fatal on parse failure. */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Boolean value; "--name", "--name=true/1/yes" are true,
     * "--name=false/0/no" is false. Fatal on anything else.
     */
    bool getBool(const std::string &name, bool fallback) const;

    /** Positional (non-flag) arguments in order of appearance. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** All flags, for echoing a run's configuration. */
    const std::map<std::string, std::string> &flags() const { return flags_; }

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

/**
 * Report a command-line usage error and exit with status 2 (the
 * conventional "bad invocation" code, distinct from a run failure).
 * For operator mistakes on flag VALUES — a non-positive core count, a
 * zero qps scale — where an assertion abort (with its core dump and
 * stack trace) would be hostile to a human who just typo'd a flag.
 * @p usage, when non-empty, is printed after the error as a hint
 * (e.g. "--isn-cores=N with N >= 1").
 */
[[noreturn]] void cliError(const std::string &message,
                           const std::string &usage = "");

/**
 * Fetch an integer flag and cliError() unless it is >= @p minimum.
 * The fallback is NOT validated: callers pass compiled-in defaults.
 */
int64_t getIntAtLeast(const CliFlags &flags, const std::string &name,
                      int64_t fallback, int64_t minimum);

/**
 * Fetch an integer flag and cliError() unless it lies in
 * [@p minimum, @p maximum], e.g. a count whose field is narrower than
 * int64_t. The fallback is NOT validated.
 */
int64_t getIntInRange(const CliFlags &flags, const std::string &name,
                      int64_t fallback, int64_t minimum, int64_t maximum);

/** Fetch a double flag and cliError() unless it is strictly positive. */
double getPositiveDouble(const CliFlags &flags, const std::string &name,
                         double fallback);

} // namespace cottage

#endif // COTTAGE_UTIL_CLI_H
