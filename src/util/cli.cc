#include "util/cli.h"

#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"

namespace cottage {

CliFlags::CliFlags(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (!startsWith(token, "--")) {
            positional_.push_back(token);
            continue;
        }
        token = token.substr(2);
        const std::size_t eq = token.find('=');
        if (eq != std::string::npos)
            flags_[token.substr(0, eq)] = token.substr(eq + 1);
        else
            flags_[token] = "true";
    }
}

bool
CliFlags::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CliFlags::getString(const std::string &name, const std::string &fallback) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
}

int64_t
CliFlags::getInt(const std::string &name, int64_t fallback) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    char *end = nullptr;
    const int64_t value = std::strtoll(it->second.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        fatal("flag --" + name + " expects an integer, got '" + it->second +
              "'");
    return value;
}

double
CliFlags::getDouble(const std::string &name, double fallback) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0')
        fatal("flag --" + name + " expects a number, got '" + it->second +
              "'");
    return value;
}

bool
CliFlags::getBool(const std::string &name, bool fallback) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return fallback;
    const std::string value = toLower(it->second);
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    fatal("flag --" + name + " expects a boolean, got '" + it->second + "'");
}

void
cliError(const std::string &message, const std::string &usage)
{
    std::fprintf(stderr, "error: %s\n", message.c_str());
    if (!usage.empty())
        std::fprintf(stderr, "usage: %s\n", usage.c_str());
    std::exit(2);
}

int64_t
getIntAtLeast(const CliFlags &flags, const std::string &name,
              int64_t fallback, int64_t minimum)
{
    const int64_t value = flags.getInt(name, fallback);
    if (flags.has(name) && value < minimum)
        cliError("flag --" + name + " must be >= " +
                     std::to_string(minimum) + ", got " +
                     std::to_string(value),
                 "--" + name + "=N with N >= " + std::to_string(minimum));
    return value;
}

int64_t
getIntInRange(const CliFlags &flags, const std::string &name,
              int64_t fallback, int64_t minimum, int64_t maximum)
{
    const int64_t value = getIntAtLeast(flags, name, fallback, minimum);
    if (flags.has(name) && value > maximum)
        cliError("flag --" + name + " must be <= " +
                     std::to_string(maximum) + ", got " +
                     std::to_string(value),
                 "--" + name + "=N with " + std::to_string(minimum) +
                     " <= N <= " + std::to_string(maximum));
    return value;
}

double
getPositiveDouble(const CliFlags &flags, const std::string &name,
                  double fallback)
{
    const double value = flags.getDouble(name, fallback);
    if (flags.has(name) && !(value > 0.0))
        cliError("flag --" + name + " must be strictly positive, got " +
                     std::to_string(value),
                 "--" + name + "=X with X > 0");
    return value;
}

} // namespace cottage
