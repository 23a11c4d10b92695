#include "util/checked_reader.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <utility>

namespace cottage {

CheckedReader::CheckedReader(std::istream &in, std::string source)
    : in_(in), source_(std::move(source))
{
}

std::string
CheckedReader::word(const std::string &field)
{
    std::string token;
    if (!(in_ >> token))
        fail(field + ": input ends early");
    return token;
}

double
CheckedReader::finite(const std::string &field)
{
    const std::string token = word(field);
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0')
        fail(field + ": expected a number, got '" + token + "'");
    if (!std::isfinite(value))
        fail(field + ": expected a finite number, got '" + token + "'");
    return value;
}

uint64_t
CheckedReader::integer(const std::string &field, uint64_t lo, uint64_t hi)
{
    const std::string token = word(field);
    const bool digits =
        !token.empty() && token.find_first_not_of("0123456789") ==
                              std::string::npos;
    errno = 0;
    const uint64_t value =
        digits ? std::strtoull(token.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE || value < lo || value > hi)
        fail(field + ": expected an integer in [" + std::to_string(lo) +
             ", " + std::to_string(hi) + "], got '" + token + "'");
    return value;
}

bool
CheckedReader::atEnd()
{
    return (in_ >> std::ws).peek() == std::char_traits<char>::eof();
}

void
CheckedReader::fail(const std::string &message) const
{
    std::fprintf(stderr, "error: %s: %s\n", source_.c_str(),
                 message.c_str());
    std::exit(2);
}

} // namespace cottage
