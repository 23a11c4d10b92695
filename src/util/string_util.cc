#include "util/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace cottage {

std::vector<std::string>
split(std::string_view text, char delimiter)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delimiter, start);
        if (pos == std::string_view::npos) {
            parts.emplace_back(text.substr(start));
            return parts;
        }
        parts.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> parts;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        const std::size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            parts.emplace_back(text.substr(start, i - start));
    }
    return parts;
}

std::string
join(const std::vector<std::string> &parts, std::string_view separator)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += separator;
        out += parts[i];
    }
    return out;
}

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
strformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buffer;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

std::string
jsonQuote(std::string_view text)
{
    // Appended rather than concatenated: GCC 12's -Wrestrict misfires
    // on `"\"" + std::string + "\""` at -O2.
    std::string out(1, '"');
    out.append(jsonEscape(text));
    out.push_back('"');
    return out;
}

std::string
jsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return std::string(buffer);
}

JsonObject &
JsonObject::text(const char *key, std::string_view value)
{
    return raw(key, jsonQuote(value));
}

JsonObject &
JsonObject::number(const char *key, double value)
{
    return raw(key, jsonNumber(value));
}

JsonObject &
JsonObject::number(const char *key, uint64_t value)
{
    return number(key, static_cast<double>(value));
}

JsonObject &
JsonObject::raw(const char *key, std::string_view json)
{
    if (out_.size() > 1)
        out_ += ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += json;
    return *this;
}

} // namespace cottage
