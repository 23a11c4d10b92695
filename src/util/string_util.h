/**
 * @file
 * Small string helpers shared by trace parsing, CLI handling and the
 * table printers. Nothing here is clever; it exists so the rest of the
 * code never hand-rolls tokenization.
 */

#ifndef COTTAGE_UTIL_STRING_UTIL_H
#define COTTAGE_UTIL_STRING_UTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cottage {

/** Split on a single character; empty fields are kept. */
std::vector<std::string> split(std::string_view text, char delimiter);

/**
 * Split on runs of whitespace; empty fields are dropped. This is the
 * query tokenizer's backbone.
 */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Join parts with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view separator);

/** Strip leading/trailing whitespace. */
std::string trim(std::string_view text);

/** ASCII lowercase copy. */
std::string toLower(std::string_view text);

/** True if text begins with prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Escape a string for inclusion inside a JSON string literal (RFC 8259):
 * backslash, double quote and control characters below 0x20 are escaped;
 * everything else passes through byte-for-byte. Shared by the run-summary
 * JSON emitter and the JSONL trace writer so hostile policy/trace names
 * can never produce invalid JSON.
 */
std::string jsonEscape(std::string_view text);

/** jsonEscape wrapped in double quotes: a complete JSON string token. */
std::string jsonQuote(std::string_view text);

/** A double as "%.9g": the number format every JSON export shares. */
std::string jsonNumber(double value);

/** A single-line JSON object, built field by field in call order. */
class JsonObject
{
  public:
    /** A string field, quoted and escaped. */
    JsonObject &text(const char *key, std::string_view value);

    /** A numeric field (jsonNumber). */
    JsonObject &number(const char *key, double value);
    JsonObject &number(const char *key, uint64_t value);

    /** A field whose value is already JSON: null, true, an array. */
    JsonObject &raw(const char *key, std::string_view json);

    /** The closed object. */
    std::string str() const { return out_ + "}"; }

  private:
    std::string out_ = "{";
};

} // namespace cottage

#endif // COTTAGE_UTIL_STRING_UTIL_H
