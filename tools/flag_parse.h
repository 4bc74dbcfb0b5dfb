// Strict numeric flag parsing shared by the command-line tools. Each
// parser accepts the whole argument or nothing, so "abc", "5x" or "-1"
// are usage errors instead of silently becoming 0 (or wrapping).

#ifndef LEARNEDSQLGEN_TOOLS_FLAG_PARSE_H_
#define LEARNEDSQLGEN_TOOLS_FLAG_PARSE_H_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace lsg {
namespace tools {

/// Parses a positive decimal int; "abc", "0", "-3" and "5x" all fail
/// rather than silently running zero episodes.
inline bool ParsePositive(const char* text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v <= 0 || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// Parses a positive finite decimal number ("0", "-1", "nan", "2x" fail).
inline bool ParsePositiveReal(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v) ||
      v <= 0.0) {
    return false;
  }
  *out = v;
  return true;
}

/// Parses an unsigned 64-bit decimal; strtoull alone would accept "-1"
/// (wrapping it) and turn "abc" into 0.
inline bool ParseSeed(const char* text, uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

/// Ends the program with usage status 2 unless `parsed`: the value of
/// flag argv[i] (at argv[i + 1]) did not parse as `what`.
inline void RequireParsed(char** argv, int i, bool parsed, const char* what) {
  if (parsed) return;
  std::fprintf(stderr, "%s needs %s, got \"%s\" (try --help)\n", argv[i],
               what, argv[i + 1]);
  std::exit(2);
}

}  // namespace tools
}  // namespace lsg

#endif  // LEARNEDSQLGEN_TOOLS_FLAG_PARSE_H_
