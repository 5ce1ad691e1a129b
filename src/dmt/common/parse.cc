#include "dmt/common/parse.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace dmt {

std::optional<std::uint64_t> ParseU64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // strtoull accepts leading whitespace and a sign (including '-', which it
  // silently negates modulo 2^64); both are garbage for a flag value.
  const char first = text.front();
  if (first < '0' || first > '9') return std::nullopt;
  const std::string buffer(text);  // NUL-terminate for strtoull
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buffer.c_str(), &end, 10);
  if (errno == ERANGE) return std::nullopt;
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

namespace {

// The reference syntax: strtod over a NUL-terminated copy of `text` (on the
// stack unless the token is unusually long). Accepts whatever strtod
// accepts as a whole token, including a leading '+', hex floats and
// out-of-range values (rounded to +/-HUGE_VAL or to zero).
std::optional<double> StrtodWhole(std::string_view text) {
  char stack[128];
  std::string heap;
  const char* begin = stack;
  if (text.size() < sizeof(stack)) {
    std::memcpy(stack, text.data(), text.size());
    stack[text.size()] = '\0';
  } else {
    heap.assign(text);
    begin = heap.c_str();
  }
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end != begin + text.size() || end == begin) return std::nullopt;
  return value;
}

}  // namespace

std::optional<double> ParseDouble(std::string_view text, bool require_finite) {
  if (text.empty()) return std::nullopt;
  // Leading whitespace is strtod-legal but flag/protocol garbage.
  const char first = text.front();
  if (first == ' ' || first == '\t') return std::nullopt;
  // Fast path: from_chars is correctly rounded like glibc's strtod, so a
  // token it consumes whole parses to the same bits. Everything else goes
  // to strtod, which decides acceptance: a leading '+', hex floats, values
  // out of range, and NaN (strtod keeps an n-char-sequence payload).
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  std::optional<double> parsed;
  if (ec == std::errc() && ptr == end && !std::isnan(value)) {
    parsed = value;
  } else {
    parsed = StrtodWhole(text);
  }
  if (parsed && require_finite && !std::isfinite(*parsed)) return std::nullopt;
  return parsed;
}

}  // namespace dmt
