#include "common/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace st {

void env_fail(const char* name, const char* value, const char* expected) {
  std::fprintf(stderr, "%s must be %s, got \"%s\"\n", name, expected, value);
  std::exit(2);
}

std::uint64_t parse_u64(const char* name, const char* value, std::uint64_t lo,
                        std::uint64_t hi, const char* expected) {
  // strtoull skips blanks and accepts a sign, so require a leading digit.
  if (*value < '0' || *value > '9') env_fail(name, value, expected);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
    env_fail(name, value, expected);
  return v;
}

double parse_positive_double(const char* name, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(v > 0) || !std::isfinite(v))
    env_fail(name, value, "a positive number");
  return v;
}

std::uint64_t env_u64(const char* name, std::uint64_t dflt, std::uint64_t lo,
                      std::uint64_t hi, const char* expected) {
  const char* s = std::getenv(name);
  return s == nullptr ? dflt : parse_u64(name, s, lo, hi, expected);
}

double env_positive_double(const char* name, double dflt) {
  const char* s = std::getenv(name);
  return s == nullptr ? dflt : parse_positive_double(name, s);
}

bool env_onoff(const char* name, bool dflt) {
  const char* s = std::getenv(name);
  if (s == nullptr) return dflt;
  const std::string_view v(s);
  if (v == "on" || v == "1") return true;
  if (v == "off" || v == "0") return false;
  env_fail(name, s, "off or on");
}

std::string env_str(const char* name) {
  const char* s = std::getenv(name);
  return s == nullptr ? std::string() : std::string(s);
}

}  // namespace st
