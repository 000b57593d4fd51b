// Strict parsing of STAGTM_* environment knobs and stagtm CLI flags.
//
// All knobs follow the same contract (established in the PR that added the
// experiment runner): unset means "use the default", a well-formed value is
// applied, and anything else terminates the process with exit code 2 and a
// message naming the variable — a typo must never silently run the wrong
// experiment. The stagtm CLI parses its numeric flags with the same value
// parsers, so a bad flag fails the same way, naming the flag.
#pragma once

#include <cstdint>
#include <string>

namespace st {

/// Prints "<name> must be <expected>, got "<value>"" to stderr and exits 2.
/// `name` is a variable or a flag.
[[noreturn]] void env_fail(const char* name, const char* value,
                           const char* expected);

/// Unsigned decimal integer in [lo, hi]; a sign, junk or an out-of-range
/// value calls env_fail. `expected` names the range in the diagnostic
/// (e.g. "an integer in [1,256]").
std::uint64_t parse_u64(const char* name, const char* value, std::uint64_t lo,
                        std::uint64_t hi, const char* expected);

/// Finite, strictly positive number; anything else calls env_fail.
double parse_positive_double(const char* name, const char* value);

/// parse_u64 applied to variable `name`; unset -> dflt.
std::uint64_t env_u64(const char* name, std::uint64_t dflt, std::uint64_t lo,
                      std::uint64_t hi, const char* expected);

/// parse_positive_double applied to variable `name`; unset -> dflt.
double env_positive_double(const char* name, double dflt);

/// Boolean knob with word spellings: unset -> dflt, "on"/"1" -> true,
/// "off"/"0" -> false, else exit 2.
bool env_onoff(const char* name, bool dflt);

/// String knob: unset or empty -> "".
std::string env_str(const char* name);

}  // namespace st
