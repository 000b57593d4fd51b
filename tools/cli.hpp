// Pieces shared by the subcommands of the stagtm CLI (tools/stagtm.cpp):
// the flag parser, the flags that set RunOptions, the --top bound, the
// .trace/.prf loader and the allocation-site formatter.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "obs/prov.hpp"
#include "obs/trace_export.hpp"
#include "workloads/harness.hpp"

namespace st::cli {

/// Prints the usage of every subcommand to stderr and exits 2.
[[noreturn]] void usage();

/// The one flag parser of the CLI. A subcommand declares its flags, then
/// parse() walks its arguments: an argument starting with '-' must name a
/// declared flag (in any order), anything else is a positional. Numeric
/// values follow the STAGTM_* knob contract (common/env.hpp): junk, a sign
/// or an out-of-range value exits 2 with a message naming the flag. An
/// unknown flag or a missing value prints the usage and exits 2.
class Flags {
 public:
  using Setter = std::function<void(const char* value)>;

  /// A flag without a value; sets *out.
  void toggle(const char* name, bool* out);
  /// A flag whose value `set` applies (exiting 2 on a bad one).
  void value(const char* name, Setter set);
  void text(const char* name, std::string* out);
  /// An integer in [lo, hi].
  template <class T>
  void integer(const char* name, T* out, std::uint64_t lo, std::uint64_t hi) {
    const std::string expected =
        hi == ~std::uint64_t{0}
            ? "an integer >= " + std::to_string(lo)
            : "an integer in [" + std::to_string(lo) + "," +
                  std::to_string(hi) + "]";
    value(name, [=](const char* v) {
      *out = static_cast<T>(parse_u64(name, v, lo, hi, expected.c_str()));
    });
  }

  /// Parses argv[0, argc); returns the positionals in order.
  std::vector<const char*> parse(int argc, char** argv) const;

 private:
  struct Flag {
    const char* name;
    bool takes_value;
    Setter set;
  };
  std::vector<Flag> flags_;
};

/// The flags of `run` and `check` that set RunOptions; also sets the CLI's
/// default scale (0.25).
void run_flags(Flags& f, workloads::RunOptions* o);

/// --top N: rows per report table.
void top_flag(Flags& f, unsigned* top);

/// Exits 2 naming `name` unless it is a registered workload.
void require_workload(const std::string& name);

/// Reads a binary trace (STAGTM_TRACE) or provenance file (STAGTM_PROF);
/// on failure prints "stagtm: <path>: <why>" and returns false.
bool load(const char* path, obs::TraceData* out);
bool load(const char* path, obs::ProvData* out);

/// An allocation site as the reports print it: "(static)" or "0x…".
std::string site_name(std::uint32_t alloc_site);

int check_main(int argc, char** argv);
int trace_main(int argc, char** argv);
int prof_main(int argc, char** argv);

}  // namespace st::cli
