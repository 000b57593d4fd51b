// Interpreter execution-tier name, kept for one reader: perfbench records
// the tier of the build it times (perfbench/main.cpp). The interpreter has
// a single tier, the fused pre-decoded loop (interp/interp.hpp).
#pragma once

#include <cstdint>

namespace st::interp {

enum class JitTier : std::uint8_t { kOff };

constexpr const char* jit_tier_name(JitTier) { return "off"; }

struct JitConfig {
  JitTier tier = JitTier::kOff;
};

}  // namespace st::interp
