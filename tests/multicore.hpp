// Guard for host-thread differential tests: on a single-core host, running
// N host threads exercises no real concurrency, so a pass proves nothing.
#pragma once

#include <gtest/gtest.h>

#include <thread>

#define ST_SKIP_WITHOUT_MULTICORE()                                      \
  if (std::thread::hardware_concurrency() < 2)                           \
  GTEST_SKIP() << "host-thread differential needs at least 2 hardware " \
                  "threads; on one core it would pass vacuously"
