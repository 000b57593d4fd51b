// Guard for tests that run host threads concurrently: on a single-core
// host, N host threads exercise no real concurrency, so a pass proves
// nothing.
#pragma once

#include <gtest/gtest.h>

#include <thread>

#define ST_SKIP_WITHOUT_MULTICORE()                                      \
  if (std::thread::hardware_concurrency() < 2)                           \
  GTEST_SKIP() << "concurrent host-thread test needs at least 2 hardware " \
                  "threads; on one core it would pass vacuously"
