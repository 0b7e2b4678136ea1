// Tests for the env / rng / timing utility layer.
#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <set>

#include "mvcc/common/env.h"
#include "mvcc/common/rng.h"
#include "mvcc/common/timing.h"

namespace {

using namespace mvcc;

TEST(Env, LongDefaultsAndOverrides) {
  unsetenv("MVCC_TEST_LONG");
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  setenv("MVCC_TEST_LONG", "7", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 7);
  setenv("MVCC_TEST_LONG", "-3", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), -3);
  setenv("MVCC_TEST_LONG", "junk", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  setenv("MVCC_TEST_LONG", "", 1);
  EXPECT_EQ(env_long("MVCC_TEST_LONG", 42), 42);
  unsetenv("MVCC_TEST_LONG");
}

TEST(Env, DoubleDefaultsAndOverrides) {
  unsetenv("MVCC_TEST_DOUBLE");
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 0.4);
  setenv("MVCC_TEST_DOUBLE", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 2.5);
  for (const char* v : {"nope", "nan", "inf", "-inf", "1e999"}) {
    setenv("MVCC_TEST_DOUBLE", v, 1);
    EXPECT_DOUBLE_EQ(env_double("MVCC_TEST_DOUBLE", 0.4), 0.4) << v;
  }
  unsetenv("MVCC_TEST_DOUBLE");
}

// Sets (or, with nullptr, unsets) one knob and re-seeds config() from the
// environment, the path every knob reader goes through.
const Config& config_with(const char* name, const char* value) {
  (void)(value != nullptr ? setenv(name, value, 1) : unsetenv(name));
  reload_config();
  return config();
}

TEST(Env, ScaleMultipliesAndClampsToOne) {
  EXPECT_EQ(config_with("MVCC_SCALE", nullptr).scaled(1000), 1000);
  EXPECT_EQ(config_with("MVCC_SCALE", "2.5").scaled(1000), 2500);
  // A positive base never scales to zero.
  EXPECT_EQ(config_with("MVCC_SCALE", "0.0001").scaled(1000), 1);
  config_with("MVCC_SCALE", nullptr);
}

TEST(Env, ScaleNoArgReturnsRawMultiplier) {
  EXPECT_DOUBLE_EQ(config_with("MVCC_SCALE", nullptr).scale, 1.0);
  EXPECT_DOUBLE_EQ(config_with("MVCC_SCALE", "2.5").scale, 2.5);
  // Fractional scales pass through.
  EXPECT_DOUBLE_EQ(config_with("MVCC_SCALE", "0.01").scale, 0.01);
  // Malformed, non-positive and non-finite scales mean the default.
  for (const char* v : {"junk", "0", "-2", "nan", "inf"}) {
    EXPECT_DOUBLE_EQ(config_with("MVCC_SCALE", v).scale, 1.0) << v;
  }
  config_with("MVCC_SCALE", nullptr);
}

TEST(Env, ScaledSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(config_with("MVCC_SCALE", "1e300").scaled(1000), LONG_MAX);
  // 2^62 converts exactly; 2^63 is the first value out of range.
  Config c;
  c.scale = 0x1p62;
  EXPECT_EQ(c.scaled(1), 1L << 62);
  EXPECT_EQ(c.scaled(2), LONG_MAX);
  config_with("MVCC_SCALE", nullptr);
}

TEST(Env, ThreadsIsPositive) {
  EXPECT_GE(config_with("MVCC_THREADS", nullptr).threads, 1);
  EXPECT_EQ(config_with("MVCC_THREADS", "5").threads, 5);
  EXPECT_GE(config_with("MVCC_THREADS", "-2").threads, 1);
  config_with("MVCC_THREADS", nullptr);
  // Out of int range: parsed only, never handed to a pool or a map.
  setenv("MVCC_THREADS", "5000000000", 1);
  EXPECT_EQ(Config::from_env().threads, kMaxThreadKnob);
  unsetenv("MVCC_THREADS");
}

TEST(Env, ConfigFromEnvSeedsEveryKnob) {
  setenv("MVCC_SCALE", "2.0", 1);
  setenv("MVCC_THREADS", "3", 1);
  Config c = Config::from_env();
  EXPECT_DOUBLE_EQ(c.scale, 2.0);
  EXPECT_EQ(c.threads, 3);
  EXPECT_EQ(c.scaled(1000), 2000);
  EXPECT_EQ(c.scaled(0), 0);  // zero base is exempt from the >=1 clamp
  unsetenv("MVCC_SCALE");
  unsetenv("MVCC_THREADS");
}

TEST(Env, ReloadConfigReseedsTheProcessSingleton) {
  const Config saved = config();
  setenv("MVCC_THREADS", "7", 1);
  reload_config();
  EXPECT_EQ(config().threads, 7);
  unsetenv("MVCC_THREADS");
  reload_config();
  EXPECT_EQ(config().threads, saved.threads);
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, ZeroSeedIsUsable) {
  Xoshiro256 rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 60u);  // not stuck in a degenerate cycle
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Timing, TimerAdvancesAndResets) {
  Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.seconds(), b);
}

}  // namespace
