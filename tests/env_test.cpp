// Tests for core::env — the single environment-variable resolution point.
// Covers every parse path of every accessor (the README env-var table),
// plus the warn-once diagnostics for malformed values.
#include "core/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

using namespace spiv::core;

// Sets (or unsets, when value is nullptr) an environment variable for the
// lifetime of the object, restoring the previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) {
      saved_ = old;
      had_ = true;
    }
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ParsePositive, AcceptsPositiveIntegers) {
  EXPECT_EQ(env::parse_positive("1"), 1u);
  EXPECT_EQ(env::parse_positive("8"), 8u);
  EXPECT_EQ(env::parse_positive("128"), 128u);
}

TEST(ParsePositive, RejectsEverythingElse) {
  EXPECT_FALSE(env::parse_positive("").has_value());
  EXPECT_FALSE(env::parse_positive("0").has_value());
  EXPECT_FALSE(env::parse_positive("-1").has_value());
  EXPECT_FALSE(env::parse_positive("4abc").has_value());
  EXPECT_FALSE(env::parse_positive("abc").has_value());
  EXPECT_FALSE(env::parse_positive(" 4").has_value());
  EXPECT_FALSE(env::parse_positive("4 ").has_value());
  EXPECT_FALSE(env::parse_positive("2.5").has_value());
  // Larger than any plausible core count and than LONG_MAX: overflow path.
  EXPECT_FALSE(env::parse_positive("99999999999999999999999").has_value());
}

TEST(Raw, ReflectsEnvironment) {
  {
    ScopedEnv env{"SPIV_ENV_TEST_RAW", "hello"};
    ASSERT_NE(env::raw("SPIV_ENV_TEST_RAW"), nullptr);
    EXPECT_STREQ(env::raw("SPIV_ENV_TEST_RAW"), "hello");
  }
  {
    ScopedEnv env{"SPIV_ENV_TEST_RAW", nullptr};
    EXPECT_EQ(env::raw("SPIV_ENV_TEST_RAW"), nullptr);
  }
}

TEST(Jobs, ValidValue) {
  ScopedEnv env{"SPIV_JOBS", "4"};
  ASSERT_TRUE(env::jobs().has_value());
  EXPECT_EQ(*env::jobs(), 4u);
}

TEST(Jobs, UnsetReturnsNullopt) {
  ScopedEnv env{"SPIV_JOBS", nullptr};
  EXPECT_FALSE(env::jobs().has_value());
}

TEST(Jobs, MalformedReturnsNulloptAndWarnsOnce) {
  ScopedEnv env{"SPIV_JOBS", "4abc"};
  env::rearm_warnings_for_testing();
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::jobs().has_value());
  EXPECT_FALSE(env::jobs().has_value());  // second read: no second warning
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPIV_JOBS"), std::string::npos);
  EXPECT_NE(err.find("4abc"), std::string::npos);
  // Warn-once: the variable name appears exactly one time.
  EXPECT_EQ(err.find("SPIV_JOBS"), err.rfind("SPIV_JOBS"));
}

TEST(Jobs, NegativeAndZeroAreMalformed) {
  env::rearm_warnings_for_testing();
  testing::internal::CaptureStderr();
  {
    ScopedEnv env{"SPIV_JOBS", "-1"};
    EXPECT_FALSE(env::jobs().has_value());
  }
  {
    ScopedEnv env{"SPIV_JOBS", "0"};
    EXPECT_FALSE(env::jobs().has_value());
  }
  testing::internal::GetCapturedStderr();
}

TEST(NegativeTtl, ValidValuesIncludingZero) {
  {
    ScopedEnv env{"SPIV_NEG_TTL", "30"};
    ASSERT_TRUE(env::negative_ttl().has_value());
    EXPECT_EQ(*env::negative_ttl(), 30.0);
  }
  {
    ScopedEnv env{"SPIV_NEG_TTL", "0.5"};
    ASSERT_TRUE(env::negative_ttl().has_value());
    EXPECT_EQ(*env::negative_ttl(), 0.5);
  }
  {
    // 0 is a VALID value (explicitly disables negative caching) as opposed
    // to unset (caller picks its default).
    ScopedEnv env{"SPIV_NEG_TTL", "0"};
    ASSERT_TRUE(env::negative_ttl().has_value());
    EXPECT_EQ(*env::negative_ttl(), 0.0);
  }
}

TEST(NegativeTtl, UnsetReturnsNullopt) {
  ScopedEnv env{"SPIV_NEG_TTL", nullptr};
  EXPECT_FALSE(env::negative_ttl().has_value());
}

TEST(NegativeTtl, MalformedReturnsNulloptAndWarnsOnce) {
  ScopedEnv env{"SPIV_NEG_TTL", "soon"};
  env::rearm_warnings_for_testing();
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::negative_ttl().has_value());
  EXPECT_FALSE(env::negative_ttl().has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SPIV_NEG_TTL"), std::string::npos);
  EXPECT_EQ(err.find("SPIV_NEG_TTL"), err.rfind("SPIV_NEG_TTL"));
}

TEST(NegativeTtl, RejectsNegativeTrailingJunkAndInf) {
  env::rearm_warnings_for_testing();
  testing::internal::CaptureStderr();
  for (const char* bad : {"-1", "1.5s", " 2", "inf", "nan", "1e19"}) {
    ScopedEnv env{"SPIV_NEG_TTL", bad};
    EXPECT_FALSE(env::negative_ttl().has_value()) << bad;
  }
  testing::internal::GetCapturedStderr();
}

TEST(CacheDir, SetAndUnset) {
  {
    ScopedEnv env{"SPIV_CACHE_DIR", "/tmp/spiv-cache"};
    EXPECT_EQ(env::cache_dir(), "/tmp/spiv-cache");
  }
  {
    ScopedEnv env{"SPIV_CACHE_DIR", nullptr};
    EXPECT_TRUE(env::cache_dir().empty());  // empty = caching off
  }
}

TEST(CacheDir, EmptyMeansDisabled) {
  ScopedEnv env{"SPIV_CACHE_DIR", ""};
  EXPECT_TRUE(env::cache_dir().empty());
}

TEST(TracePath, SetAndUnset) {
  {
    ScopedEnv env{"SPIV_TRACE", "/tmp/trace.jsonl"};
    EXPECT_EQ(env::trace_path(), "/tmp/trace.jsonl");
  }
  {
    ScopedEnv env{"SPIV_TRACE", nullptr};
    EXPECT_TRUE(env::trace_path().empty());  // empty = tracing off
  }
}

// Accessors must re-read the environment on every call (tests and
// long-running services flip variables at runtime).
TEST(Env, AccessorsReReadPerCall) {
  ScopedEnv guard{"SPIV_JOBS", "2"};
  EXPECT_EQ(env::jobs().value_or(0), 2u);
  ::setenv("SPIV_JOBS", "7", 1);
  EXPECT_EQ(env::jobs().value_or(0), 7u);
}

}  // namespace
