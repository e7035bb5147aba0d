// Error-taxonomy tests: code/name round-trips, context-chain rendering,
// exception classification, Result<T> propagation and the REQUIRE/ASSERT
// macro contracts that the batch and pipeline robustness layers build on.
#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace nshot {
namespace {

// ---------------------------------------------------------------------------
// Taxonomy names
// ---------------------------------------------------------------------------

TEST(ErrorCodeTest, NameRoundTripsForEveryCode) {
  for (int c = 0; c < static_cast<int>(ErrorCode::kCount); ++c) {
    const ErrorCode code = static_cast<ErrorCode>(c);
    const std::string name = error_code_name(code);
    ASSERT_FALSE(name.empty());
    EXPECT_EQ(error_code_from_name(name), code) << name;
  }
}

TEST(ErrorCodeTest, NamesAreStableSnakeCase) {
  EXPECT_STREQ(error_code_name(ErrorCode::kInputInvalid), "input_invalid");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnimplementable), "unimplementable");
  EXPECT_STREQ(error_code_name(ErrorCode::kResourceExhausted), "resource_exhausted");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST(ErrorCodeTest, UnknownNameClassifiesAsInternal) {
  EXPECT_EQ(error_code_from_name("no_such_code"), ErrorCode::kInternal);
  EXPECT_EQ(error_code_from_name(""), ErrorCode::kInternal);
  // A retired code (verify_kernels divergences are no longer errors).
  EXPECT_EQ(error_code_from_name("kernel_mismatch"), ErrorCode::kInternal);
}

// ---------------------------------------------------------------------------
// Error: codes, messages, context chains
// ---------------------------------------------------------------------------

TEST(ErrorTest, DefaultConstructorIsInputInvalid) {
  const Error e("bad token");
  EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
  EXPECT_EQ(e.message(), "bad token");
  EXPECT_STREQ(e.what(), "bad token");
}

TEST(ErrorTest, ContextChainRendersOutermostFirst) {
  Error e(ErrorCode::kUnimplementable, "signal x lacks a trigger");
  e.add_context("synthesize converta");
  e.add_context("batch run #12");
  EXPECT_EQ(e.message(), "signal x lacks a trigger");  // original survives
  EXPECT_STREQ(e.what(), "batch run #12: synthesize converta: signal x lacks a trigger");
  ASSERT_EQ(e.context().size(), 2u);
}

TEST(ErrorTest, WithErrorContextStampsEscapingErrors) {
  try {
    with_error_context("stage parse", [] {
      with_error_context("line 3", [] { throw Error(ErrorCode::kInputInvalid, "bad arc"); });
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    EXPECT_STREQ(e.what(), "stage parse: line 3: bad arc");
  }
}

TEST(ErrorTest, WithErrorContextPassesValuesAndForeignExceptions) {
  EXPECT_EQ(with_error_context("ctx", [] { return 42; }), 42);
  // Non-nshot exceptions pass through untouched.
  EXPECT_THROW(with_error_context("ctx", [] { throw std::logic_error("foreign"); }),
               std::logic_error);
}

TEST(ErrorTest, ClassifyException) {
  const Error deadline(ErrorCode::kDeadlineExceeded, "late");
  EXPECT_EQ(classify_exception(deadline), ErrorCode::kDeadlineExceeded);
  const std::bad_alloc oom;
  EXPECT_EQ(classify_exception(oom), ErrorCode::kResourceExhausted);
  const std::runtime_error other("boom");
  EXPECT_EQ(classify_exception(other), ErrorCode::kInternal);
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

TEST(ErrorMacroTest, RequireThrowsInputInvalid) {
  try {
    NSHOT_REQUIRE(1 == 2, "math is broken");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    // raise_error prefixes the throwing file:line for diagnostics.
    EXPECT_NE(e.message().find("math is broken"), std::string::npos) << e.message();
  }
}

TEST(ErrorMacroTest, RequireCodeCarriesTheExplicitCode) {
  try {
    NSHOT_REQUIRE_CODE(false, ErrorCode::kResourceExhausted, "cap hit");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
}

TEST(ErrorMacroTest, AssertThrowsInternalWithPrefix) {
  try {
    NSHOT_ASSERT(false, "invariant broken");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_NE(e.message().find("internal: invariant broken"), std::string::npos) << e.message();
  }
}

// ---------------------------------------------------------------------------
// Result<T>
// ---------------------------------------------------------------------------

TEST(ResultTest, HoldsAValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.take_value(), 7);
}

TEST(ResultTest, HoldsAnErrorAndGuardsValue) {
  Result<int> r(Error(ErrorCode::kDeadlineExceeded, "late"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDeadlineExceeded);
  try {
    (void)r.value();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

TEST(ResultTest, ErrorAccessorOnOkResultThrows) {
  Result<int> r(1);
  EXPECT_THROW((void)r.error(), Error);
}

TEST(ResultTest, MapTransformsOkAndPropagatesError) {
  Result<std::string> mapped = Result<int>(21).map([](int v) { return std::to_string(v * 2); });
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value(), "42");

  Result<std::string> still_error =
      Result<int>(Error(ErrorCode::kUnimplementable, "no dice")).map([](int v) {
        return std::to_string(v);
      });
  ASSERT_FALSE(still_error.ok());
  EXPECT_EQ(still_error.error().code(), ErrorCode::kUnimplementable);
  EXPECT_EQ(still_error.error().message(), "no dice");
}

TEST(ResultTest, FromCapturesThrownErrorsWithTheirCode) {
  const Result<int> ok = Result<int>::from([] { return 5; });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  const Result<int> err = Result<int>::from(
      []() -> int { throw Error(ErrorCode::kDeadlineExceeded, "too slow"); });
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code(), ErrorCode::kDeadlineExceeded);

  // Foreign exceptions are classified, not lost.
  const Result<int> foreign =
      Result<int>::from([]() -> int { throw std::runtime_error("boom"); });
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.error().code(), ErrorCode::kInternal);
}

TEST(ResultTest, WorksWithNonDefaultConstructibleTypes) {
  struct NoDefault {
    explicit NoDefault(int v) : value(v) {}
    int value;
  };
  Result<NoDefault> r(NoDefault(9));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, 9);
}

}  // namespace
}  // namespace nshot
