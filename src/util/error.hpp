// Error handling shared by all nshot libraries: a structured taxonomy
// (ErrorCode), context chains, and a lightweight Result<T> for callers
// that prefer values over exceptions.
//
// All precondition violations and invalid-input conditions are reported by
// throwing nshot::Error (a std::runtime_error).  The NSHOT_REQUIRE macro is
// used at public API boundaries; internal invariants use NSHOT_ASSERT which
// also throws (never aborts) so that library users can recover.  Every
// Error carries an ErrorCode so batch drivers can classify failures
// (input-invalid vs deadline-exceeded vs internal) without string-matching,
// and a context chain (`add_context`) so a low-level diagnostic surfaces
// with the stage / benchmark / file that produced it.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nshot {

/// Failure taxonomy.  Stable snake-case names (error_code_name) appear in
/// batch journals, summaries and RunReports; parsing them back is
/// error_code_from_name.
enum class ErrorCode : int {
  kInputInvalid = 0,   // malformed text input, bad arguments, precondition
  kUnimplementable,    // SG outside the synthesizable class (Theorem 2)
  kResourceExhausted,  // state caps, minterm blowup, allocation failure
  kDeadlineExceeded,   // cooperative cancellation / deadline overrun
  kInternal,           // broken invariant — always a bug in this library
  kCount
};

const char* error_code_name(ErrorCode code);

/// Inverse of error_code_name; kInternal for unknown names.
ErrorCode error_code_from_name(const std::string& name);

/// Base exception type for all errors raised by the nshot libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : Error(ErrorCode::kInputInvalid, what) {}
  Error(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code), message_(what) {}

  ErrorCode code() const { return code_; }

  /// The original diagnostic, without the context chain.
  const std::string& message() const { return message_; }

  /// Outermost-first context frames added on the way up the stack.
  const std::vector<std::string>& context() const { return context_; }

  /// Prepend one context frame ("synthesize converta", "batch run #12").
  /// Frames render outermost-first in what():  "ctx2: ctx1: message".
  Error& add_context(std::string frame) {
    context_.push_back(std::move(frame));
    rendered_.clear();
    return *this;
  }

  /// message() prefixed by the context chain.
  const char* what() const noexcept override;

 private:
  ErrorCode code_ = ErrorCode::kInputInvalid;
  std::string message_;
  std::vector<std::string> context_;     // innermost-first storage
  mutable std::string rendered_;         // lazy what() cache
};

[[noreturn]] void raise_error(const char* file, int line, const std::string& message);
[[noreturn]] void raise_error(const char* file, int line, ErrorCode code,
                              const std::string& message);

/// Classify any in-flight exception: nshot::Error reports its own code,
/// std::bad_alloc maps to resource-exhausted, everything else is internal.
ErrorCode classify_exception(const std::exception& e);

/// Run `fn()`, stamping `frame` onto any nshot::Error that escapes (other
/// exception types pass through untouched).  This is how pipeline stages
/// attach "stage synthesize (converta)" to a deep diagnostic.
template <typename Fn>
auto with_error_context(const std::string& frame, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (Error& e) {
    e.add_context(frame);
    throw;
  }
}

/// Value-or-error return type for callers that must not unwind (batch
/// drivers, the soak harness).  Holds either a T or an Error; exactly one
/// is ever populated.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)), ok_(true) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : error_(std::move(error)), ok_(false) {}  // NOLINT

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  T& value() {
    require_ok();
    return *value_;
  }
  const T& value() const {
    require_ok();
    return *value_;
  }
  T take_value() {
    require_ok();
    return std::move(*value_);
  }

  const Error& error() const {
    if (ok_) throw Error(ErrorCode::kInternal, "Result::error() on an ok result");
    return *error_;
  }

  /// Map an ok value through `fn`, propagating an error unchanged.
  template <typename Fn>
  auto map(Fn&& fn) && -> Result<decltype(fn(std::declval<T>()))> {
    if (!ok_) return std::move(*error_);
    return fn(std::move(*value_));
  }

  /// Wrap `fn()` — which may throw — into a Result.
  template <typename Fn>
  static Result<T> from(Fn&& fn) {
    try {
      return Result<T>(fn());
    } catch (const Error& e) {
      return Result<T>(e);
    } catch (const std::exception& e) {
      return Result<T>(Error(classify_exception(e), e.what()));
    }
  }

 private:
  void require_ok() const {
    if (!ok_) throw Error(ErrorCode::kInternal, "Result::value() on an error result");
  }

  // Optionals so T need not be default-constructible (PipelineRun is not).
  std::optional<T> value_;
  std::optional<Error> error_;
  bool ok_ = false;
};

}  // namespace nshot

/// Check a caller-visible precondition; throws nshot::Error (input-invalid)
/// on failure.
#define NSHOT_REQUIRE(cond, msg)                                  \
  do {                                                            \
    if (!(cond)) ::nshot::raise_error(__FILE__, __LINE__, (msg)); \
  } while (false)

/// Check a precondition, throwing with an explicit taxonomy code.
#define NSHOT_REQUIRE_CODE(cond, code, msg)                               \
  do {                                                                    \
    if (!(cond)) ::nshot::raise_error(__FILE__, __LINE__, (code), (msg)); \
  } while (false)

/// Check an internal invariant; throws nshot::Error (internal) on failure.
#define NSHOT_ASSERT(cond, msg)                                                   \
  do {                                                                            \
    if (!(cond))                                                                  \
      ::nshot::raise_error(__FILE__, __LINE__, ::nshot::ErrorCode::kInternal,     \
                           std::string("internal: ") + (msg));                    \
  } while (false)
