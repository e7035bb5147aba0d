#include "util/error.hpp"

#include <new>
#include <string_view>

namespace nshot {

namespace {

constexpr const char* kCodeNames[static_cast<int>(ErrorCode::kCount)] = {
    "input_invalid", "unimplementable", "resource_exhausted", "deadline_exceeded", "internal",
};

}  // namespace

const char* error_code_name(ErrorCode code) {
  const int i = static_cast<int>(code);
  if (i < 0 || i >= static_cast<int>(ErrorCode::kCount)) return "internal";
  return kCodeNames[i];
}

ErrorCode error_code_from_name(const std::string& name) {
  for (int i = 0; i < static_cast<int>(ErrorCode::kCount); ++i)
    if (name == kCodeNames[i]) return static_cast<ErrorCode>(i);
  return ErrorCode::kInternal;
}

const char* Error::what() const noexcept {
  if (context_.empty()) return message_.c_str();
  if (rendered_.empty()) {
    try {
      // Outermost frame first: "batch run #3: synthesize soak-3: <message>".
      for (auto it = context_.rbegin(); it != context_.rend(); ++it)
        rendered_ += *it + ": ";
      rendered_ += message_;
    } catch (...) {
      return message_.c_str();  // allocation failure: degrade, never throw
    }
  }
  return rendered_.c_str();
}

void raise_error(const char* file, int line, const std::string& message) {
  raise_error(file, line, ErrorCode::kInputInvalid, message);
}

void raise_error(const char* file, int line, ErrorCode code, const std::string& message) {
  // Only the base name: __FILE__ is the build's source path, which wire
  // clients and journals have no business seeing.
  const std::string_view path(file);
  const std::string_view base = path.substr(path.find_last_of("/\\") + 1);
  throw Error(code, std::string(base) + ":" + std::to_string(line) + ": " + message);
}

ErrorCode classify_exception(const std::exception& e) {
  if (const auto* err = dynamic_cast<const Error*>(&e)) return err->code();
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) return ErrorCode::kResourceExhausted;
  return ErrorCode::kInternal;
}

}  // namespace nshot
