// Independent correctness oracle for covers produced by the minimizers.
#pragma once

#include <string>

#include "logic/cover.hpp"
#include "logic/spec.hpp"

namespace nshot::logic {

/// Outcome of checking a cover against its specification.
struct VerifyResult {
  bool ok = true;
  std::string message;  // first violation found, empty when ok

  explicit operator bool() const { return ok; }
};

/// Check that every on-minterm of every output is covered and that no cube
/// of the cover intersects the off-set of an output it feeds.  Evaluated
/// bit-sliced (logic/bitslice.hpp): per-cube literal masks word-parallel
/// against the packed minterm codes.  The minterm-at-a-time original is
/// the test-only oracle logic::reference::verify_cover
/// (tests/oracles/espresso_reference.hpp); both return the same result.
/// Outputs are checked in order and the first failure is returned.
VerifyResult verify_cover(const TwoLevelSpec& spec, const Cover& cover);

/// Check that no cube can be removed without losing an on-minterm.
VerifyResult verify_irredundant(const TwoLevelSpec& spec, const Cover& cover);

}  // namespace nshot::logic
