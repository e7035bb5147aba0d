// Incompletely-specified multi-output logic specification (F, D, R).
//
// Following the paper's synthesis procedure (Section IV-A), the on-set F and
// off-set R are given explicitly as minterm lists (these are the reachable
// states of the state graph classified per Table 1); every minterm not
// listed in either set is a don't care (the union of the quiescent regions
// and all unreachable states).  Because the minterm space can be 2^n for
// n up to 64, the don't-care set is always implicit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "logic/cube.hpp"

namespace nshot::logic {

/// Multi-output (F, D, R) specification with explicit on/off minterm lists.
class TwoLevelSpec {
 public:
  TwoLevelSpec(int num_inputs, int num_outputs);

  int num_inputs() const { return num_inputs_; }
  int num_outputs() const { return num_outputs_; }

  /// Add `code` to the on-set of output `o`.  A minterm must not be in both
  /// the on-set and the off-set of the same output (checked by
  /// normalize()).  Either call clears the normalized flag.
  void add_on(int o, std::uint64_t code);
  void add_off(int o, std::uint64_t code);

  const std::vector<std::uint64_t>& on(int o) const { return on_[o]; }
  const std::vector<std::uint64_t>& off(int o) const { return off_[o]; }

  /// Total number of (minterm, output) on-pairs.
  std::size_t on_pair_count() const;

  /// Sorts and deduplicates the minterm lists, then throws nshot::Error if
  /// some output has a minterm in both F and R (call once after filling).
  /// On success the spec is normalized until the next add_on/add_off.
  void normalize();

  /// True when every list is sorted and duplicate-free and F ∩ R = ∅ for
  /// every output.  The minimizers read a normalized spec in place.
  bool normalized() const { return normalized_; }

  /// True if raising `cube` to feed output `o` would keep it valid.
  bool cube_valid_for_output(const Cube& cube, int o) const;

 private:
  int num_inputs_;
  int num_outputs_;
  std::vector<std::vector<std::uint64_t>> on_;
  std::vector<std::vector<std::uint64_t>> off_;
  bool normalized_ = false;
};

/// `spec` itself when it is normalized, else a normalized copy held in
/// `storage` — so callers that need the invariant copy only unnormalized
/// arguments.
const TwoLevelSpec& normalized_view(const TwoLevelSpec& spec,
                                    std::optional<TwoLevelSpec>& storage);

}  // namespace nshot::logic
