#include "logic/spec.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace nshot::logic {

TwoLevelSpec::TwoLevelSpec(int num_inputs, int num_outputs)
    : num_inputs_(num_inputs), num_outputs_(num_outputs) {
  NSHOT_REQUIRE(num_inputs >= 0 && num_inputs <= 64, "spec supports at most 64 inputs");
  NSHOT_REQUIRE(num_outputs >= 1 && num_outputs <= 64, "spec supports 1..64 outputs");
  on_.resize(static_cast<std::size_t>(num_outputs));
  off_.resize(static_cast<std::size_t>(num_outputs));
}

void TwoLevelSpec::add_on(int o, std::uint64_t code) {
  NSHOT_REQUIRE(o >= 0 && o < num_outputs_, "output index out of range");
  on_[o].push_back(code);
  normalized_ = false;
}

void TwoLevelSpec::add_off(int o, std::uint64_t code) {
  NSHOT_REQUIRE(o >= 0 && o < num_outputs_, "output index out of range");
  off_[o].push_back(code);
  normalized_ = false;
}

std::size_t TwoLevelSpec::on_pair_count() const {
  std::size_t count = 0;
  for (const auto& list : on_) count += list.size();
  return count;
}

void TwoLevelSpec::normalize() {
  for (auto* lists : {&on_, &off_}) {
    for (auto& list : *lists) {
      if (!std::is_sorted(list.begin(), list.end())) std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }
  // F ∩ R per output by one merge of the sorted lists: the first shared
  // code found is the smallest, as an ascending scan of F would report.
  for (int o = 0; o < num_outputs_; ++o) {
    auto on = on_[o].begin();
    auto off = off_[o].begin();
    while (on != on_[o].end() && off != off_[o].end()) {
      if (*on < *off) {
        ++on;
      } else if (*off < *on) {
        ++off;
      } else {
        NSHOT_REQUIRE(false, "minterm " + std::to_string(*on) + " is in both F and R of output " +
                                 std::to_string(o));
      }
    }
  }
  normalized_ = true;
}

const TwoLevelSpec& normalized_view(const TwoLevelSpec& spec,
                                    std::optional<TwoLevelSpec>& storage) {
  if (spec.normalized()) return spec;
  storage.emplace(spec);
  storage->normalize();
  return *storage;
}

bool TwoLevelSpec::cube_valid_for_output(const Cube& cube, int o) const {
  for (const std::uint64_t code : off_[o])
    if (cube.covers_minterm(code)) return false;
  return true;
}

}  // namespace nshot::logic
