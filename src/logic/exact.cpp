#include "logic/exact.hpp"

#include <optional>
#include <set>

#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "logic/espresso.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace nshot::logic {
namespace {

struct CubeKey {
  std::uint64_t lo, hi;
  friend auto operator<=>(const CubeKey&, const CubeKey&) = default;
};

/// Recursively enumerate all maximal valid expansions of `cube`.
/// Returns false if the prime cap was exceeded.  One seed minterm can
/// visit a large share of the cube lattice, so the deadline is polled at
/// every visited node, not only between seeds.
bool expand_all(const Cube& cube, const TwoLevelSpec& spec, int o, std::set<CubeKey>& visited,
                std::set<CubeKey>& primes, std::size_t max_primes) {
  exec::checkpoint();
  const CubeKey key{cube.lo(), cube.hi()};
  if (!visited.insert(key).second) return true;
  bool maximal = true;
  for (int v = 0; v < spec.num_inputs(); ++v) {
    if (cube.var_is_free(v)) continue;
    Cube candidate = cube;
    candidate.raise_var(v);
    if (!spec.cube_valid_for_output(candidate, o)) continue;
    maximal = false;
    if (!expand_all(candidate, spec, o, visited, primes, max_primes)) return false;
  }
  if (maximal) {
    primes.insert(key);
    if (primes.size() > max_primes) return false;
  }
  return true;
}

/// Branch-and-bound minimum unate covering.
class CoveringSolver {
 public:
  CoveringSolver(std::size_t num_rows, std::vector<std::vector<int>> row_cols,
                 std::vector<std::vector<int>> col_rows, std::size_t max_nodes)
      : num_rows_(num_rows),
        row_cols_(std::move(row_cols)),
        col_rows_(std::move(col_rows)),
        max_nodes_(max_nodes) {}

  /// Returns selected column indices, or nullopt if the node cap was hit.
  std::optional<std::vector<int>> solve() {
    // Greedy solution provides the initial upper bound.
    best_ = greedy();
    std::vector<bool> row_covered(num_rows_, false);
    std::vector<int> chosen;
    aborted_ = false;
    branch(row_covered, chosen, 0);
    if (aborted_) return std::nullopt;
    return best_;
  }

 private:
  std::vector<int> greedy() const {
    std::vector<bool> covered(num_rows_, false);
    std::size_t remaining = num_rows_;
    std::vector<int> chosen;
    while (remaining > 0) {
      int best_col = -1;
      std::size_t best_gain = 0;
      for (std::size_t c = 0; c < col_rows_.size(); ++c) {
        std::size_t gain = 0;
        for (const int r : col_rows_[c])
          if (!covered[static_cast<std::size_t>(r)]) ++gain;
        if (gain > best_gain) {
          best_gain = gain;
          best_col = static_cast<int>(c);
        }
      }
      NSHOT_ASSERT(best_col >= 0, "uncoverable row in covering problem");
      chosen.push_back(best_col);
      for (const int r : col_rows_[static_cast<std::size_t>(best_col)]) {
        if (!covered[static_cast<std::size_t>(r)]) {
          covered[static_cast<std::size_t>(r)] = true;
          --remaining;
        }
      }
    }
    return chosen;
  }

  /// Independent-set style lower bound: greedily pick pairwise
  /// column-disjoint uncovered rows; each needs a distinct column.
  std::size_t lower_bound(const std::vector<bool>& row_covered) const {
    std::size_t bound = 0;
    std::vector<bool> col_used(col_rows_.size(), false);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (row_covered[r]) continue;
      bool independent = true;
      for (const int c : row_cols_[r])
        if (col_used[static_cast<std::size_t>(c)]) {
          independent = false;
          break;
        }
      if (independent) {
        ++bound;
        for (const int c : row_cols_[r]) col_used[static_cast<std::size_t>(c)] = true;
      }
    }
    return bound;
  }

  void branch(std::vector<bool>& row_covered, std::vector<int>& chosen, std::size_t covered_count) {
    if (aborted_) return;
    if (++nodes_ > max_nodes_) {
      aborted_ = true;
      return;
    }
    if (chosen.size() + lower_bound(row_covered) >= best_.size()) return;
    if (covered_count == num_rows_) {
      best_ = chosen;  // strictly better by the bound check above
      return;
    }
    // Branch on the uncovered row with the fewest candidate columns.
    std::size_t pick = num_rows_;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (row_covered[r]) continue;
      if (pick == num_rows_ || row_cols_[r].size() < row_cols_[pick].size()) pick = r;
    }
    NSHOT_ASSERT(pick < num_rows_, "no uncovered row to branch on");
    for (const int c : row_cols_[pick]) {
      std::vector<int> newly;
      for (const int r : col_rows_[static_cast<std::size_t>(c)]) {
        if (!row_covered[static_cast<std::size_t>(r)]) {
          row_covered[static_cast<std::size_t>(r)] = true;
          newly.push_back(r);
        }
      }
      chosen.push_back(c);
      branch(row_covered, chosen, covered_count + newly.size());
      chosen.pop_back();
      for (const int r : newly) row_covered[static_cast<std::size_t>(r)] = false;
      if (aborted_) return;
    }
  }

  std::size_t num_rows_;
  std::vector<std::vector<int>> row_cols_;
  std::vector<std::vector<int>> col_rows_;
  std::size_t max_nodes_;
  std::vector<int> best_;
  std::size_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

std::optional<std::vector<Cube>> generate_primes(const TwoLevelSpec& spec, int o,
                                                 const ExactOptions& options) {
  // Ordered sets on the bit-packed keys: the primes come out in (lo, hi)
  // order, which fixes the column order of the covering problem.
  std::set<CubeKey> visited;
  std::set<CubeKey> keys;
  for (const std::uint64_t code : spec.on(o)) {
    const Cube seed = Cube::minterm(code, spec.num_inputs(), 1ULL << o);
    NSHOT_REQUIRE(spec.cube_valid_for_output(seed, o), "on-minterm also appears in the off-set");
    if (!expand_all(seed, spec, o, visited, keys, options.max_primes)) return std::nullopt;
  }

  std::vector<Cube> primes;
  primes.reserve(keys.size());
  for (const CubeKey& key : keys) {
    Cube cube = Cube::full(spec.num_inputs(), 1ULL << o);
    for (int v = 0; v < spec.num_inputs(); ++v) {
      const std::uint64_t bit = 1ULL << v;
      const bool lo = key.lo & bit, hi = key.hi & bit;
      if (lo && hi) continue;
      cube.restrict_var(v, hi);
    }
    primes.push_back(cube);
  }
  obs::count(obs::Counter::kPrimesGenerated, static_cast<long>(primes.size()));
  return primes;
}

std::optional<Cover> exact_minimize_output(const TwoLevelSpec& spec, int o,
                                           const ExactOptions& options) {
  const auto primes = generate_primes(spec, o, options);
  if (!primes) return std::nullopt;

  const auto& on = spec.on(o);
  std::vector<std::vector<int>> row_cols(on.size());
  std::vector<std::vector<int>> col_rows(primes->size());
  for (std::size_t r = 0; r < on.size(); ++r) {
    for (std::size_t c = 0; c < primes->size(); ++c) {
      if ((*primes)[c].covers_minterm(on[r])) {
        row_cols[r].push_back(static_cast<int>(c));
        col_rows[c].push_back(static_cast<int>(r));
      }
    }
    NSHOT_ASSERT(!row_cols[r].empty(), "on-minterm not covered by any prime");
  }

  CoveringSolver solver(on.size(), std::move(row_cols), std::move(col_rows), options.max_nodes);
  const auto selected = solver.solve();
  if (!selected) return std::nullopt;

  Cover cover(spec.num_inputs(), spec.num_outputs());
  for (const int c : *selected) cover.add((*primes)[static_cast<std::size_t>(c)]);
  cover.remove_contained();
  return cover;
}

Cover exact_minimize(const TwoLevelSpec& spec, const ExactOptions& options) {
  const obs::Span span("exact");
  std::optional<TwoLevelSpec> storage;
  const TwoLevelSpec& normalized = normalized_view(spec, storage);

  // Each output is an independent prime-generation + covering problem;
  // solve them in parallel and concatenate the per-output covers in
  // output order (exactly what the serial loop produced).
  const std::vector<std::vector<Cube>> per_output = exec::parallel_map<std::vector<Cube>>(
      normalized.num_outputs(),
      [&](int o) {
        std::vector<Cube> cubes;
        if (normalized.on(o).empty()) return cubes;
        const auto exact = exact_minimize_output(normalized, o, options);
        if (exact) {
          for (const Cube& c : *exact) cubes.push_back(c);
          return cubes;
        }
        // Fallback: heuristic minimization of this output alone.
        TwoLevelSpec single(normalized.num_inputs(), 1);
        for (const std::uint64_t code : normalized.on(o)) single.add_on(0, code);
        for (const std::uint64_t code : normalized.off(o)) single.add_off(0, code);
        single.normalize();
        const Cover heuristic = espresso(single);
        for (Cube c : heuristic) {
          c.set_outputs(1ULL << o);
          cubes.push_back(c);
        }
        return cubes;
      },
      options.jobs);

  Cover result(normalized.num_inputs(), normalized.num_outputs());
  for (const std::vector<Cube>& cubes : per_output)
    for (const Cube& c : cubes) result.add(c);
  return result;
}

}  // namespace nshot::logic
