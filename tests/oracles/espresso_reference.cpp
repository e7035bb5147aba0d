#include "oracles/espresso_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace nshot::logic::reference {
namespace {

/// Same cap as production: only the first 2048 pending cubes are scored.
constexpr std::size_t kGainScanCap = 2048;

struct OnPair {
  std::uint64_t code;
  int output;
};

std::vector<OnPair> collect_on_pairs(const TwoLevelSpec& spec) {
  std::vector<OnPair> pairs;
  for (int o = 0; o < spec.num_outputs(); ++o)
    for (const std::uint64_t code : spec.on(o)) pairs.push_back({code, o});
  return pairs;
}

}  // namespace

bool cube_is_valid(const TwoLevelSpec& spec, const Cube& cube) {
  for (int o = 0; o < spec.num_outputs(); ++o)
    if (cube.has_output(o) && !spec.cube_valid_for_output(cube, o)) return false;
  return true;
}

Cover initial_cover(const TwoLevelSpec& spec, bool share_outputs) {
  Cover cover(spec.num_inputs(), spec.num_outputs());
  if (!share_outputs) {
    for (int o = 0; o < spec.num_outputs(); ++o)
      for (const std::uint64_t code : spec.on(o))
        cover.add(Cube::minterm(code, spec.num_inputs(), 1ULL << o));
    return cover;
  }
  std::vector<std::uint64_t> codes;
  for (int o = 0; o < spec.num_outputs(); ++o)
    codes.insert(codes.end(), spec.on(o).begin(), spec.on(o).end());
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());

  for (const std::uint64_t code : codes) {
    std::uint64_t outs = 0;
    for (int o = 0; o < spec.num_outputs(); ++o) {
      if (std::binary_search(spec.on(o).begin(), spec.on(o).end(), code)) outs |= (1ULL << o);
    }
    if (outs != 0) cover.add(Cube::minterm(code, spec.num_inputs(), outs));
  }
  return cover;
}

void expand(Cover& cover, const TwoLevelSpec& spec, bool share_outputs) {
  const std::size_t n = cover.size();
  std::vector<bool> done(n, false);  // already expanded or absorbed
  std::vector<Cube> result;
  result.reserve(n);

  // Expand narrow cubes first: they are the least likely to be absorbed.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cover[a].literal_count() > cover[b].literal_count();
  });

  for (const std::size_t idx : order) {
    if (done[idx]) continue;
    done[idx] = true;
    Cube cube = cover[idx];

    // Greedy literal raising: at each step raise the valid direction that
    // absorbs the most still-pending cubes.
    bool progress = true;
    while (progress) {
      progress = false;
      int best_var = -1;
      long best_gain = -1;
      for (int v = 0; v < spec.num_inputs(); ++v) {
        if (cube.var_is_free(v)) continue;
        Cube candidate = cube;
        candidate.raise_var(v);
        if (!cube_is_valid(spec, candidate)) continue;
        long gain = 0;
        std::size_t scanned = 0;
        for (const std::size_t j : order) {
          if (done[j]) continue;
          if (candidate.contains(cover[j])) ++gain;
          if (++scanned >= kGainScanCap) break;
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_var = v;
        }
      }
      if (best_var >= 0) {
        cube.raise_var(best_var);
        progress = true;
      }
    }

    // Output raising: let this AND gate feed further outputs when valid and
    // useful (covers at least one on-minterm of that output).
    if (share_outputs) {
      for (int o = 0; o < spec.num_outputs(); ++o) {
        if (cube.has_output(o)) continue;
        if (!spec.cube_valid_for_output(cube, o)) continue;
        bool useful = false;
        for (const std::uint64_t code : spec.on(o)) {
          if (cube.covers_minterm(code)) {
            useful = true;
            break;
          }
        }
        if (useful) cube.add_output(o);
      }
    }

    // Absorb pending cubes now contained in the expanded cube.
    for (const std::size_t j : order)
      if (!done[j] && cube.contains(cover[j])) done[j] = true;

    result.push_back(cube);
  }

  Cover expanded(spec.num_inputs(), spec.num_outputs());
  for (const Cube& c : result) expanded.add(c);
  expanded.remove_contained();
  cover = std::move(expanded);
}

void irredundant(Cover& cover, const TwoLevelSpec& spec) {
  const std::vector<OnPair> pairs = collect_on_pairs(spec);
  const std::size_t n = cover.size();

  // For every on-pair, the set of cubes that cover it.
  std::vector<std::vector<std::size_t>> coverers(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t i = 0; i < n; ++i)
      if (cover[i].has_output(pairs[p].output) && cover[i].covers_minterm(pairs[p].code))
        coverers[p].push_back(i);
    NSHOT_ASSERT(!coverers[p].empty(), "cover lost an on-minterm before IRREDUNDANT");
  }

  std::vector<bool> selected(n, false);
  std::vector<bool> pair_done(pairs.size(), false);
  std::size_t remaining = pairs.size();

  auto select = [&](std::size_t cube_index) {
    if (selected[cube_index]) return;
    selected[cube_index] = true;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (pair_done[p]) continue;
      for (const std::size_t i : coverers[p]) {
        if (i == cube_index) {
          pair_done[p] = true;
          --remaining;
          break;
        }
      }
    }
  };

  // Relatively essential cubes first.
  for (std::size_t p = 0; p < pairs.size(); ++p)
    if (coverers[p].size() == 1) select(coverers[p][0]);

  // Greedy set cover for the rest.
  while (remaining > 0) {
    std::vector<std::size_t> uncovered_count(n, 0);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (pair_done[p]) continue;
      for (const std::size_t i : coverers[p]) ++uncovered_count[i];
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
      if (uncovered_count[i] > uncovered_count[best]) best = i;
    NSHOT_ASSERT(uncovered_count[best] > 0, "greedy IRREDUNDANT cannot make progress");
    select(best);
  }

  Cover pruned(cover.num_inputs(), cover.num_outputs());
  for (std::size_t i = 0; i < n; ++i)
    if (selected[i]) pruned.add(cover[i]);
  cover = std::move(pruned);
}

Cover espresso(const TwoLevelSpec& spec, const EspressoOptions& options) {
  TwoLevelSpec normalized = spec;
  normalized.normalize();

  Cover cover = initial_cover(normalized, options.share_outputs);
  if (cover.empty()) return cover;

  expand(cover, normalized, options.share_outputs);
  irredundant(cover, normalized);
  Cover best = cover;
  CoverCost best_cost = cost_of(best);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    espresso_reduce(cover, normalized);
    expand(cover, normalized, options.share_outputs);
    irredundant(cover, normalized);
    const CoverCost cost = cost_of(cover);
    if (!(cost < best_cost)) break;
    best = cover;
    best_cost = cost;
  }
  best.remove_contained();
  return best;
}

VerifyResult verify_cover(const TwoLevelSpec& spec, const Cover& cover) {
  for (int o = 0; o < spec.num_outputs(); ++o) {
    for (const std::uint64_t code : spec.on(o)) {
      if (!cover.covers(code, o))
        return {false, "on-minterm " + std::to_string(code) + " of output " + std::to_string(o) +
                           " is not covered"};
    }
    for (const std::uint64_t code : spec.off(o)) {
      if (cover.covers(code, o))
        return {false, "off-minterm " + std::to_string(code) + " of output " + std::to_string(o) +
                           " is covered"};
    }
  }
  return {};
}

std::vector<Cube> generate_primes(const TwoLevelSpec& spec, int o) {
  const int n = spec.num_inputs();
  NSHOT_REQUIRE(n <= 12, "exhaustive prime enumeration is for small input counts");
  std::uint64_t cubes = 1;
  for (int v = 0; v < n; ++v) cubes *= 3;
  std::vector<Cube> primes;
  for (std::uint64_t index = 0; index < cubes; ++index) {
    // Base-3 digit v of `index`: 0 and 1 fix variable v, 2 leaves it free.
    Cube cube = Cube::full(n, 1ULL << o);
    std::uint64_t digits = index;
    for (int v = 0; v < n; ++v, digits /= 3)
      if (digits % 3 != 2) cube.restrict_var(v, digits % 3 == 1);
    if (!cube_is_valid(spec, cube)) continue;
    bool covers_on = false;
    for (const std::uint64_t code : spec.on(o)) covers_on = covers_on || cube.covers_minterm(code);
    if (!covers_on) continue;
    bool maximal = true;
    for (int v = 0; v < n && maximal; ++v) {
      if (cube.var_is_free(v)) continue;
      Cube raised = cube;
      raised.raise_var(v);
      maximal = !cube_is_valid(spec, raised);
    }
    if (maximal) primes.push_back(cube);
  }
  std::sort(primes.begin(), primes.end(), [](const Cube& a, const Cube& b) {
    return a.lo() != b.lo() ? a.lo() < b.lo() : a.hi() < b.hi();
  });
  return primes;
}

}  // namespace nshot::logic::reference
