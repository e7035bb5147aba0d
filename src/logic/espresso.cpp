#include "logic/espresso.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "logic/bitslice.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace nshot::logic {
namespace {

/// Cap on how many uncovered cubes are scanned when scoring an EXPAND
/// direction; keeps the heuristic near-linear on very large state graphs.
constexpr std::size_t kGainScanCap = 2048;

/// A mask of the lowest `count` bits (count <= 64).
std::uint64_t low_bits(int count) { return count == 64 ? ~0ULL : (1ULL << count) - 1; }

/// One (minterm, output) pair of the on-set.
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

// Transient buffers are kept small (the off-set union is merged one
// output at a time, the IRREDUNDANT index is one short row per cube).
// Concatenating every off-list before sorting (0.25 MiB on master-read)
// raised peak RSS under the stress workload by about 4 MiB; with a single
// malloc arena the difference vanished, so it was heap retention across
// thread arenas, not live data.

/// The sorted distinct off-codes of all outputs (the spec is normalized,
/// so each off-list is already sorted and distinct).
std::vector<std::uint64_t> union_off_codes(const TwoLevelSpec& spec) {
  std::vector<std::uint64_t> codes;
  std::vector<std::uint64_t> merged;
  for (int o = 0; o < spec.num_outputs(); ++o) {
    merged.clear();
    std::set_union(codes.begin(), codes.end(), spec.off(o).begin(), spec.off(o).end(),
                   std::back_inserter(merged));
    codes.swap(merged);
  }
  return codes;
}

/// The off-sets of every output as bit planes over one sorted list of
/// distinct off-codes, plus one membership mask per output.  A cube's
/// literal on variable v "mismatches" code i when it does not admit bit v
/// of that code; the cube covers code i iff no literal mismatches it.
class OffSetPlanes {
 public:
  explicit OffSetPlanes(const TwoLevelSpec& spec)
      : codes_(union_off_codes(spec)),
        planes_(codes_, spec.num_inputs()),
        words_(planes_.num_words()),
        masks_(static_cast<std::size_t>(spec.num_outputs()) * words_, 0),
        zeros_(words_, 0),
        output_mask_(low_bits(spec.num_outputs())) {
    for (int o = 0; o < spec.num_outputs(); ++o) {
      std::uint64_t* mask = masks_.data() + static_cast<std::size_t>(o) * words_;
      for (const std::uint64_t code : spec.off(o)) {
        const auto i = static_cast<std::size_t>(
            std::lower_bound(codes_.begin(), codes_.end(), code) - codes_.begin());
        mask[i >> 6] |= 1ULL << (i & 63);
      }
    }
  }

  std::size_t words() const { return words_; }
  const std::uint64_t* mask(int o) const {
    return masks_.data() + static_cast<std::size_t>(o) * words_;
  }

  /// Off-codes of the outputs in `outputs`, into `out` (words() words).
  void fed(std::uint64_t outputs, std::uint64_t* out) const {
    std::fill(out, out + words_, 0);
    outputs &= output_mask_;
    while (outputs) {
      const std::uint64_t* m = mask(std::countr_zero(outputs));
      outputs &= outputs - 1;
      for (std::size_t w = 0; w < words_; ++w) out[w] |= m[w];
    }
  }

  /// The mismatch set of one bound literal is `plane ^ flip`, word by
  /// word (tail bits past the last code are garbage; callers mask them
  /// with an output mask).
  struct Literal {
    int var;
    const std::uint64_t* plane;
    std::uint64_t flip;
  };

  void literals(const Cube& cube, std::vector<Literal>& out) const {
    out.clear();
    std::uint64_t bound = Cube::input_mask(cube.num_inputs()) & ~(cube.lo() & cube.hi());
    while (bound) {
      const int v = std::countr_zero(bound);
      bound &= bound - 1;
      const bool admits0 = (cube.lo() >> v) & 1ULL;
      const bool admits1 = (cube.hi() >> v) & 1ULL;
      if (admits1) out.push_back({v, planes_.plane(v), ~0ULL});  // mismatch: bit v = 0
      else if (admits0) out.push_back({v, planes_.plane(v), 0});  // mismatch: bit v = 1
      else out.push_back({v, zeros_.data(), ~0ULL});              // empty literal: always
    }
  }

 private:
  std::vector<std::uint64_t> codes_;  // sorted distinct off-codes
  CodeBitPlanes planes_;
  std::size_t words_;
  std::vector<std::uint64_t> masks_;  // num_outputs x words, flattened
  std::vector<std::uint64_t> zeros_;
  std::uint64_t output_mask_;
};

void expand(Cover& cover, const TwoLevelSpec& spec, const OffSetPlanes& off, bool share_outputs,
            long pass) {
  const obs::Span span("expand", pass);
  const std::size_t n = cover.size();
  obs::count(obs::Counter::kCubesExpanded, static_cast<long>(n));
  long raise_steps = 0;
  long validity_checks = 0;
  long words_scanned = 0;

  const std::size_t words = off.words();
  std::vector<std::uint64_t> fed(words);      // off-codes of the outputs the cube feeds
  std::vector<std::uint64_t> covered(words);  // codes the cube covers
  std::vector<OffSetPlanes::Literal> literals;
  struct Pending {
    std::uint64_t lo;
    std::uint64_t hi;
  };
  std::vector<Pending> pending;
  std::array<long, 64> var_gain{};  // pending cubes each candidate raise absorbs

  // The cubes neither expanded nor absorbed yet.  Narrow cubes go first:
  // they are the least likely to be absorbed.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cover[a].literal_count() > cover[b].literal_count();
  });
  std::vector<Cube> live;
  live.reserve(n);
  for (const std::size_t i : order) live.push_back(cover[i]);

  std::vector<Cube> result;
  while (!live.empty()) {
    Cube cube = live.front();
    off.fed(cube.outputs(), fed.data());

    // The cubes a raise can absorb: the next kGainScanCap live cubes, kept
    // when this cube feeds every output they feed.
    pending.clear();
    for (std::size_t pos = 1; pos < live.size() && pos <= kGainScanCap; ++pos)
      if ((live[pos].outputs() & ~cube.outputs()) == 0)
        pending.push_back({live[pos].lo(), live[pos].hi()});

    // Greedy literal raising: at each step raise the valid direction that
    // absorbs the most pending cubes (lowest variable on ties).
    std::uint64_t blocked = 0;  // invalid raises; they stay invalid as the cube grows
    for (;;) {
      ++raise_steps;
      const std::uint64_t bound = Cube::input_mask(spec.num_inputs()) & ~(cube.lo() & cube.hi());
      validity_checks += std::popcount(bound & ~blocked);
      // Raising v is valid iff no fed off-code mismatches the cube at v
      // alone, and the cube covers no fed off-code yet.  Per word, `one`
      // and `two` collect the codes mismatching >= 1 and >= 2 literals.
      // A code mismatching a blocked literal can never matter again, so
      // it leaves `fed` for the rest of this cube.
      off.literals(cube, literals);
      std::uint64_t invalid = blocked;
      for (std::size_t w = 0; w < words && invalid != bound; ++w) {
        if (fed[w] == 0) continue;
        std::uint64_t one = 0;
        std::uint64_t two = 0;
        std::uint64_t dead = 0;
        for (const auto& lit : literals) {
          const std::uint64_t m = lit.plane[w] ^ lit.flip;
          if ((blocked >> lit.var) & 1ULL) dead |= m;
          two |= one & m;
          one |= m;
        }
        words_scanned += static_cast<long>(literals.size());
        fed[w] &= ~dead;
        if ((fed[w] & ~one) != 0) invalid = bound;
        const std::uint64_t once = fed[w] & ~two;
        if (once == 0) continue;
        for (const auto& lit : literals)
          if ((once & (lit.plane[w] ^ lit.flip)) != 0) invalid |= 1ULL << lit.var;
      }
      blocked = bound & invalid;
      const std::uint64_t valid = bound & ~invalid;
      if (valid == 0) break;

      // Score every candidate in one pass: a pending cube lands in the
      // candidate for v iff it sticks out of the cube at v alone.  Cubes
      // already inside the cube add to every candidate alike, so they
      // cannot change the choice; cubes sticking out at an invalid
      // variable (an invalid raise stays invalid as the cube grows) can
      // never be absorbed.  Both are dropped for the rest of this cube.
      var_gain.fill(0);
      std::size_t kept = 0;
      for (const Pending& p : pending) {
        const std::uint64_t viol = (p.lo & ~cube.lo()) | (p.hi & ~cube.hi());
        if (viol == 0 || (viol & invalid) != 0) continue;
        pending[kept++] = p;
        if ((viol & (viol - 1)) == 0) ++var_gain[static_cast<std::size_t>(std::countr_zero(viol))];
      }
      pending.resize(kept);
      int best_var = -1;
      long best_gain = -1;
      for (std::uint64_t rest = valid; rest; rest &= rest - 1) {
        const int v = std::countr_zero(rest);
        if (var_gain[static_cast<std::size_t>(v)] > best_gain) {
          best_gain = var_gain[static_cast<std::size_t>(v)];
          best_var = v;
        }
      }
      cube.raise_var(best_var);
    }

    // Output raising: let this AND gate feed further outputs when valid and
    // useful (covers at least one on-minterm of that output).
    if (share_outputs) {
      off.literals(cube, literals);
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t one = 0;
        for (const auto& lit : literals) one |= lit.plane[w] ^ lit.flip;
        covered[w] = ~one;
      }
      words_scanned += static_cast<long>(words * literals.size());
      for (int o = 0; o < spec.num_outputs(); ++o) {
        if (cube.has_output(o)) continue;
        ++validity_checks;
        const std::uint64_t* mask = off.mask(o);
        bool hits_off = false;
        for (std::size_t w = 0; w < words && !hits_off; ++w) hits_off = (mask[w] & covered[w]) != 0;
        if (hits_off) continue;
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

    // Retire this cube and absorb the live cubes it now contains.
    std::size_t kept = 0;
    for (std::size_t pos = 1; pos < live.size(); ++pos)
      if (!cube.contains(live[pos])) live[kept++] = live[pos];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(kept), live.end());
    result.push_back(cube);
  }
  obs::count(obs::Counter::kExpandRaiseSteps, raise_steps);
  obs::count(obs::Counter::kExpandValidityChecks, validity_checks);
  obs::count(obs::Counter::kExpandOffWordsScanned, words_scanned);

  Cover expanded(spec.num_inputs(), spec.num_outputs());
  for (const Cube& c : result) expanded.add(c);
  expanded.remove_contained();
  cover = std::move(expanded);
}

void irredundant(Cover& cover, const TwoLevelSpec& spec, long pass) {
  const obs::Span span("irredundant", pass);
  const std::size_t n = cover.size();
  const std::uint64_t all_outputs = low_bits(spec.num_outputs());

  // The on-pairs as bits: output o's pairs, in on(o) order, are the bits
  // of a block of words(o) words.  rows[i] is the cube -> pairs index: the
  // blocks of the outputs cube i feeds (ascending), with its pairs set.
  // one/two fold the rows the way EXPAND folds literals: pairs covered by
  // >= 1 and >= 2 cubes, in one global layout (block o at start[o]).
  std::vector<CodeBitPlanes> on_planes;
  std::vector<std::size_t> start{0};
  for (int o = 0; o < spec.num_outputs(); ++o) {
    on_planes.emplace_back(spec.on(o), spec.num_inputs());
    start.push_back(start.back() + on_planes.back().num_words());
  }
  auto words = [&](int o) { return on_planes[static_cast<std::size_t>(o)].num_words(); };
  std::vector<std::vector<std::uint64_t>> rows(n);
  std::vector<std::uint64_t> one(start.back());
  std::vector<std::uint64_t> two(start.back());
  std::vector<std::size_t> uncovered_count(n);  // pairs covered by i, by no selected cube
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t outs = cover[i].outputs() & all_outputs;
    std::size_t size = 0;
    for (std::uint64_t rest = outs; rest; rest &= rest - 1) size += words(std::countr_zero(rest));
    std::vector<std::uint64_t>& row = rows[i];
    row.resize(size);
    std::size_t at = 0;
    for (std::uint64_t rest = outs; rest; rest &= rest - 1) {
      const int o = std::countr_zero(rest);
      on_planes[static_cast<std::size_t>(o)].covered_by(cover[i], row.data() + at);
      for (std::size_t w = 0; w < words(o); ++w, ++at) {
        const std::size_t g = start[static_cast<std::size_t>(o)] + w;
        two[g] |= one[g] & row[at];
        one[g] |= row[at];
        uncovered_count[i] += static_cast<std::size_t>(std::popcount(row[at]));
      }
    }
  }
  std::size_t remaining = 0;
  for (int o = 0; o < spec.num_outputs(); ++o)
    for (std::size_t w = 0; w < words(o); ++w) {
      const std::uint64_t pairs = on_planes[static_cast<std::size_t>(o)].full_word(w);
      NSHOT_ASSERT((pairs & ~one[start[static_cast<std::size_t>(o)] + w]) == 0,
                   "cover lost an on-minterm before IRREDUNDANT");
      remaining += static_cast<std::size_t>(std::popcount(pairs));
    }

  std::vector<bool> selected(n, false);
  std::vector<std::uint64_t> done(start.back());   // pairs covered by a selected cube
  std::vector<std::uint64_t> fresh(start.back());  // pairs the last selection covered

  // Select a cube: mark its pairs done, then take the newly done pairs off
  // the count of every cube sharing one of the touched outputs.
  auto select = [&](std::size_t cube_index) {
    if (selected[cube_index]) return;
    selected[cube_index] = true;
    std::uint64_t touched = 0;
    std::size_t at = 0;
    for (std::uint64_t rest = cover[cube_index].outputs() & all_outputs; rest; rest &= rest - 1) {
      const int o = std::countr_zero(rest);
      for (std::size_t w = 0; w < words(o); ++w, ++at) {
        const std::size_t g = start[static_cast<std::size_t>(o)] + w;
        fresh[g] = rows[cube_index][at] & ~done[g];
        done[g] |= fresh[g];
        remaining -= static_cast<std::size_t>(std::popcount(fresh[g]));
        if (fresh[g] != 0) touched |= 1ULL << o;
      }
    }
    for (std::size_t i = 0; i < n && touched != 0; ++i) {
      const std::uint64_t outs = cover[i].outputs() & all_outputs;
      if ((outs & touched) == 0) continue;
      std::size_t row_at = 0;
      for (std::uint64_t rest = outs; rest; rest &= rest - 1) {
        const int o = std::countr_zero(rest);
        if ((touched >> o) & 1ULL)
          for (std::size_t w = 0; w < words(o); ++w)
            uncovered_count[i] -= static_cast<std::size_t>(std::popcount(
                rows[i][row_at + w] & fresh[start[static_cast<std::size_t>(o)] + w]));
        row_at += words(o);
      }
    }
  };

  // Relatively essential cubes first: the only coverer of some pair.
  for (std::size_t i = 0; i < n; ++i) {
    bool essential = false;
    std::size_t at = 0;
    for (std::uint64_t rest = cover[i].outputs() & all_outputs; rest && !essential;
         rest &= rest - 1) {
      const int o = std::countr_zero(rest);
      for (std::size_t w = 0; w < words(o); ++w, ++at) {
        const std::size_t g = start[static_cast<std::size_t>(o)] + w;
        essential |= (rows[i][at] & one[g] & ~two[g]) != 0;
      }
    }
    if (essential) select(i);
  }

  // Greedy set cover for the rest.
  while (remaining > 0) {
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

void reduce(Cover& cover, const TwoLevelSpec& spec, long pass) {
  const obs::Span span("reduce", pass);
  const std::vector<OnPair> pairs = collect_on_pairs(spec);

  // Process widest cubes first so they shed minterms to the narrow ones.
  std::vector<std::size_t> order(cover.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cover[a].literal_count() < cover[b].literal_count();
  });

  std::vector<bool> dead(cover.size(), false);
  for (const std::size_t i : order) {
    // On-pairs for which cube i is currently the only coverer.
    std::optional<Cube> shrunk;
    std::uint64_t outs = 0;
    for (const OnPair& p : pairs) {
      if (!cover[i].has_output(p.output) || !cover[i].covers_minterm(p.code)) continue;
      bool elsewhere = false;
      for (std::size_t j = 0; j < cover.size() && !elsewhere; ++j)
        elsewhere = j != i && !dead[j] && cover[j].has_output(p.output) &&
                    cover[j].covers_minterm(p.code);
      if (elsewhere) continue;
      const Cube point = Cube::minterm(p.code, cover.num_inputs(), 0);
      shrunk = shrunk ? shrunk->supercube(point) : point;
      outs |= (1ULL << p.output);
    }
    if (!shrunk) {
      dead[i] = true;
    } else {
      shrunk->set_outputs(outs);
      cover[i] = *shrunk;
    }
  }

  Cover reduced(cover.num_inputs(), cover.num_outputs());
  for (std::size_t i = 0; i < cover.size(); ++i)
    if (!dead[i]) reduced.add(cover[i]);
  cover = std::move(reduced);
}

}  // namespace

CoverCost cost_of(const Cover& cover) {
  return CoverCost{cover.size(), cover.literal_count()};
}

// Without sharing each function is minimized independently (expansion
// never raises output parts in that mode).
Cover espresso_initial_cover(const TwoLevelSpec& spec, bool share_outputs) {
  NSHOT_REQUIRE(spec.normalized(), "espresso_initial_cover needs a normalized spec");
  Cover cover(spec.num_inputs(), spec.num_outputs());
  if (!share_outputs) {
    for (int o = 0; o < spec.num_outputs(); ++o)
      for (const std::uint64_t code : spec.on(o))
        cover.add(Cube::minterm(code, spec.num_inputs(), 1ULL << o));
    return cover;
  }
  // One merge over the sorted on-lists, one cursor per output: each step
  // takes the smallest code under any cursor and feeds every output whose
  // cursor sits on it.
  const int outputs = spec.num_outputs();
  std::vector<std::size_t> at(static_cast<std::size_t>(outputs), 0);
  for (;;) {
    std::uint64_t code = ~0ULL;
    std::uint64_t outs = 0;
    for (int o = 0; o < outputs; ++o) {
      const std::vector<std::uint64_t>& on = spec.on(o);
      const std::size_t i = at[static_cast<std::size_t>(o)];
      if (i == on.size() || on[i] > code) continue;
      if (on[i] < code) {
        code = on[i];
        outs = 0;
      }
      outs |= 1ULL << o;
    }
    if (outs == 0) break;
    for (std::uint64_t rest = outs; rest; rest &= rest - 1)
      ++at[static_cast<std::size_t>(std::countr_zero(rest))];
    cover.add(Cube::minterm(code, spec.num_inputs(), outs));
  }
  return cover;
}

void espresso_expand(Cover& cover, const TwoLevelSpec& spec, bool share_outputs) {
  NSHOT_REQUIRE(spec.normalized(), "espresso_expand needs a normalized spec");
  expand(cover, spec, OffSetPlanes(spec), share_outputs, -1);
}

void espresso_irredundant(Cover& cover, const TwoLevelSpec& spec) {
  NSHOT_REQUIRE(spec.normalized(), "espresso_irredundant needs a normalized spec");
  irredundant(cover, spec, -1);
}

void espresso_reduce(Cover& cover, const TwoLevelSpec& spec) {
  NSHOT_REQUIRE(spec.normalized(), "espresso_reduce needs a normalized spec");
  reduce(cover, spec, -1);
}

Cover espresso(const TwoLevelSpec& spec, const EspressoOptions& options) {
  const obs::Span span("espresso");
  std::optional<TwoLevelSpec> storage;
  const TwoLevelSpec& normalized = normalized_view(spec, storage);

  Cover cover = espresso_initial_cover(normalized, options.share_outputs);
  if (cover.empty()) return cover;

  // Spans of pass 0 are the first EXPAND/IRREDUNDANT; pass k >= 1 is the
  // k-th REDUCE/EXPAND/IRREDUNDANT iteration.
  const OffSetPlanes off(normalized);
  expand(cover, normalized, off, options.share_outputs, 0);
  irredundant(cover, normalized, 0);
  Cover best = cover;
  CoverCost best_cost = cost_of(best);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    reduce(cover, normalized, iter);
    expand(cover, normalized, off, options.share_outputs, iter);
    irredundant(cover, normalized, iter);
    const CoverCost cost = cost_of(cover);
    if (!(cost < best_cost)) break;
    best = cover;
    best_cost = cost;
  }
  best.remove_contained();
  return best;
}

}  // namespace nshot::logic
