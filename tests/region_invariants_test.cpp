// Randomized invariants of the region machinery (Definitions 5-9,
// Properties 1-2): over fuzzed controller SGs, every excitation region
// must trap its output (Prop 1), reach a trigger region without firing the
// output (Prop 2), and the Tarjan-based trigger regions must equal a naive
// reachability-closure reference for "bottom SCCs of the ER minus *a
// arcs".  Single traversal must agree between the per-region check and the
// whole-graph predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

/// Random parallel-chains controller (generator family of
/// random_controller_test.cpp, different seed stream).
std::string random_chains(Rng& rng, int index) {
  const int width = 2 + static_cast<int>(rng.next_below(3));
  std::vector<std::vector<std::string>> chains;
  std::vector<std::string> inputs, outputs;
  for (int c = 0; c < width; ++c) {
    const int length = 1 + static_cast<int>(rng.next_below(3));
    std::vector<std::string> chain;
    for (int k = 0; k < length; ++k) {
      const std::string name =
          std::string("c").append(std::to_string(c)).append("_").append(std::to_string(k));
      chain.push_back(name);
      (k == 0 && rng.next_bool(0.7) ? inputs : outputs).push_back(name);
    }
    chains.push_back(std::move(chain));
  }
  return bench_suite::parallel_chains_g("inv" + std::to_string(index), "m",
                                        /*master_is_input=*/true, chains, inputs, outputs);
}

/// Naive reference for the trigger regions of `er`: the bottom SCCs of the
/// subgraph of ER(*a) induced by the arcs that do not fire *a, computed by
/// full reachability closure (O(|ER|^2) — fine at fuzz sizes, and sharing
/// no code with the Tarjan implementation under test).
std::vector<std::vector<sg::StateId>> naive_trigger_regions(const sg::StateGraph& g,
                                                            const sg::ExcitationRegion& er) {
  const std::vector<sg::StateId>& states = er.states;
  const auto index_of = [&](sg::StateId s) -> int {
    const auto it = std::find(states.begin(), states.end(), s);
    return it == states.end() ? -1 : static_cast<int>(it - states.begin());
  };

  // reach[u] = set of ER-internal states reachable from u over non-*a arcs.
  const int n = static_cast<int>(states.size());
  std::vector<std::vector<bool>> reach(static_cast<std::size_t>(n),
                                       std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int u = 0; u < n; ++u) {
    std::vector<int> stack{u};
    reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(u)] = true;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (const sg::Edge& e : g.out_edges(states[static_cast<std::size_t>(v)])) {
        if (e.label.signal == er.signal) continue;  // fires *a
        const int w = index_of(e.target);
        if (w < 0) continue;  // leaves the ER
        if (!reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(w)]) {
          reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(w)] = true;
          stack.push_back(w);
        }
      }
    }
  }

  // SCC of u = { v : u and v reach each other }; bottom iff reach(u) stays
  // inside the SCC.
  std::vector<std::vector<sg::StateId>> bottoms;
  std::vector<bool> assigned(static_cast<std::size_t>(n), false);
  for (int u = 0; u < n; ++u) {
    if (assigned[static_cast<std::size_t>(u)]) continue;
    std::vector<int> scc;
    for (int v = 0; v < n; ++v)
      if (reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] &&
          reach[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)])
        scc.push_back(v);
    for (const int v : scc) assigned[static_cast<std::size_t>(v)] = true;
    bool bottom = true;
    for (const int v : scc)
      for (int w = 0; w < n; ++w)
        if (reach[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)] &&
            !reach[static_cast<std::size_t>(w)][static_cast<std::size_t>(v)])
          bottom = false;
    if (!bottom) continue;
    std::vector<sg::StateId> region;
    for (const int v : scc) region.push_back(states[static_cast<std::size_t>(v)]);
    std::sort(region.begin(), region.end());
    bottoms.push_back(std::move(region));
  }
  std::sort(bottoms.begin(), bottoms.end());
  return bottoms;
}

std::vector<std::vector<sg::StateId>> sorted_regions(
    const std::vector<std::vector<sg::StateId>>& regions) {
  std::vector<std::vector<sg::StateId>> out = regions;
  for (std::vector<sg::StateId>& r : out) std::sort(r.begin(), r.end());
  std::sort(out.begin(), out.end());
  return out;
}

void check_graph(const sg::StateGraph& g, const std::string& context) {
  bool all_singleton = true;
  for (const sg::SignalId a : g.noninput_signals()) {
    const sg::SignalRegions regions = sg::compute_regions(g, a);
    for (const sg::ExcitationRegion& er : regions.regions) {
      // Property 1: arcs leaving the ER fire *a.
      EXPECT_TRUE(sg::verify_output_trapping(g, er))
          << context << ": output trapping fails for signal " << g.signal(a).name;
      // Property 2: every ER state reaches a trigger region without *a.
      EXPECT_TRUE(sg::verify_trigger_reachability(g, er))
          << context << ": trigger reachability fails for signal " << g.signal(a).name;
      // The Tarjan bottom-SCCs equal the naive reachability reference.
      EXPECT_EQ(sorted_regions(er.trigger_regions), naive_trigger_regions(g, er))
          << context << ": trigger regions diverge for signal " << g.signal(a).name;
      // Per-region single traversal = "every trigger region is a singleton".
      bool singleton = true;
      for (const std::vector<sg::StateId>& tr : er.trigger_regions)
        if (tr.size() != 1) singleton = false;
      EXPECT_EQ(er.single_traversal(), singleton) << context;
      all_singleton = all_singleton && singleton;
    }
  }
  // Whole-graph predicate agrees with the conjunction over all regions.
  EXPECT_EQ(sg::is_single_traversal(g), all_singleton) << context;
}

class RegionInvariantsTest : public ::testing::TestWithParam<int> {};

TEST_P(RegionInvariantsTest, FuzzedControllersSatisfyRegionInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0xB5297A4DULL + 11);
  const std::string g_text = random_chains(rng, GetParam());
  const sg::StateGraph g = bench_suite::build_g(g_text);
  ASSERT_TRUE(sg::check_implementability(g).ok()) << g_text;
  check_graph(g, g_text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionInvariantsTest, ::testing::Range(1, 31));

TEST(RegionInvariantsTest, BenchmarkSuiteSatisfiesRegionInvariants) {
  // The real circuits exercise shapes the fuzzer rarely hits
  // (non-distributive SGs, multi-state trigger regions).
  for (const auto& info : bench_suite::all_benchmarks()) {
    if (info.paper_states > 300) continue;  // keep the naive O(n^2) cheap
    check_graph(info.build(), info.name);
  }
}

}  // namespace
}  // namespace nshot
