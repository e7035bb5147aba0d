// Scalability bench: word-parallel kernels vs their ordered-container
// references on generated controllers 10-1000x larger than the Table 2
// suite.
//
// Table 2 tops out at 4729 states (tsbmsiBRK); the tiers here extend the
// same parallel-chains controller family (the shape of master-read /
// wrdatab) to ~524k states by default and ~2.1M behind --huge, where the
// ordered std::set / std::map reference kernels leave the cache and the
// word-parallel StateSet / bit-plane engines pull away.  Per tier, four
// kernels run through both paths:
//   * regions       — compute_all_regions (shared plane sweep + per-signal
//                     word-parallel floods) vs the test-only oracle
//                     sg::reference::compute_regions;
//   * coding        — check_csc / check_usc / count_csc_conflicts /
//                     detonant_states vs the sg::reference oracles;
//   * trigger       — enforce_trigger_requirement, supercube-containment
//                     membership vs the code-at-a-time oracle
//                     core::reference::enforce_trigger_requirement;
//   * reachability  — build_state_graph, the serial flat-arena sweep with
//                     consumer-indexed mask firing, vs the test-only
//                     oracle (loop firing over an ordered std::map).
// Every kernel is serial (the threaded regions and coding paths were
// measured no faster below ~524k states and deleted; DESIGN.md §12).
// Every case row records the host's hardware concurrency so the JSON is
// interpretable on any machine.
//
// Every pair is asserted byte-identical outside the timers; tiers up to
// 131k states compare full region renderings and structural SG
// fingerprints, larger tiers compare deterministically sampled slices
// (evenly spaced signals, evenly spaced 4096-state windows) because a full
// 524k-state rendering is a ~100MB string.  The run aborts on any
// divergence, and — except under --smoke — also aborts if the combined
// regions+coding+trigger speedup at the largest tier falls below 3x.
//
// `--smoke` keeps only the smallest tiers with one timing sample for CI
// sanity; the JSON records the flag so smoke numbers are never mistaken
// for measurements.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_timer.hpp"
#include "bench_suite/generators.hpp"
#include "exec/thread_pool.hpp"
#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "nshot/spec_derivation.hpp"
#include "nshot/trigger.hpp"
#include "obs/obs.hpp"
#include "oracles/reachability_reference.hpp"
#include "oracles/sg_reference.hpp"
#include "oracles/trigger_reference.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sg/state_graph.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace nshot;
using bench::MinTimer;

/// Above this state count the byte-identity assertions switch from full
/// renderings to sampled slices.
constexpr int kFullIdentityLimit = 200000;

/// A parallel-chains controller with `chains` three-signal chains: the
/// master input releases every chain, the chains run concurrently, and the
/// interleavings multiply — each extra chain scales the marking graph by
/// roughly the chain's state contribution (~4x).
std::string tier_g(int chains) {
  std::vector<std::vector<std::string>> chain_signals;
  std::vector<std::string> inputs, outputs;
  for (int i = 1; i <= chains; ++i) {
    const std::string n = std::to_string(i);
    chain_signals.push_back({"r" + n, "p" + n, "q" + n});
    inputs.push_back("r" + n);
    outputs.push_back("p" + n);
    outputs.push_back("q" + n);
  }
  return bench_suite::parallel_chains_g("chains-" + std::to_string(chains) + "x3", "m",
                                        /*master_is_input=*/true, chain_signals, inputs, outputs);
}

/// Structural fingerprint of the state slice [begin, end): codes, names
/// and out-edges in state order (same rendering per state as the full
/// fingerprint in tests/kernel_equivalence_test.cpp).
std::string sg_slice_fingerprint(const sg::StateGraph& g, sg::StateId begin, sg::StateId end) {
  std::string out;
  for (sg::StateId s = begin; s < end && s < g.num_states(); ++s) {
    out.append("\n").append(std::to_string(s)).append(":").append(g.state_name(s));
    out.append("=").append(std::to_string(g.code(s)));
    for (const sg::Edge& e : g.out_edges(s))
      out += " --" + g.label_name(e.label) + "--> " + std::to_string(e.target);
  }
  return out;
}

/// Full structural fingerprint: signal table + every state slice.
std::string sg_fingerprint(const sg::StateGraph& g) {
  std::string out = "init=" + std::to_string(g.initial()) + ";";
  for (int i = 0; i < g.num_signals(); ++i)
    out += g.signal(i).name + (g.is_input(i) ? "?" : "!") + ",";
  return out + sg_slice_fingerprint(g, 0, g.num_states());
}

/// Do two graphs agree? Full fingerprints below kFullIdentityLimit;
/// above, the signal tables, state counts, initial states and eight
/// evenly spaced 4096-state windows (first and last included).
bool sg_identical(const sg::StateGraph& a, const sg::StateGraph& b) {
  if (a.num_states() != b.num_states() || a.num_signals() != b.num_signals() ||
      a.initial() != b.initial())
    return false;
  if (a.num_states() <= kFullIdentityLimit) return sg_fingerprint(a) == sg_fingerprint(b);
  constexpr int kWindows = 8;
  constexpr sg::StateId kWindow = 4096;
  for (int w = 0; w < kWindows; ++w) {
    const sg::StateId begin = static_cast<sg::StateId>(
        (static_cast<long long>(a.num_states() - kWindow) * w) / (kWindows - 1));
    if (sg_slice_fingerprint(a, begin, begin + kWindow) !=
        sg_slice_fingerprint(b, begin, begin + kWindow))
      return false;
  }
  for (int i = 0; i < a.num_signals(); ++i)
    if (a.signal(i).name != b.signal(i).name || a.is_input(i) != b.is_input(i)) return false;
  return true;
}

std::string trigger_fingerprint(const sg::StateGraph& g, const core::TriggerReport& report) {
  std::string out = std::to_string(report.cubes_added);
  for (const core::TriggerIssue& issue : report.issues) out.append("|").append(issue.describe(g));
  return out;
}

struct TierTiming {
  std::string name;
  int states = 0, signals = 0;
  double regions_reference_ms = 0, regions_fast_ms = 0;
  double coding_reference_ms = 0, coding_fast_ms = 0;
  double trigger_reference_ms = 0, trigger_fast_ms = 0;
  double reachability_reference_ms = 0, reachability_fast_ms = 0;
  bool identical = false;
  bool sampled_identity = false;  // true above kFullIdentityLimit

  /// The acceptance ratio: the three SG-analysis kernels combined (the
  /// reachability kernel has its own ratio but a separate reference axis —
  /// marking maps — so it stays out of the headline number).
  double combined_speedup() const {
    const double fast = regions_fast_ms + coding_fast_ms + trigger_fast_ms;
    return fast > 0 ? (regions_reference_ms + coding_reference_ms + trigger_reference_ms) / fast
                    : 0;
  }
  double reachability_speedup() const {
    return reachability_fast_ms > 0 ? reachability_reference_ms / reachability_fast_ms : 0;
  }
};

TierTiming measure_tier(int chains, bool smoke) {
  const std::string g_text = tier_g(chains);
  const stg::Stg net = stg::parse_g(g_text);
  stg::ReachabilityOptions build_options;
  build_options.max_states = 1u << 22;  // chains-10x3 reaches ~2.1M states
  const sg::StateGraph g = stg::build_state_graph(net, build_options);

  TierTiming timing;
  timing.name = "chains-" + std::to_string(chains) + "x3";
  timing.states = g.num_states();
  timing.signals = g.num_signals();
  timing.sampled_identity = timing.states > kFullIdentityLimit;
  const std::vector<sg::SignalId> noninput = g.noninput_signals();
  // Deep min-of-N converges on the true floor on a noisy host, but the
  // reference sweeps at the large tiers run for seconds each; scale the
  // sample count down as the tier grows.
  const int reps = smoke                     ? 1
                   : timing.states > 1000000 ? 1
                   : timing.states > 100000  ? 2
                   : timing.states > 20000   ? 3
                                             : 5;

  // --- regions: ER extraction + quiescent closure + trigger SCCs ---------
  // The fast leg is the pipeline's production call: one shared plane sweep
  // for all signals, then the per-signal floods.
  std::size_t reference_regions = 0, fast_regions = 0;
  std::vector<sg::SignalRegions> fast_all_regions;
  MinTimer regions_ref_t, regions_fast_t;
  for (int r = 0; r < reps; ++r) {
    regions_ref_t.sample([&] {
      reference_regions = 0;
      for (const sg::SignalId a : noninput)
        reference_regions += sg::reference::compute_regions(g, a).regions.size();
    });
    regions_fast_t.sample([&] {
      fast_all_regions = sg::compute_all_regions(g);
      fast_regions = 0;
      for (const sg::SignalRegions& sr : fast_all_regions) fast_regions += sr.regions.size();
    });
  }
  timing.regions_reference_ms = regions_ref_t.best;
  timing.regions_fast_ms = regions_fast_t.best;

  bool identical = reference_regions == fast_regions;
  // Byte equality over the rendering, one signal at a time so the two
  // strings in flight stay bounded; above the full-identity limit a
  // deterministic sample of signals (first, last, every third) stands in
  // for the set — a full 524k-state rendering per signal is ~100MB.
  for (std::size_t k = 0; k < noninput.size(); ++k) {
    if (timing.sampled_identity && k % 3 != 0 && k + 1 != noninput.size()) continue;
    identical = identical && sg::reference::compute_regions(g, noninput[k]).to_string(g) ==
                                 fast_all_regions[k].to_string(g);
  }

  // --- coding: CSC / USC / conflict counting / detonant states -----------
  std::size_t reference_coding = 0, fast_coding = 0;
  MinTimer coding_ref_t, coding_fast_t;
  for (int r = 0; r < reps; ++r) {
    coding_ref_t.sample([&] {
      reference_coding = sg::reference::check_csc(g).violations.size() +
                         sg::reference::check_usc(g).violations.size() +
                         sg::reference::count_csc_conflicts(g);
      for (const sg::SignalId a : noninput)
        reference_coding += sg::reference::detonant_states(g, a).size();
    });
    coding_fast_t.sample([&] {
      fast_coding = sg::check_csc(g).violations.size() + sg::check_usc(g).violations.size() +
                    sg::count_csc_conflicts(g);
      for (const std::vector<sg::StateId>& det : sg::all_detonant_states(g))
        fast_coding += det.size();
    });
  }
  timing.coding_reference_ms = coding_ref_t.best;
  timing.coding_fast_ms = coding_fast_t.best;

  identical = identical && reference_coding == fast_coding &&
              sg::reference::check_csc(g).summary() == sg::check_csc(g).summary() &&
              sg::reference::check_usc(g).summary() == sg::check_usc(g).summary();
  const std::vector<std::vector<sg::StateId>> fast_detonant = sg::all_detonant_states(g);
  for (std::size_t k = 0; k < noninput.size(); ++k)
    identical = identical && sg::reference::detonant_states(g, noninput[k]) == fast_detonant[k];

  // --- trigger: cube membership over all trigger regions ------------------
  // The cover under test is the monotonous ER-supercube cover: one cube per
  // excitation region, which covers every trigger region (TR subset of ER),
  // so both membership kernels scan the whole cover without mutating it.
  // The spec part of DerivedSpec is only consulted when a repair is
  // attempted, so an empty spec with the standard output mapping suffices
  // — full derive_spec at 524k states x 28 signals would add minutes of
  // setup for bytes the kernel never reads.
  const std::vector<sg::SignalRegions>& regions = fast_all_regions;
  core::DerivedSpec derived{
      logic::TwoLevelSpec(g.num_signals(), 2 * static_cast<int>(noninput.size())), {}};
  for (std::size_t k = 0; k < noninput.size(); ++k)
    derived.outputs.push_back({noninput[k], 2 * static_cast<int>(k), 2 * static_cast<int>(k) + 1});
  logic::Cover base_cover(g.num_signals(), derived.spec.num_outputs());
  for (const sg::SignalRegions& sr : regions) {
    const core::OutputIndex& index = derived.for_signal(sr.signal);
    for (const sg::ExcitationRegion& er : sr.regions) {
      logic::Cube cube = logic::Cube::minterm(g.code(er.states.front()), g.num_signals(), 0);
      for (std::size_t i = 1; i < er.states.size(); ++i)
        cube = cube.supercube(logic::Cube::minterm(g.code(er.states[i]), g.num_signals(), 0));
      cube.set_outputs(1ULL << (er.rising ? index.set_output : index.reset_output));
      base_cover.add(cube);
    }
  }

  logic::Cover reference_cover = base_cover, fast_cover = base_cover;
  core::TriggerReport reference_report, fast_report;
  const int trigger_repeats = smoke ? 1 : 50;
  MinTimer trigger_ref_t, trigger_fast_t;
  for (int r = 0; r < reps; ++r) {
    trigger_ref_t.sample([&] {
      for (int i = 0; i < trigger_repeats; ++i)
        reference_report =
            core::reference::enforce_trigger_requirement(g, regions, derived, reference_cover);
    });
    trigger_fast_t.sample([&] {
      for (int i = 0; i < trigger_repeats; ++i)
        fast_report = core::enforce_trigger_requirement(g, regions, derived, fast_cover);
    });
  }
  timing.trigger_reference_ms = trigger_ref_t.best;
  timing.trigger_fast_ms = trigger_fast_t.best;

  identical = identical &&
              trigger_fingerprint(g, reference_report) == trigger_fingerprint(g, fast_report) &&
              reference_cover.to_string() == fast_cover.to_string() &&
              reference_cover.to_string() == base_cover.to_string();

  // --- reachability: marking-graph construction from the STG --------------
  int reference_states = 0, fast_states = 0;
  MinTimer reach_ref_t, reach_fast_t;
  for (int r = 0; r < reps; ++r) {
    reach_ref_t.sample([&] {
      reference_states = stg::reference::build_state_graph(net, build_options).num_states();
    });
    reach_fast_t.sample(
        [&] { fast_states = stg::build_state_graph(net, build_options).num_states(); });
  }
  timing.reachability_reference_ms = reach_ref_t.best;
  timing.reachability_fast_ms = reach_fast_t.best;

  const sg::StateGraph reference_g = stg::reference::build_state_graph(net, build_options);
  identical = identical && reference_states == fast_states && sg_identical(reference_g, g);

  timing.identical = identical;
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool huge = false;
  int only_tier = 0;
  const char* out_path = "BENCH_scale.json";
  const char* usage =
      "usage: bench_scale [--smoke] [--huge] [--tier 1-10] [OUT.json]\n";
  bool have_out = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--help" || arg == "-h") {
        std::printf("%s", usage);
        return 0;
      }
      if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--huge") {
        huge = true;
      } else if (arg == "--tier" && has_value) {
        only_tier = parse_int(argv[++i], 1, 10, "--tier");
      } else if (arg.empty() || arg[0] == '-' || have_out) {
        throw Error("unexpected argument '" + arg + "'");
      } else {
        out_path = argv[i];
        have_out = true;
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), usage);
    return 2;
  }

  const int hardware = exec::hardware_jobs();
  // 5..9 chains of 3 signals: ~2k, ~8k, ~33k, ~131k, ~524k states — the
  // default largest tier is ~111x the largest Table 2 circuit; --huge adds
  // chains-10x3 (~2.1M states), mostly as a bounded-memory soak of the
  // reachability marking map.  --tier N measures exactly one tier — CI
  // combines it with --smoke to touch the half-million-state tier without
  // paying for the full ladder.
  std::vector<int> tiers = smoke ? std::vector<int>{5, 6} : std::vector<int>{5, 6, 7, 8, 9};
  if (huge && !smoke) tiers.push_back(10);
  if (only_tier > 0) tiers = {only_tier};

  std::printf("Scale bench: word-parallel kernels vs ordered references (host hw %d)%s\n\n",
              hardware, smoke ? " (smoke)" : "");
  std::printf("%-12s %8s %8s  %19s %19s %19s %19s %8s\n", "tier", "states", "signals",
              "regions ref/fast", "coding ref/fast", "trigger ref/fast", "reach ref/fast",
              "combined");

  bool all_identical = true;
  std::vector<TierTiming> timings;
  for (const int chains : tiers) {
    const TierTiming t = measure_tier(chains, smoke);
    NSHOT_REQUIRE(t.identical, "fast kernels diverged from reference on " + t.name);
    all_identical &= t.identical;
    std::printf("%-12s %8d %8d  %8.1f/%8.1fms %8.1f/%8.1fms %8.1f/%8.1fms %8.1f/%8.1fms %7.2fx\n",
                t.name.c_str(), t.states, t.signals, t.regions_reference_ms, t.regions_fast_ms,
                t.coding_reference_ms, t.coding_fast_ms, t.trigger_reference_ms, t.trigger_fast_ms,
                t.reachability_reference_ms, t.reachability_fast_ms, t.combined_speedup());
    timings.push_back(t);
  }

  // One single-shot analysis of the largest tier under an obs::Session —
  // parse → reachability → implementability → regions, each exactly once
  // (the timed loops above repeat kernels, which would turn pass totals
  // into rep-count artifacts) — so BENCH_scale.json carries a per-pass
  // wall-time breakdown at scale.
  std::string passes_fragment;
  {
    obs::Session session("bench_scale", "chains-" + std::to_string(tiers.back()) + "x3");
    const stg::Stg net = stg::parse_g(tier_g(tiers.back()));
    stg::ReachabilityOptions scale_options;
    scale_options.max_states = 1u << 22;
    const sg::StateGraph scale_g = stg::build_state_graph(net, scale_options);
    sg::check_implementability(scale_g);
    sg::compute_all_regions(scale_g);
    passes_fragment = obs::passes_json_fragment(session.report());
  }

  const TierTiming& largest = timings.back();
  std::printf(
      "\nlargest tier (%s, %d states): combined regions+coding+trigger %.2fx, "
      "reachability %.2fx\n",
      largest.name.c_str(), largest.states, largest.combined_speedup(),
      largest.reachability_speedup());
  // The acceptance floor this PR claims; smoke runs take one unwarmed
  // sample of shrunk workloads, which is a sanity check, not a measurement.
  if (!smoke)
    NSHOT_REQUIRE(largest.combined_speedup() >= 3.0,
                  "combined kernel speedup fell below the 3x floor at " + largest.name);

  std::ostringstream json;
  json << "{\n  \"hardware_jobs\": " << hardware << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"byte_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"largest_tier_combined_speedup\": " << largest.combined_speedup()
       << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const TierTiming& t = timings[i];
    json << "    {\"name\": \"" << t.name << "\", \"states\": " << t.states
         << ", \"signals\": " << t.signals << ", \"hardware_concurrency\": " << hardware
         << ", \"identity\": \"" << (t.sampled_identity ? "sampled" : "full") << "\""
         << ", \"regions_reference_ms\": " << t.regions_reference_ms
         << ", \"regions_fast_ms\": " << t.regions_fast_ms
         << ", \"coding_reference_ms\": " << t.coding_reference_ms
         << ", \"coding_fast_ms\": " << t.coding_fast_ms
         << ", \"trigger_reference_ms\": " << t.trigger_reference_ms
         << ", \"trigger_fast_ms\": " << t.trigger_fast_ms
         << ", \"reachability_reference_ms\": " << t.reachability_reference_ms
         << ", \"reachability_fast_ms\": " << t.reachability_fast_ms
         << ", \"reachability_speedup\": " << t.reachability_speedup()
         << ", \"combined_speedup\": " << t.combined_speedup() << "}"
         << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"observability\": {\"tier\": \"chains-" << tiers.back() << "x3\", "
       << passes_fragment << "}\n}\n";
  std::ofstream(out_path) << json.str();
  std::printf("wrote %s\n", out_path);
  return 0;
}
