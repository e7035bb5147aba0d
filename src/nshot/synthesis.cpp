#include "nshot/synthesis.hpp"

#include <sstream>

#include "exec/memo_cache.hpp"
#include "exec/cancel.hpp"
#include "gatelib/gate_library.hpp"
#include "logic/exact.hpp"
#include "logic/verify.hpp"
#include "obs/obs.hpp"
#include "sg/properties.hpp"

namespace nshot::core {

namespace {

/// Canonical cache key of a minimization subproblem: the full (F, D, R)
/// spec (derive_spec normalizes the minterm lists, so equal subproblems
/// serialize equally) plus every knob that changes the minimizer's output.
std::string minimization_key(const logic::TwoLevelSpec& spec, const SynthesisOptions& options) {
  std::ostringstream key;
  key << (options.exact ? "exact" : "heur") << '/' << options.share_products << '/'
      << options.espresso.max_iterations << '/' << options.espresso.share_outputs << ';'
      << spec.num_inputs() << 'x' << spec.num_outputs();
  for (int o = 0; o < spec.num_outputs(); ++o) {
    key << "|F";
    for (const std::uint64_t code : spec.on(o)) key << ' ' << code;
    key << "|R";
    for (const std::uint64_t code : spec.off(o)) key << ' ' << code;
  }
  return key.str();
}

logic::Cover minimize_spec(const logic::TwoLevelSpec& spec, const SynthesisOptions& options) {
  logic::EspressoOptions espresso_options = options.espresso;
  espresso_options.share_outputs = options.share_products;
  logic::ExactOptions exact_options;
  exact_options.jobs = options.jobs;
  return options.exact ? logic::exact_minimize(spec, exact_options)
                       : logic::espresso(spec, espresso_options);
}

/// The process-wide (F, D, R) minimization memo.  Function-scoped static
/// so construction is lazy and thread-safe; shared by every Pipeline in
/// the process, which is what makes repeated serve requests for the same
/// controller warm.
exec::MemoCache<logic::Cover>& minimization_cache() {
  static exec::MemoCache<logic::Cover> cache;
  return cache;
}

logic::Cover minimize_cached(const logic::TwoLevelSpec& spec, const SynthesisOptions& options) {
  if (!options.memoize_minimization) return minimize_spec(spec, options);
  return minimization_cache().get_or_compute(minimization_key(spec, options),
                                             [&] { return minimize_spec(spec, options); });
}

}  // namespace

MinimizationCacheStats minimization_cache_stats() {
  const auto stats = minimization_cache().stats();
  return {stats.hits, stats.misses, stats.entries};
}

SynthesisResult synthesize(const sg::StateGraph& sg, const SynthesisOptions& options) {
  const obs::Span synth_span("synthesize");

  // 1. Theorem 2 preconditions.
  const sg::PropertyReport implementability = sg::check_implementability(sg);
  if (!implementability.ok())
    throw SynthesisError("state graph " + sg.name() + " is not implementable: " +
                         implementability.summary());

  // 2. Joint set/reset specification.
  DerivedSpec derived = derive_spec(sg);

  // 3. Conventional two-level minimization — no hazard constraints at all.
  // Memoized across synthesize() calls: the subproblem is a pure function
  // of the (F, D, R) spec and the minimizer knobs.
  logic::Cover cover = [&] {
    const obs::Span span("minimize");
    return minimize_cached(derived.spec, options);
  }();

  // 4. Independent oracle.
  const logic::VerifyResult verified = [&] {
    const obs::Span span("verify_cover");
    return logic::verify_cover(derived.spec, cover);
  }();
  NSHOT_ASSERT(verified.ok, "minimizer produced an incorrect cover: " + verified.message);

  // 5. Trigger requirement (Theorem 1).
  const std::vector<sg::SignalRegions> regions = sg::compute_all_regions(sg);
  TriggerReport trigger = enforce_trigger_requirement(sg, regions, derived, cover);
  if (!trigger.satisfied()) {
    std::string message = "trigger requirement violated for " + sg.name() + ":";
    for (const TriggerIssue& issue : trigger.issues)
      if (!issue.repaired) message += "\n  " + issue.describe(sg);
    throw SynthesisError(message);
  }

  // 6. Delay requirement (Eq. 1) per signal, in signal order.  The whole
  // pass takes tens of microseconds on Table 2 circuits, so the loop is
  // serial; a fired deadline stops it between signals.
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  std::vector<SignalImplementation> signals;
  {
    const obs::Span analysis_span("signal_analysis");
    for (std::size_t i = 0; i < derived.outputs.size(); ++i) {
      exec::checkpoint();
      const obs::Span span("signal", static_cast<long>(i));
      const OutputIndex& index = derived.outputs[i];
      SignalImplementation& impl = signals.emplace_back();
      impl.signal = index.signal;
      impl.set_cubes = cover.cube_count_for_output(index.set_output);
      impl.reset_cubes = cover.cube_count_for_output(index.reset_output);
      impl.delay = compute_delay_requirement(sop_levels(cover, index.set_output, lib),
                                             sop_levels(cover, index.reset_output, lib), lib);
      impl.init = analyze_initialization(sg, index.signal, cover, index);
    }
  }
  std::vector<DelayRequirement> delays;
  for (const SignalImplementation& impl : signals) delays.push_back(impl.delay);

  // 7. Architecture mapping.
  ArchitectureOptions arch;
  arch.insert_delay_lines = options.insert_delay_lines;
  netlist::Netlist circuit = [&] {
    const obs::Span span("architecture");
    return build_nshot_netlist(sg, derived, cover, delays, arch);
  }();

  SynthesisResult result{std::move(circuit), std::move(cover), std::move(derived),
                         std::move(signals), std::move(trigger),
                         {},    // stats, filled below
                         true,  // single_traversal, refined below
                         false};
  result.stats = result.circuit.stats(lib);
  // Section IV-F: flip-flops whose initial value is not produced by an
  // excited SOP need an explicit reset product term inside the master RS
  // latch; charge one small AND term each (the netlist itself models
  // initialization behaviourally, so this is an area-only adjustment).
  for (const SignalImplementation& impl : result.signals)
    if (impl.init.explicit_reset) result.stats.area += lib.area(gatelib::GateType::kAnd, 1);
  for (const sg::SignalRegions& signal_regions : regions)
    for (const sg::ExcitationRegion& er : signal_regions.regions)
      if (!er.single_traversal()) result.single_traversal = false;
  for (const SignalImplementation& impl : result.signals)
    if (options.insert_delay_lines && impl.delay.compensation_needed())
      result.delay_compensation_used = true;
  return result;
}

std::string describe(const sg::StateGraph& sg, const SynthesisResult& result) {
  std::ostringstream out;
  out << "N-SHOT synthesis of " << sg.name() << "\n";
  out << "  states: " << sg.num_states() << ", signals: " << sg.num_signals() << " ("
      << sg.noninput_signals().size() << " non-input)\n";
  out << "  single traversal: " << (result.single_traversal ? "yes" : "no")
      << ", trigger cubes added: " << result.trigger.cubes_added << "\n";
  out << "  joint cover: " << result.cover.size() << " product terms, "
      << result.cover.literal_count() << " literals\n";
  for (const SignalImplementation& impl : result.signals) {
    const std::string& name = sg.signal(impl.signal).name;
    out << "  signal " << name << ": set " << impl.set_cubes << " cube(s), reset "
        << impl.reset_cubes << " cube(s), t_del = " << impl.delay.t_del
        << (impl.delay.compensation_needed() ? " (delay line inserted)" : " (no compensation)")
        << ", init " << (impl.init.value ? "1" : "0")
        << (impl.init.explicit_reset ? " (explicit reset term)" : " (automatic)") << "\n";
  }
  out << "  area: " << result.stats.area << ", delay: " << result.stats.delay
      << ", gates: " << result.stats.gate_count << "\n";
  return out.str();
}

}  // namespace nshot::core
