#include "oracles/adversarial_reference.hpp"

#include <vector>

#include "gatelib/gate_library.hpp"
#include "sim/delay_space.hpp"
#include "sim/trial_runner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::faults::reference {
namespace {

/// Per-gate [lo, hi] bounds and the movable gates, as production builds
/// them: stretched library intervals for simple gates, delay lines in
/// [0, installed] only when shaving.
struct Box {
  std::vector<double> lo, hi;
  std::vector<netlist::GateId> movable;
};

Box make_box(const netlist::Netlist& circuit, const sim::DelaySpace& space,
             const AdversarialOptions& options) {
  NSHOT_REQUIRE(options.stress_factor >= 1.0, "stress factor must be >= 1");
  Box box;
  for (netlist::GateId g = 0; g < circuit.num_gates(); ++g) {
    box.lo.push_back(space.stressed_lo(g, options.stress_factor));
    box.hi.push_back(space.stressed_hi(g, options.stress_factor));
    if (!space.fixed(g)) {
      box.movable.push_back(g);
    } else if (options.shave_delay_lines &&
               circuit.gate(g).type == gatelib::GateType::kDelayLine) {
      box.lo.back() = 0.0;
      box.movable.push_back(g);
    }
  }
  return box;
}

struct Point {
  double score = kNoMargin;
  ProbedRun run;
};

struct Restart {
  double best_score = kNoMargin;
  AdversarialResult best;  // evaluations unused here
  long evaluations = 0;
};

Restart climb(const sg::StateGraph& spec, const sim::SpecBinding& binding,
              const sim::CompiledNetlist& compiled, const Box& box,
              const AdversarialOptions& options, int restart) {
  const std::uint64_t env_seed = run_seed(options.seed, restart);
  Rng rng(env_seed ^ 0xadce5a17ULL);
  sim::TrialRunner runner(compiled);
  MarginProbe probe(compiled.netlist(), compiled.lib());
  auto trial = [&](const std::vector<double>& delays) {
    FaultScenario scenario;
    scenario.seed = env_seed;
    scenario.delays = delays;
    Point point;
    point.run = run_probed(spec, binding, scenario, options.run, runner, &probe);
    point.score = point.run.report.violations.empty() ? point.run.min_slack : -kNoMargin;
    return point;
  };

  Restart out;
  out.best.env_seed = env_seed;
  auto take_best = [&](const std::vector<double>& delays, const Point& p) {
    if (p.score < out.best_score || out.best.delays.empty()) {
      out.best_score = p.score;
      out.best.best_slack = p.run.min_slack;
      out.best.delays = delays;
      out.best.report = p.run.report;
      out.best.violation_found = !p.run.report.violations.empty();
    }
  };

  std::vector<double> current = compiled.delay_space().nominal_vector();
  for (const netlist::GateId g : box.movable) {
    const std::size_t i = static_cast<std::size_t>(g);
    current[i] = box.lo[i] >= box.hi[i] ? box.lo[i] : rng.next_double(box.lo[i], box.hi[i]);
  }
  const Point first = trial(current);
  ++out.evaluations;
  double current_score = first.score;
  take_best(current, first);

  for (int it = 0; it < options.iterations && !out.best.violation_found; ++it) {
    if (box.movable.empty()) break;
    std::vector<double> candidate = current;
    const std::size_t i = static_cast<std::size_t>(box.movable[rng.next_below(box.movable.size())]);
    if (rng.next_bool(0.6))
      candidate[i] = rng.next_bool() ? box.hi[i] : box.lo[i];
    else if (box.lo[i] < box.hi[i])
      candidate[i] = rng.next_double(box.lo[i], box.hi[i]);
    const Point step = trial(candidate);
    ++out.evaluations;
    if (step.score <= current_score) {
      current = std::move(candidate);
      current_score = step.score;
      take_best(current, step);
    }
  }
  return out;
}

}  // namespace

AdversarialResult adversarial_delay_search(const sg::StateGraph& spec,
                                           const netlist::Netlist& circuit,
                                           const AdversarialOptions& options) {
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(spec, circuit);
  const Box box = make_box(circuit, compiled.delay_space(), options);

  AdversarialResult result;
  double best_score = kNoMargin;
  for (int r = 0; r < options.restarts; ++r) {
    Restart out = climb(spec, binding, compiled, box, options, r);
    result.evaluations += out.evaluations;
    if (out.best_score < best_score || result.delays.empty()) {
      best_score = out.best_score;
      const long evaluations = result.evaluations;
      result = std::move(out.best);
      result.evaluations = evaluations;
    }
    if (result.violation_found) break;
  }
  return result;
}

}  // namespace nshot::faults::reference
