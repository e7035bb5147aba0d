#include "faults/adversarial.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/delay_space.hpp"
#include "sim/trial_runner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::faults {

namespace {

/// The concrete search box: per-gate [lo, hi] bounds plus the list of
/// gates the search may move.  Simple gates get the library interval
/// stretched by the stress factor; delay lines join the box only when
/// shaving is enabled (bounds [0, installed delay] — under-compensation
/// only, a longer line never hurts Eq. 1).
struct SearchSpace {
  std::vector<double> lo, hi;
  std::vector<netlist::GateId> movable;
};

SearchSpace make_space(const netlist::Netlist& circuit, const sim::DelaySpace& space,
                       const AdversarialOptions& options) {
  NSHOT_REQUIRE(options.stress_factor >= 1.0, "stress factor must be >= 1");
  SearchSpace box;
  const std::size_t n = static_cast<std::size_t>(circuit.num_gates());
  box.lo.resize(n);
  box.hi.resize(n);
  for (netlist::GateId g = 0; g < circuit.num_gates(); ++g) {
    const std::size_t i = static_cast<std::size_t>(g);
    box.lo[i] = space.stressed_lo(g, options.stress_factor);
    box.hi[i] = space.stressed_hi(g, options.stress_factor);
    if (!space.fixed(g)) {
      box.movable.push_back(g);
    } else if (options.shave_delay_lines &&
               circuit.gate(g).type == gatelib::GateType::kDelayLine) {
      box.lo[i] = 0.0;
      box.movable.push_back(g);
    }
  }
  return box;
}

std::vector<double> sample_uniform(const SearchSpace& box, const sim::DelaySpace& space,
                                   Rng& rng) {
  std::vector<double> delays = space.nominal_vector();
  for (const netlist::GateId g : box.movable) {
    const std::size_t i = static_cast<std::size_t>(g);
    delays[i] = box.lo[i] >= box.hi[i] ? box.lo[i] : rng.next_double(box.lo[i], box.hi[i]);
  }
  return delays;
}

struct Evaluation {
  double score = kNoMargin;  // min slack; -inf when the run violated
  ProbedRun run;
};

/// One objective evaluation: the probed run of `delays` under `env_seed`
/// on `runner`, reusing `probe`.
Evaluation evaluate(const sg::StateGraph& spec, const sim::SpecBinding& binding,
                    sim::TrialRunner& runner, MarginProbe& probe,
                    const std::vector<double>& delays, std::uint64_t env_seed,
                    const ScenarioOptions& options) {
  FaultScenario scenario;
  scenario.seed = env_seed;
  scenario.delays = delays;
  Evaluation eval;
  eval.run = run_probed(spec, binding, scenario, options, runner, &probe);
  eval.score = eval.run.report.violations.empty() ? eval.run.min_slack : -kNoMargin;
  return eval;
}

/// Bit-exact hashing and equality of delay vectors: two vectors name the
/// same trial iff every delay has the same bit pattern (floating-point ==
/// would merge -0.0 with 0.0, which the memo has no need to reason about).
std::uint64_t delay_bits(double d) { return std::bit_cast<std::uint64_t>(d); }

struct DelayBitsHash {
  std::size_t operator()(const std::vector<double>& delays) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double d : delays) {
      h = (h ^ delay_bits(d)) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

struct DelayBitsEqual {
  bool operator()(const std::vector<double>& a, const std::vector<double>& b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) { return delay_bits(x) == delay_bits(y); });
  }
};

/// The best point one hill-climb restart found, plus its cost.  Restarts
/// are fully independent — each derives its environment stream and climb
/// RNG from (seed, restart) alone — so they can run on any thread.
struct RestartOutcome {
  double best_score = kNoMargin;
  double best_slack = kNoMargin;
  std::vector<double> delays;
  std::uint64_t env_seed = 0;
  sim::ConformanceReport report;
  bool violation_found = false;
  long evaluations = 0;  // proposals, trial-backed or not
  long skipped = 0;      // proposals answered without a trial
};

RestartOutcome climb_restart(const sg::StateGraph& spec, const SearchSpace& box,
                             const sim::DelaySpace& space,
                             const AdversarialOptions& options, int restart,
                             const sim::SpecBinding& binding,
                             const sim::CompiledNetlist& compiled) {
  // One environment stream per restart keeps the objective deterministic
  // in the delay vector, so accepted steps are genuine descents.
  const std::uint64_t env_seed = run_seed(options.seed, restart);
  Rng rng(env_seed ^ 0xadce5a17ULL);
  sim::TrialRunner runner(compiled);
  MarginProbe probe(compiled.netlist(), compiled.lib());

  RestartOutcome out;
  out.env_seed = env_seed;

  std::vector<double> current = sample_uniform(box, space, rng);
  Evaluation eval = evaluate(spec, binding, runner, probe, current, env_seed, options.run);
  ++out.evaluations;
  double current_score = eval.score;
  auto take_best = [&](const std::vector<double>& delays, const Evaluation& e) {
    if (e.score < out.best_score || out.delays.empty()) {
      out.best_score = e.score;
      out.best_slack = e.run.min_slack;
      out.delays = delays;
      out.report = e.run.report;
      out.violation_found = !e.run.report.violations.empty();
    }
  };
  take_best(current, eval);

  // Exact proposal memo: the score of every vector this restart has run.
  // The objective is a pure function of the vector within a restart, and
  // a stored score is all a revisit needs: current_score never rises and
  // always equals the restart's best, so a vector first scored s >= the
  // then-current score can now at most be accepted sideways, which never
  // reaches take_best's strict-improvement branch.  Proposals are still
  // counted in `evaluations`, so the result does not change.
  std::unordered_map<std::vector<double>, double, DelayBitsHash, DelayBitsEqual> scored_at;
  scored_at.emplace(current, current_score);

  for (int it = 0; it < options.iterations && !out.violation_found; ++it) {
    exec::checkpoint();
    if (box.movable.empty()) break;
    std::vector<double> candidate = current;
    const netlist::GateId g = box.movable[rng.next_below(box.movable.size())];
    const std::size_t i = static_cast<std::size_t>(g);
    if (rng.next_bool(0.6)) {
      // Corner snap: extreme delays expose the cliffs far more often
      // than interior points do.
      candidate[i] = rng.next_bool() ? box.hi[i] : box.lo[i];
    } else if (box.lo[i] < box.hi[i]) {
      candidate[i] = rng.next_double(box.lo[i], box.hi[i]);
    }
    ++out.evaluations;
    // A no-op proposal (the snap landed on the corner the gate already
    // holds) is a sideways move onto the current point itself.
    if (delay_bits(candidate[i]) == delay_bits(current[i])) {
      ++out.skipped;
      continue;
    }
    if (const auto seen = scored_at.find(candidate); seen != scored_at.end()) {
      ++out.skipped;
      NSHOT_ASSERT(!(seen->second < current_score), "adversarial memo: score below current");
      if (seen->second <= current_score) current = std::move(candidate);
      continue;
    }
    Evaluation step = evaluate(spec, binding, runner, probe, candidate, env_seed, options.run);
    scored_at.emplace(candidate, step.score);
    if (step.score <= current_score) {  // accept sideways moves too
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
  const obs::Span span("adversarial");
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(spec, circuit);
  const sim::DelaySpace& space = compiled.delay_space();
  const SearchSpace box = make_space(circuit, space, options);

  std::vector<RestartOutcome> restarts = exec::parallel_map<RestartOutcome>(
      options.restarts,
      [&](int r) { return climb_restart(spec, box, space, options, r, binding, compiled); },
      options.jobs);

  // Merge in restart order, reproducing the serial sweep exactly: a strict
  // improvement replaces the incumbent (first restart wins ties) and
  // restarts after the first violating one are discarded — the serial loop
  // would never have run them, so neither their best point nor their
  // evaluation count may leak into the result.
  AdversarialResult result;
  double best_score = kNoMargin;
  for (RestartOutcome& out : restarts) {
    result.evaluations += out.evaluations;
    if (out.best_score < best_score || result.delays.empty()) {
      best_score = out.best_score;
      result.best_slack = out.best_slack;
      result.delays = std::move(out.delays);
      result.env_seed = out.env_seed;
      result.report = std::move(out.report);
      result.violation_found = out.violation_found;
    }
    if (result.violation_found) break;
  }
  // All restarts' evaluations, not just the merged ones: the counters
  // reflect work actually done, so they are nondeterministic across jobs
  // (parallel restarts past a violation still ran).
  for (const RestartOutcome& out : restarts) {
    obs::count(obs::Counter::kAdversarialEvaluations, out.evaluations);
    obs::count(obs::Counter::kAdversarialSkipped, out.skipped);
  }
  return result;
}

MonteCarloResult stressed_monte_carlo(const sg::StateGraph& spec,
                                      const netlist::Netlist& circuit, int runs,
                                      const AdversarialOptions& options) {
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(spec, circuit);
  const sim::DelaySpace& space = compiled.delay_space();
  const SearchSpace box = make_space(circuit, space, options);

  struct Trial {
    bool violated = false;
    double min_slack = kNoMargin;
  };
  std::vector<Trial> trials(static_cast<std::size_t>(std::max(runs, 0)));
  exec::parallel_for_chunks(
      runs, exec::batch_grain(runs, options.jobs),
      [&](int begin, int end) {
        sim::TrialRunner runner(compiled);
        MarginProbe probe(circuit, compiled.lib());
        for (int r = begin; r < end; ++r) {
          const std::uint64_t seed = run_seed(options.seed, r);
          Rng rng(seed);
          const Evaluation eval = evaluate(spec, binding, runner, probe,
                                           sample_uniform(box, space, rng), seed, options.run);
          trials[static_cast<std::size_t>(r)] =
              Trial{!eval.run.report.violations.empty(), eval.run.min_slack};
        }
      },
      options.jobs);

  MonteCarloResult result;
  result.runs = runs;
  for (const Trial& trial : trials) {
    if (trial.violated) ++result.violating_runs;
    result.min_slack = std::min(result.min_slack, trial.min_slack);
  }
  return result;
}

}  // namespace nshot::faults
