// The traced per-layer decomposition of one request.
//
// decompose() replays what Pipeline::submit does for a request, but calls
// each layer's public function itself, in pipeline order, with a benchmark
// span around every call:
//
//   stg.load             build_benchmark | parse_g + build_state_graph
//   sg.implementability  check_implementability (Theorem 2 preconditions)
//   nshot.derive_spec    derive_spec (the joint (F, D, R) spec)
//   exec.memo            the minimization memo lookup (when memoizing)
//   logic.espresso       espresso, only on a memo miss
//   logic.verify         verify_cover
//   sg.regions           compute_all_regions
//   nshot.trigger        enforce_trigger_requirement (Theorem 1 repair)
//   nshot.signal_analysis  Eq. 1 + flip-flop initialization per signal
//   nshot.architecture   build_nshot_netlist + area/delay stats
//   sim.conformance      check_conformance
//   faults.stress        run_stress
//
// and renders the same Response payload, so the caller can check that the
// decomposition reproduces Pipeline::submit byte for byte.  Spans live in
// memory (Tracer) and are written out once, when the benchmark ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logic/cover.hpp"
#include "nshot/pipeline.hpp"

namespace perfbench {

struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1: a request root
  long request = -1;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span store.  Single-threaded: the traced pass is serial.
class Tracer {
 public:
  /// One span for the scope's lifetime; a no-op when `tracer` is null.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  /// Spans opened from now on belong to `request`.
  void begin_request(long request);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per-name self time (duration minus the time covered by child spans).
  std::map<std::string, double> self_ms() const;
  /// Per-request summed duration of the request root's direct children.
  std::map<long, double> attributed_ms() const;

  /// Chrome trace-event JSON ("X" events; args carry id/parent/request).
  std::string to_json() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  long request_ = -1;
};

/// Counts of the work the layers did, summed over decomposed requests.
struct LayerCounts {
  long states = 0;               // stg: SG states built
  long unimplementable = 0;      // sg: rejected by check_implementability
  long spec_minterms = 0;        // logic: explicit on + off minterms
  long cover_cubes = 0;          // logic: cubes of the minimizer's cover
  long cover_literals = 0;       // logic: literals of the minimizer's cover
  long trigger_cubes_added = 0;  // nshot: Theorem 1 repair cubes
  long sim_events = 0;           // sim: external transitions + internal toggles
  long fault_configs = 0;        // faults: fault battery entries evaluated
};

/// Covers keyed by the serialized (F, D, R) spec, standing in for the
/// process-wide minimization memo the library keeps private.
using CoverMemo = std::map<std::string, nshot::logic::Cover>;

/// Run `request` layer by layer under `base` (the server's base options).
/// `memo` is consulted when base.synthesis.memoize_minimization is set.
/// Returns Response::payload_json() of the reproduced response.
std::string decompose(const nshot::Request& request, const nshot::PipelineOptions& base,
                      Tracer* tracer, CoverMemo& memo, LayerCounts& counts);

}  // namespace perfbench
