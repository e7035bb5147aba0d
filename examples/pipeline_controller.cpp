// Parametric pipeline/broadcast controller demo: generate an N-way
// controller STG of configurable width (the shape of the paper's large
// bus benchmarks), run it through the nshot::Pipeline facade —
// synthesis plus closed-loop stress in one call — and report the
// internal-vs-external hazard activity that motivates the architecture.
//
//   pipeline_controller [width] [chain_length] [runs]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "nshot/pipeline.hpp"
#include "sg/properties.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace nshot;
  const int width = argc > 1 ? parse_int(argv[1], 1, 64, "width") : 4;
  const int chain_length = argc > 2 ? parse_int(argv[2], 1, 64, "chain_length") : 2;
  const int runs = argc > 3 ? parse_int(argv[3], 0, 1'000'000, "runs") : 16;

  // Build: master input m releases `width` chains of `chain_length`
  // signals each; the first chain signal is an input (a request), the
  // rest are outputs (grant/done stages).
  std::vector<std::vector<std::string>> chains;
  std::vector<std::string> inputs, outputs;
  for (int c = 0; c < width; ++c) {
    std::vector<std::string> chain;
    for (int k = 0; k < chain_length; ++k) {
      const std::string name = std::string(1, static_cast<char>('a' + c)).append(std::to_string(k));
      chain.push_back(name);
      (k == 0 ? inputs : outputs).push_back(name);
    }
    chains.push_back(std::move(chain));
  }
  const std::string g_text = bench_suite::parallel_chains_g(
      "pipeline", "m", /*master_is_input=*/true, chains, inputs, outputs);

  // The facade parses the .g text, builds the reachability state graph,
  // synthesizes and stress-verifies it in one call.
  PipelineOptions options;
  options.conformance.runs = runs;
  options.conformance.max_transitions = 60 * width;
  Pipeline pipeline(std::move(options));

  // The unified request surface: inline .g text plus the request id that
  // names the run in reports — the same Request shape a serve client
  // would put on the wire.
  Request request;
  request.id = "pipeline-controller";
  request.g_text = g_text;
  const Response response = pipeline.submit(request);
  if (!response.outcome.ok()) {
    std::fprintf(stderr, "pipeline failed at stage %s: %s\n",
                 response.outcome.stage.c_str(), response.outcome.message.c_str());
    return 1;
  }
  const PipelineRun& run = *response.outcome.run;

  std::printf("pipeline controller: width %d, chain length %d -> %d states, %d signals\n",
              width, chain_length, run.graph.num_states(), run.graph.num_signals());
  std::printf("preconditions: %s\n", sg::check_implementability(run.graph).summary().c_str());
  std::printf("%s", core::describe(run.graph, run.synthesis).c_str());

  std::printf("\nstress result over %d randomized-delay runs:\n", runs);
  std::printf("  observable transitions (all spec-conformant): %ld\n",
              run.conformance.external_transitions);
  std::printf("  internal net toggles (SOP core may glitch):   %ld\n",
              run.conformance.internal_toggles);
  std::printf("  violations: %zu, deadlocks: %d\n", run.conformance.violations.size(),
              run.conformance.deadlocks);
  std::printf("=> %s\n", run.ok() ? "externally hazard-free" : "FAILED");
  return run.ok() ? 0 : 1;
}
catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
