#include "oracles/trigger_reference.hpp"

namespace nshot::core::reference {

bool has_trigger_cube(const logic::Cover& cover, int output,
                      const std::vector<std::uint64_t>& codes) {
  for (const logic::Cube& cube : cover) {
    if (!cube.has_output(output)) continue;
    bool all = true;
    for (const std::uint64_t code : codes) {
      if (!cube.covers_minterm(code)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TriggerReport enforce_trigger_requirement(const sg::StateGraph& sg,
                                          const std::vector<sg::SignalRegions>& regions,
                                          const DerivedSpec& derived, logic::Cover& cover) {
  TriggerReport report;
  for (const sg::SignalRegions& signal_regions : regions) {
    const OutputIndex& index = derived.for_signal(signal_regions.signal);
    for (const sg::ExcitationRegion& er : signal_regions.regions) {
      const int output = er.rising ? index.set_output : index.reset_output;
      for (const std::vector<sg::StateId>& tr : er.trigger_regions) {
        std::vector<std::uint64_t> codes;
        for (const sg::StateId s : tr) codes.push_back(sg.code(s));
        if (has_trigger_cube(cover, output, codes)) continue;

        logic::Cube supercube = logic::Cube::minterm(codes.front(), sg.num_signals(), 0);
        for (std::size_t i = 1; i < codes.size(); ++i)
          supercube =
              supercube.supercube(logic::Cube::minterm(codes[i], sg.num_signals(), 0));
        supercube.set_outputs(1ULL << output);
        TriggerIssue issue{signal_regions.signal, er.rising, tr, false};
        if (derived.spec.cube_valid_for_output(supercube, output)) {
          cover.add(supercube);
          ++report.cubes_added;
          issue.repaired = true;
        }
        report.issues.push_back(std::move(issue));
      }
    }
  }
  if (report.cubes_added > 0) cover.remove_contained();
  return report;
}

}  // namespace nshot::core::reference
