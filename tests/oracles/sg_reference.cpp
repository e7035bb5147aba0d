#include "oracles/sg_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace nshot::sg::reference {
namespace {

/// Bit mask of non-input signals excited in s.
std::uint64_t excited_noninput_mask(const StateGraph& sg, StateId s) {
  std::uint64_t mask = 0;
  for (const Edge& e : sg.out_edges(s))
    if (!sg.is_input(e.label.signal)) mask |= (1ULL << e.label.signal);
  return mask;
}

/// Union-find for the connected-component decomposition of ERs.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Tarjan SCC over a subgraph in CSR form: the neighbours of local node v
/// are targets[offsets[v] .. offsets[v+1]).  CSR (two flat arrays) instead
/// of vector-of-vectors matters at scale — a 65k-state excitation region
/// would otherwise pay 65k inner-vector allocations before the first SCC
/// is found.  Returns the SCCs in reverse topological order (bottom SCCs
/// first is NOT guaranteed; we detect bottom SCCs explicitly afterwards).
class SccFinder {
 public:
  SccFinder(const std::vector<int>& offsets, const std::vector<int>& targets)
      : offsets_(offsets), targets_(targets) {
    const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
    index_.assign(n, -1);
    low_.assign(n, 0);
    on_stack_.assign(n, false);
    component_.assign(n, -1);
    for (std::size_t v = 0; v < n; ++v)
      if (index_[v] < 0) strong_connect(v);
  }

  int num_components() const { return next_component_; }
  int component_of(std::size_t local) const { return component_[local]; }

 private:
  void strong_connect(std::size_t root) {
    // Iterative Tarjan to avoid deep recursion on long chains.
    struct Frame {
      std::size_t v;
      std::size_t edge = 0;
    };
    std::vector<Frame> call_stack{{root}};
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::size_t v = frame.v;
      if (frame.edge == 0) {
        index_[v] = low_[v] = counter_++;
        stack_.push_back(v);
        on_stack_[v] = true;
      }
      bool descended = false;
      const std::size_t degree = static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
      while (frame.edge < degree) {
        const std::size_t w = static_cast<std::size_t>(
            targets_[static_cast<std::size_t>(offsets_[v]) + frame.edge++]);
        if (index_[w] < 0) {
          call_stack.push_back({w});
          descended = true;
          break;
        }
        if (on_stack_[w]) low_[v] = std::min(low_[v], index_[w]);
      }
      if (descended) continue;
      if (low_[v] == index_[v]) {
        while (true) {
          const std::size_t w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          component_[w] = next_component_;
          if (w == v) break;
        }
        ++next_component_;
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const std::size_t parent = call_stack.back().v;
        low_[parent] = std::min(low_[parent], low_[v]);
      }
    }
  }

  const std::vector<int>& offsets_;
  const std::vector<int>& targets_;
  std::vector<int> index_, low_, component_;
  std::vector<bool> on_stack_;
  std::vector<std::size_t> stack_;
  int counter_ = 0;
  int next_component_ = 0;
};

/// QR(*a_i): forward flood from the stable exit states of the ER over a
/// std::set.
std::vector<StateId> quiescent_of(const StateGraph& sg, SignalId a,
                                  const std::vector<StateId>& er_states, bool rising) {
  const bool new_value = rising;
  std::set<StateId> region;
  std::vector<StateId> frontier;
  for (const StateId s : er_states) {
    const auto exit = sg.successor(s, TransitionLabel{a, rising});
    if (!exit) continue;
    if (sg.value(*exit, a) == new_value && !sg.excited(*exit, a) && region.insert(*exit).second)
      frontier.push_back(*exit);
  }
  while (!frontier.empty()) {
    const StateId s = frontier.back();
    frontier.pop_back();
    for (const Edge& e : sg.out_edges(s)) {
      const StateId t = e.target;
      if (sg.value(t, a) == new_value && !sg.excited(t, a) && region.insert(t).second)
        frontier.push_back(t);
    }
  }
  return std::vector<StateId>(region.begin(), region.end());
}

}  // namespace

PropertyReport check_semi_modular(const StateGraph& sg) {
  PropertyReport report;
  for (StateId s = 0; s < sg.num_states(); ++s) {
    const auto labels = sg.enabled_labels(s);
    for (const TransitionLabel& t1 : labels) {
      if (sg.is_input(t1.signal)) continue;  // only non-input transitions are protected
      for (const TransitionLabel& t2 : labels) {
        if (t1 == t2) continue;
        const auto s_via_t1 = sg.successor(s, t1);
        const auto s_via_t2 = sg.successor(s, t2);
        NSHOT_ASSERT(s_via_t1 && s_via_t2, "enabled label without successor");
        const auto s12 = sg.successor(*s_via_t1, t2);
        const auto s21 = sg.successor(*s_via_t2, t1);
        if (!s21)
          report.violations.push_back("non-input transition " + sg.label_name(t1) +
                                      " is disabled by " + sg.label_name(t2) + " in " +
                                      sg.state_name(s));
        else if (!s12 || *s12 != *s21)
          report.violations.push_back("diamond of " + sg.label_name(t1) + " and " +
                                      sg.label_name(t2) + " from " + sg.state_name(s) +
                                      " does not commute");
      }
    }
  }
  return report;
}

PropertyReport check_csc(const StateGraph& sg) {
  PropertyReport report;
  std::map<std::uint64_t, std::vector<StateId>> by_code;
  for (StateId s = 0; s < sg.num_states(); ++s) by_code[sg.code(s)].push_back(s);
  for (const auto& [code, states] : by_code) {
    if (states.size() < 2) continue;
    const std::uint64_t reference = excited_noninput_mask(sg, states[0]);
    for (std::size_t i = 1; i < states.size(); ++i)
      if (excited_noninput_mask(sg, states[i]) != reference)
        report.violations.push_back("CSC conflict between " + sg.state_name(states[0]) + " and " +
                                    sg.state_name(states[i]) +
                                    " (equal codes, different excited non-input signals)");
  }
  return report;
}

std::size_t count_csc_conflicts(const StateGraph& sg) {
  std::map<std::uint64_t, std::vector<StateId>> by_code;
  for (StateId s = 0; s < sg.num_states(); ++s) by_code[sg.code(s)].push_back(s);
  std::size_t count = 0;
  for (const auto& [code, states] : by_code) {
    if (states.size() < 2) continue;
    const std::uint64_t first = excited_noninput_mask(sg, states[0]);
    for (std::size_t i = 1; i < states.size(); ++i)
      if (excited_noninput_mask(sg, states[i]) != first) ++count;
  }
  return count;
}

PropertyReport check_usc(const StateGraph& sg) {
  PropertyReport report;
  std::map<std::uint64_t, StateId> seen;
  for (StateId s = 0; s < sg.num_states(); ++s) {
    const auto [it, inserted] = seen.emplace(sg.code(s), s);
    if (!inserted)
      report.violations.push_back("states " + sg.state_name(it->second) + " and " +
                                  sg.state_name(s) + " share one binary code");
  }
  return report;
}

std::vector<StateId> detonant_states(const StateGraph& sg, SignalId a) {
  NSHOT_REQUIRE(!sg.is_input(a), "detonant states are defined for non-input signals");
  std::vector<StateId> result;
  for (StateId w = 0; w < sg.num_states(); ++w) {
    if (sg.excited(w, a)) continue;
    std::set<StateId> exciting;
    for (const Edge& e : sg.out_edges(w))
      if (sg.excited(e.target, a)) exciting.insert(e.target);
    if (exciting.size() >= 2) result.push_back(w);
  }
  return result;
}

SignalRegions compute_regions(const StateGraph& sg, SignalId a) {
  NSHOT_REQUIRE(a >= 0 && a < sg.num_signals(), "signal index out of range");

  SignalRegions result;
  result.signal = a;

  const std::size_t n = static_cast<std::size_t>(sg.num_states());
  // Local-index scratch maps, allocated once and reset by touched entry.
  std::vector<int> local(n, -1);
  std::vector<int> er_local(n, -1);

  for (const bool rising : {true, false}) {
    // States of the union of ER(+a)s (resp. ER(-a)s): a has the pre-value
    // and is excited.
    std::vector<StateId> members;
    for (StateId s = 0; s < sg.num_states(); ++s)
      if (sg.value(s, a) != rising && sg.excited(s, a)) members.push_back(s);
    if (members.empty()) continue;
    for (std::size_t i = 0; i < members.size(); ++i)
      local[static_cast<std::size_t>(members[i])] = static_cast<int>(i);

    // Maximal connected sets: union-find over arcs internal to the set
    // (direction ignored for connectivity).
    UnionFind uf(members.size());
    for (const StateId s : members) {
      for (const Edge& e : sg.out_edges(s)) {
        const int t_local = local[static_cast<std::size_t>(e.target)];
        if (t_local >= 0) uf.unite(static_cast<std::size_t>(local[static_cast<std::size_t>(s)]),
                                   static_cast<std::size_t>(t_local));
      }
    }
    // Group members into components by UF root, in ascending root order,
    // members ascending within each.
    std::vector<std::vector<StateId>> components;
    std::map<std::size_t, std::vector<StateId>> by_root;
    for (std::size_t i = 0; i < members.size(); ++i) by_root[uf.find(i)].push_back(members[i]);
    for (auto& [root, er_states] : by_root) components.push_back(std::move(er_states));

    for (const StateId s : members) local[static_cast<std::size_t>(s)] = -1;

    for (auto& er_states : components) {
      ExcitationRegion er;
      er.signal = a;
      er.rising = rising;
      std::sort(er_states.begin(), er_states.end());
      er.states = er_states;
      er.quiescent = quiescent_of(sg, a, er.states, rising);

      // Trigger regions: bottom SCCs of the subgraph of the ER induced by
      // the arcs that do not fire *a, in CSR form (edge order per node
      // unchanged).
      for (std::size_t i = 0; i < er.states.size(); ++i)
        er_local[static_cast<std::size_t>(er.states[i])] = static_cast<int>(i);
      std::vector<int> offsets(er.states.size() + 1, 0);
      std::vector<int> targets;
      for (std::size_t i = 0; i < er.states.size(); ++i) {
        for (const Edge& e : sg.out_edges(er.states[i])) {
          if (e.label.signal == a) continue;  // firing *a leaves the region
          const int t_local = er_local[static_cast<std::size_t>(e.target)];
          if (t_local >= 0) targets.push_back(t_local);
        }
        offsets[i + 1] = static_cast<int>(targets.size());
      }
      SccFinder scc(offsets, targets);
      // A bottom SCC has no arc into a different SCC.
      std::vector<bool> is_bottom(static_cast<std::size_t>(scc.num_components()), true);
      for (std::size_t i = 0; i < er.states.size(); ++i)
        for (int k = offsets[i]; k < offsets[i + 1]; ++k)
          if (scc.component_of(i) != scc.component_of(static_cast<std::size_t>(targets[k])))
            is_bottom[static_cast<std::size_t>(scc.component_of(i))] = false;
      // Bottom components in ascending Tarjan component-id order.
      std::vector<int> slot(static_cast<std::size_t>(scc.num_components()), -1);
      int num_bottom = 0;
      for (std::size_t c = 0; c < is_bottom.size(); ++c)
        if (is_bottom[c]) slot[c] = num_bottom++;
      std::vector<std::vector<StateId>> triggers(static_cast<std::size_t>(num_bottom));
      for (std::size_t i = 0; i < er.states.size(); ++i) {
        const int s = slot[static_cast<std::size_t>(scc.component_of(i))];
        if (s >= 0) triggers[static_cast<std::size_t>(s)].push_back(er.states[i]);
      }
      for (std::vector<StateId>& tr : triggers) er.trigger_regions.push_back(std::move(tr));

      for (const StateId s : er.states) er_local[static_cast<std::size_t>(s)] = -1;
      result.regions.push_back(std::move(er));
    }
  }
  return result;
}

}  // namespace nshot::sg::reference
