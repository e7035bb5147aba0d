#include "sg/regions.hpp"

#include <algorithm>
#include <cstdint>

#include "exec/cancel.hpp"
#include "obs/obs.hpp"
#include "sg/bitset.hpp"
#include "util/error.hpp"

namespace nshot::sg {
namespace {

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

/// Compute QR(*a_i): forward flood from the stable exit states of the ER.
/// `quiescent` is the precomputed word-packed plane of states where a has
/// the new value and is stable, so membership is a single bit probe; the
/// ascending bit-order extraction of `in_region` reproduces the order the
/// std::set flood of the test oracle (tests/oracles/sg_reference) yields.
std::vector<StateId> quiescent_of(const StateGraph& sg, SignalId a,
                                  const std::vector<StateId>& er_states, bool rising,
                                  const StateSet& quiescent, StateSet& in_region,
                                  std::vector<StateId>& frontier) {
  in_region.clear();
  frontier.clear();
  for (const StateId s : er_states) {
    const auto exit = sg.successor(s, TransitionLabel{a, rising});
    if (!exit) continue;  // arcs of other signals; the *a arc defines the exit
    if (quiescent.contains(*exit) && in_region.insert_new(*exit)) frontier.push_back(*exit);
  }
  while (!frontier.empty()) {
    exec::checkpoint();
    const StateId s = frontier.back();
    frontier.pop_back();
    for (const Edge& e : sg.out_edges(s)) {
      const StateId t = e.target;
      if (quiescent.contains(t) && in_region.insert_new(t)) frontier.push_back(t);
    }
  }
  return in_region.to_vector();
}

}  // namespace

bool ExcitationRegion::single_traversal() const {
  for (const auto& tr : trigger_regions)
    if (tr.size() != 1) return false;
  return true;
}

namespace {

/// `value` / `excited` are the word-packed planes of signal a:
/// compute_regions builds them for one signal, compute_all_regions passes
/// its shared all-signal sweep.  Every value / excitation test below is a
/// single bit probe.
SignalRegions compute_regions_impl(const StateGraph& sg, SignalId a, const StateSet& value,
                                   const StateSet& excited) {
  SignalRegions result;
  result.signal = a;

  const std::size_t n = static_cast<std::size_t>(sg.num_states());
  StateSet quiescent_plane(0), in_region(n);
  std::vector<StateId> flood_frontier;
  // Local-index scratch maps, allocated once and reset by touched entry so
  // large graphs do not pay an O(num_states) clear per region.
  std::vector<int> local(n, -1);
  std::vector<int> er_local(n, -1);

  for (const bool rising : {true, false}) {
    // States of the union of ER(+a)s (resp. ER(-a)s): a has the pre-value
    // and is excited: excited & (rising ? ~value : value), extracted in
    // ascending order.
    StateSet er_plane = excited;
    if (rising)
      er_plane.subtract(value);
    else
      er_plane &= value;
    const std::vector<StateId> members = er_plane.to_vector();
    // QR(*a) candidates for this polarity: a has the new value, stable.
    quiescent_plane = value;
    if (!rising) quiescent_plane.complement();
    quiescent_plane.subtract(excited);
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
    // Group members into components by UF root, in ascending root order:
    // a counting sort over the dense root domain (roots are member
    // indices, so root < members.size()).  The scatter walks members in
    // ascending index order, so components come out in ascending root
    // order with members ascending within each.
    std::vector<std::vector<StateId>> components;
    std::vector<std::size_t> root_of(members.size());
    std::vector<std::size_t> offset(members.size() + 1, 0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      root_of[i] = uf.find(i);
      ++offset[root_of[i] + 1];
    }
    for (std::size_t r = 0; r < members.size(); ++r) offset[r + 1] += offset[r];
    std::vector<std::size_t> ordered(members.size());
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (std::size_t i = 0; i < members.size(); ++i) ordered[cursor[root_of[i]]++] = i;
    for (std::size_t begin = 0; begin < ordered.size();) {
      const std::size_t root = root_of[ordered[begin]];
      std::size_t end = begin;
      while (end < ordered.size() && root_of[ordered[end]] == root) ++end;
      std::vector<StateId> er_states;
      er_states.reserve(end - begin);
      for (std::size_t k = begin; k < end; ++k) er_states.push_back(members[ordered[k]]);
      components.push_back(std::move(er_states));
      begin = end;
    }

    for (const StateId s : members) local[static_cast<std::size_t>(s)] = -1;

    for (auto& er_states : components) {
      ExcitationRegion er;
      er.signal = a;
      er.rising = rising;
      std::sort(er_states.begin(), er_states.end());
      er.states = er_states;
      er.quiescent =
          quiescent_of(sg, a, er.states, rising, quiescent_plane, in_region, flood_frontier);

      // Trigger regions: bottom SCCs of the subgraph of the ER induced by
      // the arcs that do not fire *a.  The subgraph is built in CSR form
      // (edge order per node unchanged) and only bottom SCCs are ever
      // materialized: a chain-shaped ER shatters into one SCC per state,
      // almost all non-bottom, and allocating a vector for each discarded
      // component dominated this pass at the 500k-state tiers.
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
      // Bottom components keep their ascending component-id order, exactly
      // the order the dense triggers table produced.
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
  obs::count(obs::Counter::kRegionsExtracted, static_cast<long>(result.regions.size()));
  return result;
}

}  // namespace

SignalRegions compute_regions(const StateGraph& sg, SignalId a) {
  NSHOT_REQUIRE(a >= 0 && a < sg.num_signals(), "signal index out of range");
  return compute_regions_impl(sg, a, value_set(sg, a), excited_set(sg, a));
}

std::vector<SignalRegions> compute_all_regions(const StateGraph& sg) {
  const obs::Span span("regions");
  // One shared plane sweep for every signal replaces the two per-signal
  // graph passes compute_regions would make; plane content is identical,
  // so the regions are too.
  const std::vector<StateSet> values = all_value_sets(sg);
  const std::vector<StateSet> excited = all_excited_sets(sg);
  std::vector<SignalRegions> all;
  for (const SignalId a : sg.noninput_signals())
    all.push_back(compute_regions_impl(sg, a, values[static_cast<std::size_t>(a)],
                                       excited[static_cast<std::size_t>(a)]));
  return all;
}

bool is_single_traversal(const StateGraph& sg) {
  for (const SignalId a : sg.noninput_signals()) {
    const SignalRegions regions = compute_regions(sg, a);
    for (const ExcitationRegion& er : regions.regions)
      if (!er.single_traversal()) return false;
  }
  return true;
}

bool verify_output_trapping(const StateGraph& sg, const ExcitationRegion& er) {
  StateSet member(static_cast<std::size_t>(sg.num_states()));
  for (const StateId s : er.states) member.insert(s);
  for (const StateId s : er.states) {
    for (const Edge& e : sg.out_edges(s)) {
      if (e.label.signal == er.signal) continue;  // firing *a: allowed exit
      if (!member.contains(e.target)) return false;
    }
  }
  return true;
}

bool verify_trigger_reachability(const StateGraph& sg, const ExcitationRegion& er) {
  const std::size_t n = static_cast<std::size_t>(sg.num_states());
  StateSet trigger(n);
  for (const auto& tr : er.trigger_regions)
    for (const StateId s : tr) trigger.insert(s);
  StateSet member(n);
  for (const StateId s : er.states) member.insert(s);

  StateSet seen(n);
  for (const StateId start : er.states) {
    // BFS inside the ER over non-*a arcs.
    seen.clear();
    seen.insert(start);
    std::vector<StateId> frontier{start};
    bool found = trigger.contains(start);
    while (!frontier.empty() && !found) {
      const StateId s = frontier.back();
      frontier.pop_back();
      for (const Edge& e : sg.out_edges(s)) {
        if (e.label.signal == er.signal || !member.contains(e.target)) continue;
        if (seen.insert_new(e.target)) {
          if (trigger.contains(e.target)) {
            found = true;
            break;
          }
          frontier.push_back(e.target);
        }
      }
    }
    if (!found) return false;
  }
  return true;
}

std::string SignalRegions::to_string(const StateGraph& sg) const {
  std::string text = "regions of signal " + sg.signal(signal).name + ":\n";
  int up_index = 0, down_index = 0;
  for (const ExcitationRegion& er : regions) {
    const std::string label = sg.signal(signal).name + (er.rising ? "+" : "-") + "_" +
                              std::to_string(er.rising ? up_index++ : down_index++);
    text += "  ER(" + label + ") = {";
    for (std::size_t i = 0; i < er.states.size(); ++i)
      text += (i ? ", " : "") + sg.state_name(er.states[i]);
    text += "}\n  QR(" + label + ") = {";
    for (std::size_t i = 0; i < er.quiescent.size(); ++i)
      text += (i ? ", " : "") + sg.state_name(er.quiescent[i]);
    text += "}\n";
    for (std::size_t t = 0; t < er.trigger_regions.size(); ++t) {
      text += "  TR(" + label + ")[" + std::to_string(t) + "] = {";
      for (std::size_t i = 0; i < er.trigger_regions[t].size(); ++i)
        text += (i ? ", " : "") + sg.state_name(er.trigger_regions[t][i]);
      text += "}\n";
    }
  }
  return text;
}

}  // namespace nshot::sg
