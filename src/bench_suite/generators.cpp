#include "bench_suite/generators.hpp"

#include <algorithm>
#include <sstream>

#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::bench_suite {
namespace {

void emit_signals(std::ostringstream& out, const std::vector<std::string>& inputs,
                  const std::vector<std::string>& outputs) {
  if (!inputs.empty()) {
    out << ".inputs";
    for (const std::string& s : inputs) out << " " << s;
    out << "\n";
  }
  if (!outputs.empty()) {
    out << ".outputs";
    for (const std::string& s : outputs) out << " " << s;
    out << "\n";
  }
}

}  // namespace

std::string staged_cycle_g(const std::string& name, const std::vector<std::string>& inputs,
                           const std::vector<std::string>& outputs,
                           const std::vector<std::vector<std::string>>& stages) {
  NSHOT_REQUIRE(stages.size() >= 2, "staged cycle needs at least two stages");
  std::ostringstream out;
  out << ".model " << name << "\n";
  emit_signals(out, inputs, outputs);
  out << ".graph\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const std::vector<std::string>& next = stages[(i + 1) % stages.size()];
    for (const std::string& from : stages[i]) {
      out << from;
      for (const std::string& to : next) out << " " << to;
      out << "\n";
    }
  }
  out << ".marking {";
  for (const std::string& from : stages.back())
    for (const std::string& to : stages.front()) out << " <" << from << "," << to << ">";
  out << " }\n.end\n";
  return out.str();
}

std::string choice_cycle_g(const std::string& name, const std::vector<std::string>& inputs,
                           const std::vector<std::string>& outputs,
                           const std::vector<std::vector<std::string>>& branches) {
  NSHOT_REQUIRE(!branches.empty(), "choice cycle needs at least one branch");
  std::ostringstream out;
  out << ".model " << name << "\n";
  emit_signals(out, inputs, outputs);
  out << ".graph\n";
  for (const std::vector<std::string>& branch : branches) {
    NSHOT_REQUIRE(!branch.empty(), "empty choice branch");
    out << "p0 " << branch.front() << "\n";
    for (std::size_t i = 0; i + 1 < branch.size(); ++i)
      out << branch[i] << " " << branch[i + 1] << "\n";
    out << branch.back() << " p0\n";
  }
  out << ".marking { p0 }\n.end\n";
  return out.str();
}

std::string parallel_chains_g(const std::string& name, const std::string& master,
                              bool master_is_input,
                              const std::vector<std::vector<std::string>>& chains,
                              const std::vector<std::string>& inputs,
                              const std::vector<std::string>& outputs) {
  NSHOT_REQUIRE(!chains.empty(), "parallel chains generator needs at least one chain");
  std::ostringstream out;
  out << ".model " << name << "\n";
  std::vector<std::string> all_inputs = inputs, all_outputs = outputs;
  (master_is_input ? all_inputs : all_outputs).push_back(master);
  emit_signals(out, all_inputs, all_outputs);
  out << ".graph\n";
  for (const char polarity : {'+', '-'}) {
    const std::string m = master + polarity;
    const std::string m_next = master + (polarity == '+' ? '-' : '+');
    for (const std::vector<std::string>& chain : chains) {
      NSHOT_REQUIRE(!chain.empty(), "empty chain");
      out << m << " " << chain.front() << polarity << "\n";
      for (std::size_t i = 0; i + 1 < chain.size(); ++i)
        out << chain[i] << polarity << " " << chain[i + 1] << polarity << "\n";
      out << chain.back() << polarity << " " << m_next << "\n";
    }
  }
  out << ".marking {";
  for (const std::vector<std::string>& chain : chains)
    out << " <" << chain.back() << "-," << master << "+>";
  out << " }\n.end\n";
  return out.str();
}

sg::StateGraph build_g(const std::string& g_text) {
  return stg::build_state_graph(stg::parse_g(g_text));
}

namespace {

/// Split `names` (suffixed with `polarity`) into 1..max_stages consecutive
/// groups with random boundaries — the stage structure of every
/// reconstructed benchmark above, with the cut points drawn instead of
/// hand-picked.
std::vector<std::vector<std::string>> random_stages(Rng& rng,
                                                    const std::vector<std::string>& names,
                                                    char polarity, int max_stages) {
  std::vector<std::vector<std::string>> stages(1);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!stages.back().empty() && static_cast<int>(stages.size()) < max_stages &&
        rng.next_bool(0.45))
      stages.emplace_back();
    stages.back().push_back(names[i] + polarity);
  }
  return stages;
}

}  // namespace

std::string random_semimodular_g(const RandomStgOptions& options) {
  NSHOT_REQUIRE(options.max_signals >= 3, "random STG needs max_signals >= 3");
  Rng rng(options.seed ^ 0xa5a5'5a5a'1234'9e37ULL);
  const std::string name = "rand" + std::to_string(options.seed);
  const int family = static_cast<int>(rng.next_below(3));

  auto signal_name = [](int i) { return std::string("x").append(std::to_string(i)); };

  if (family == 0) {
    // Staged cycle: n signals, a random nonempty proper prefix of which are
    // inputs; the rising phase and the falling phase are staged with
    // independent random barriers (mirroring chu150, where the two phases
    // cut differently).
    const int n = 3 + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(options.max_signals - 2)));
    const int num_inputs = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
    std::vector<std::string> inputs, outputs, all;
    for (int i = 0; i < n; ++i) {
      all.push_back(signal_name(i));
      (i < num_inputs ? inputs : outputs).push_back(all.back());
    }
    const int max_stages = 1 + n / 2;
    std::vector<std::vector<std::string>> stages = random_stages(rng, all, '+', max_stages);
    for (auto& stage : random_stages(rng, all, '-', max_stages))
      stages.push_back(std::move(stage));
    return staged_cycle_g(name, inputs, outputs, stages);
  }

  if (family == 1) {
    // Parallel chains: an input master releases 2..4 concurrent chains;
    // each chain leads with an input request and continues through output
    // stages (the wrdatab shape).
    const int num_chains =
        2 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(std::max(1, (options.max_signals - 2) / 2))));
    std::vector<std::vector<std::string>> chains;
    std::vector<std::string> inputs, outputs;
    int next = 0;
    for (int c = 0; c < num_chains && next < options.max_signals; ++c) {
      std::vector<std::string> chain;
      chain.push_back(signal_name(next++));
      inputs.push_back(chain.back());
      // The first chain always carries an output so the circuit has
      // something to synthesize even when every other draw comes up empty.
      const int extra = (c == 0 ? 1 : 0) + static_cast<int>(rng.next_below(c == 0 ? 2 : 3));
      for (int i = 0; i < extra && next < options.max_signals; ++i) {
        chain.push_back(signal_name(next++));
        outputs.push_back(chain.back());
      }
      chains.push_back(std::move(chain));
    }
    return parallel_chains_g(name, "m", /*master_is_input=*/true, chains, inputs, outputs);
  }

  // Choice cycle: a free-choice place selects one of 2..3 handshake
  // branches; each branch is `req+ outs+ req- outs-` over branch-private
  // signals, so the choice is confined to input transitions and distinct
  // branches cannot share codes.
  const int num_branches = 2 + static_cast<int>(rng.next_below(2));
  std::vector<std::vector<std::string>> branches;
  std::vector<std::string> inputs, outputs;
  int next = 0;
  for (int b = 0; b < num_branches; ++b) {
    const std::string req = signal_name(next++);
    inputs.push_back(req);
    std::vector<std::string> outs;
    const int extra = 1 + static_cast<int>(rng.next_below(2));
    for (int i = 0; i < extra && next < options.max_signals; ++i) {
      outs.push_back(signal_name(next++));
      outputs.push_back(outs.back());
    }
    std::vector<std::string> branch;
    branch.push_back(req + "+");
    for (const std::string& o : outs) branch.push_back(o + "+");
    branch.push_back(req + "-");
    for (const std::string& o : outs) branch.push_back(o + "-");
    branches.push_back(std::move(branch));
  }
  return choice_cycle_g(name, inputs, outputs, branches);
}

sg::StateGraph or_causality_cell(const std::string& name, const std::string& prefix) {
  sg::StateGraph cell(name);
  const sg::SignalId a = cell.add_signal(prefix + "a", sg::SignalKind::kInput);
  const sg::SignalId b = cell.add_signal(prefix + "b", sg::SignalKind::kInput);
  const sg::SignalId c = cell.add_signal(prefix + "c", sg::SignalKind::kNonInput);
  const sg::SignalId d = cell.add_signal(prefix + "d", sg::SignalKind::kInput);

  // Cycle: a+ and b+ arrive concurrently, c+ fires on the FIRST arrival
  // (OR causality: the pre-arrival state is detonant w.r.t. c); d+
  // acknowledges; a- and b- likewise race c-; d- closes the cycle.
  auto code = [&](bool va, bool vb, bool vc, bool vd) {
    return (va ? 1ULL << a : 0) | (vb ? 1ULL << b : 0) | (vc ? 1ULL << c : 0) |
           (vd ? 1ULL << d : 0);
  };
  // States, keyed by (a, b, c, d) values.
  const sg::StateId s0000 = cell.add_state(code(0, 0, 0, 0));
  const sg::StateId s1000 = cell.add_state(code(1, 0, 0, 0));
  const sg::StateId s0100 = cell.add_state(code(0, 1, 0, 0));
  const sg::StateId s1100 = cell.add_state(code(1, 1, 0, 0));
  const sg::StateId s1010 = cell.add_state(code(1, 0, 1, 0));
  const sg::StateId s0110 = cell.add_state(code(0, 1, 1, 0));
  const sg::StateId s1110 = cell.add_state(code(1, 1, 1, 0));
  const sg::StateId s1111 = cell.add_state(code(1, 1, 1, 1));
  const sg::StateId s0111 = cell.add_state(code(0, 1, 1, 1));
  const sg::StateId s1011 = cell.add_state(code(1, 0, 1, 1));
  const sg::StateId s0011 = cell.add_state(code(0, 0, 1, 1));
  const sg::StateId s0101 = cell.add_state(code(0, 1, 0, 1));
  const sg::StateId s1001 = cell.add_state(code(1, 0, 0, 1));
  const sg::StateId s0001 = cell.add_state(code(0, 0, 0, 1));

  const sg::TransitionLabel ap{a, true}, am{a, false}, bp{b, true}, bm{b, false};
  const sg::TransitionLabel cp{c, true}, cm{c, false}, dp{d, true}, dm{d, false};

  cell.add_edge(s0000, ap, s1000);  // detonant state w.r.t. c (0*0*00)
  cell.add_edge(s0000, bp, s0100);
  cell.add_edge(s1000, bp, s1100);
  cell.add_edge(s1000, cp, s1010);
  cell.add_edge(s0100, ap, s1100);
  cell.add_edge(s0100, cp, s0110);
  cell.add_edge(s1100, cp, s1110);
  cell.add_edge(s1010, bp, s1110);
  cell.add_edge(s0110, ap, s1110);
  cell.add_edge(s1110, dp, s1111);
  cell.add_edge(s1111, am, s0111);  // detonant state w.r.t. c (1*1*11)
  cell.add_edge(s1111, bm, s1011);
  cell.add_edge(s0111, bm, s0011);
  cell.add_edge(s0111, cm, s0101);
  cell.add_edge(s1011, am, s0011);
  cell.add_edge(s1011, cm, s1001);
  cell.add_edge(s0011, cm, s0001);
  cell.add_edge(s0101, bm, s0001);
  cell.add_edge(s1001, am, s0001);
  cell.add_edge(s0001, dm, s0000);
  cell.set_initial(s0000);
  return cell;
}

sg::StateGraph sg_product(const sg::StateGraph& a, const sg::StateGraph& b,
                          const std::string& name) {
  sg::StateGraph product(name);
  for (int x = 0; x < a.num_signals(); ++x)
    product.add_signal(a.signal(x).name, a.signal(x).kind);
  for (int x = 0; x < b.num_signals(); ++x)
    product.add_signal(b.signal(x).name, b.signal(x).kind);

  // All pairs are reachable (the components are independent).
  const int nb = b.num_states();
  auto pair_id = [nb](sg::StateId sa, sg::StateId sb) { return sa * nb + sb; };
  for (sg::StateId sa = 0; sa < a.num_states(); ++sa)
    for (sg::StateId sb = 0; sb < b.num_states(); ++sb) {
      const sg::StateId id =
          product.add_state(a.code(sa) | (b.code(sb) << a.num_signals()));
      NSHOT_ASSERT(id == pair_id(sa, sb), "product state numbering out of sync");
    }
  for (sg::StateId sa = 0; sa < a.num_states(); ++sa)
    for (sg::StateId sb = 0; sb < b.num_states(); ++sb) {
      for (const sg::Edge& e : a.out_edges(sa))
        product.add_edge(pair_id(sa, sb), e.label, pair_id(e.target, sb));
      for (const sg::Edge& e : b.out_edges(sb))
        product.add_edge(pair_id(sa, sb),
                         sg::TransitionLabel{e.label.signal + a.num_signals(), e.label.rising},
                         pair_id(sa, e.target));
    }
  product.set_initial(pair_id(a.initial(), b.initial()));
  return product;
}

}  // namespace nshot::bench_suite
