#include "sg/state_graph.hpp"

#include "util/error.hpp"

namespace nshot::sg {

SignalId StateGraph::add_signal(const std::string& name, SignalKind kind) {
  NSHOT_REQUIRE(signals_.size() < 64, "state graph supports at most 64 signals");
  NSHOT_REQUIRE(!find_signal(name).has_value(), "duplicate signal name " + name);
  NSHOT_REQUIRE(codes_.empty(), "signals must be declared before states");
  signals_.push_back(Signal{name, kind});
  return static_cast<SignalId>(signals_.size() - 1);
}

StateId StateGraph::add_state(std::uint64_t code) {
  const std::uint64_t mask =
      signals_.size() == 64 ? ~0ULL : ((1ULL << signals_.size()) - 1ULL);
  NSHOT_REQUIRE((code & ~mask) == 0, "state code uses undeclared signal bits");
  codes_.push_back(code);
  edges_.emplace_back();
  return static_cast<StateId>(codes_.size() - 1);
}

void StateGraph::add_edge(StateId from, TransitionLabel label, StateId to) {
  NSHOT_REQUIRE(from >= 0 && from < num_states(), "edge source out of range");
  NSHOT_REQUIRE(to >= 0 && to < num_states(), "edge target out of range");
  NSHOT_REQUIRE(label.signal >= 0 && label.signal < num_signals(), "edge label signal invalid");
  NSHOT_REQUIRE(!successor(from, label).has_value(),
                "duplicate transition " + label_name(label) + " from state " +
                    std::to_string(from));
  edges_[static_cast<std::size_t>(from)].push_back(Edge{label, to});
}

void StateGraph::set_initial(StateId s) {
  NSHOT_REQUIRE(s >= 0 && s < num_states(), "initial state out of range");
  initial_ = s;
}

std::vector<SignalId> StateGraph::input_signals() const {
  std::vector<SignalId> ids;
  for (int x = 0; x < num_signals(); ++x)
    if (is_input(x)) ids.push_back(x);
  return ids;
}

std::vector<SignalId> StateGraph::noninput_signals() const {
  std::vector<SignalId> ids;
  for (int x = 0; x < num_signals(); ++x)
    if (!is_input(x)) ids.push_back(x);
  return ids;
}

std::optional<SignalId> StateGraph::find_signal(const std::string& name) const {
  for (std::size_t i = 0; i < signals_.size(); ++i)
    if (signals_[i].name == name) return static_cast<SignalId>(i);
  return std::nullopt;
}

bool StateGraph::excited(StateId s, SignalId x) const {
  for (const Edge& e : out_edges(s))
    if (e.label.signal == x) return true;
  return false;
}

std::optional<StateId> StateGraph::successor(StateId s, TransitionLabel t) const {
  for (const Edge& e : out_edges(s))
    if (e.label == t) return e.target;
  return std::nullopt;
}

std::vector<TransitionLabel> StateGraph::enabled_labels(StateId s) const {
  std::vector<TransitionLabel> labels;
  for (const Edge& e : out_edges(s)) labels.push_back(e.label);
  return labels;
}

std::string StateGraph::label_name(TransitionLabel t) const {
  return signal(t.signal).name + (t.rising ? "+" : "-");
}

std::string StateGraph::state_name(StateId s) const {
  std::string text = "s";
  text += std::to_string(s);
  text.push_back('<');
  for (int x = 0; x < num_signals(); ++x) {
    text.push_back(value(s, x) ? '1' : '0');
    if (excited(s, x)) text.push_back('*');
  }
  text.push_back('>');
  return text;
}

}  // namespace nshot::sg
