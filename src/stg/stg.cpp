#include "stg/stg.hpp"

#include "util/error.hpp"

namespace nshot::stg {

int Stg::add_signal(const std::string& name, SignalKind kind) {
  NSHOT_REQUIRE(signals_.size() < 64, "STG supports at most 64 signals");
  NSHOT_REQUIRE(!find_signal(name).has_value(), "duplicate signal " + name);
  signals_.push_back(StgSignal{name, kind});
  initial_values_.push_back(std::nullopt);
  return static_cast<int>(signals_.size() - 1);
}

TransitionId Stg::add_transition(int signal, bool rising, int instance) {
  NSHOT_REQUIRE(signal >= 0 && signal < num_signals(), "transition signal out of range");
  NSHOT_REQUIRE(instance >= 1, "transition instance must be >= 1");
  NSHOT_REQUIRE(!find_transition(signal, rising, instance).has_value(),
                "duplicate transition " + signals_[static_cast<std::size_t>(signal)].name +
                    (rising ? "+" : "-") + "/" + std::to_string(instance));
  transitions_.push_back(StgTransition{signal, rising, instance});
  dummy_names_.emplace_back();
  pre_.emplace_back();
  post_.emplace_back();
  return static_cast<TransitionId>(transitions_.size() - 1);
}

TransitionId Stg::add_dummy_transition(const std::string& name) {
  NSHOT_REQUIRE(!find_dummy_transition(name).has_value(), "duplicate dummy transition " + name);
  transitions_.push_back(StgTransition{-1, true, 1});
  dummy_names_.push_back(name);
  pre_.emplace_back();
  post_.emplace_back();
  return static_cast<TransitionId>(transitions_.size() - 1);
}

std::optional<TransitionId> Stg::find_dummy_transition(const std::string& name) const {
  for (std::size_t i = 0; i < transitions_.size(); ++i)
    if (transitions_[i].is_dummy() && dummy_names_[i] == name)
      return static_cast<TransitionId>(i);
  return std::nullopt;
}

bool Stg::has_dummies() const {
  for (const StgTransition& t : transitions_)
    if (t.is_dummy()) return true;
  return false;
}

PlaceId Stg::add_place(const std::string& name) {
  NSHOT_REQUIRE(!find_place(name).has_value(), "duplicate place " + name);
  place_names_.push_back(name);
  marking_.push_back(false);
  return static_cast<PlaceId>(place_names_.size() - 1);
}

void Stg::add_arc_place_to_transition(PlaceId p, TransitionId t) {
  NSHOT_REQUIRE(p >= 0 && p < num_places(), "place out of range");
  NSHOT_REQUIRE(t >= 0 && t < num_transitions(), "transition out of range");
  pre_[static_cast<std::size_t>(t)].push_back(p);
}

void Stg::add_arc_transition_to_place(TransitionId t, PlaceId p) {
  NSHOT_REQUIRE(p >= 0 && p < num_places(), "place out of range");
  NSHOT_REQUIRE(t >= 0 && t < num_transitions(), "transition out of range");
  post_[static_cast<std::size_t>(t)].push_back(p);
}

PlaceId Stg::connect(TransitionId from, TransitionId to) {
  std::string name = "<";
  name.append(transition_name(from)).append(",").append(transition_name(to)).append(">");
  const PlaceId p = find_place(name) ? *find_place(name) : add_place(name);
  add_arc_transition_to_place(from, p);
  add_arc_place_to_transition(p, to);
  return p;
}

void Stg::mark_place(PlaceId p, bool token) {
  NSHOT_REQUIRE(p >= 0 && p < num_places(), "place out of range");
  marking_[static_cast<std::size_t>(p)] = token;
}

void Stg::set_initial_value(int signal, bool value) {
  NSHOT_REQUIRE(signal >= 0 && signal < num_signals(), "signal out of range");
  initial_values_[static_cast<std::size_t>(signal)] = value;
}

std::optional<int> Stg::find_signal(const std::string& name) const {
  for (std::size_t i = 0; i < signals_.size(); ++i)
    if (signals_[i].name == name) return static_cast<int>(i);
  return std::nullopt;
}

std::optional<TransitionId> Stg::find_transition(int signal, bool rising, int instance) const {
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const StgTransition& t = transitions_[i];
    if (t.signal == signal && t.rising == rising && t.instance == instance)
      return static_cast<TransitionId>(i);
  }
  return std::nullopt;
}

std::string Stg::transition_name(TransitionId t) const {
  const StgTransition& tr = transitions_[static_cast<std::size_t>(t)];
  if (tr.is_dummy()) return dummy_names_[static_cast<std::size_t>(t)];
  std::string name = signals_[static_cast<std::size_t>(tr.signal)].name + (tr.rising ? "+" : "-");
  if (tr.instance != 1) name.append("/").append(std::to_string(tr.instance));
  return name;
}

std::optional<PlaceId> Stg::find_place(const std::string& name) const {
  for (std::size_t i = 0; i < place_names_.size(); ++i)
    if (place_names_[i] == name) return static_cast<PlaceId>(i);
  return std::nullopt;
}

}  // namespace nshot::stg
