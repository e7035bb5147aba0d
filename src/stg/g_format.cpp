#include "stg/g_format.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace nshot::stg {
namespace {

struct ParsedTransition {
  std::string signal;
  bool rising = true;
  int instance = 1;
};

/// Parse "a+", "b-/2"; returns nullopt if the token is not transition-shaped.
std::optional<ParsedTransition> parse_transition_token(const std::string& token) {
  std::string body = token;
  int instance = 1;
  const std::size_t slash = body.find('/');
  if (slash != std::string::npos) {
    try {
      instance = std::stoi(body.substr(slash + 1));
    } catch (...) {
      return std::nullopt;
    }
    body = body.substr(0, slash);
  }
  if (body.size() < 2) return std::nullopt;
  const char sign = body.back();
  if (sign != '+' && sign != '-') return std::nullopt;
  return ParsedTransition{body.substr(0, body.size() - 1), sign == '+', instance};
}

}  // namespace

Stg parse_g(const std::string& text) {
  check_parser_text(text, ".g text");
  Stg stg;
  std::istringstream stream(text);
  std::string raw;
  int line_no = 0;
  bool in_graph = false;

  // Node = transition or place; resolve lazily so .graph can be in any order.
  struct ArcEndpoint {
    bool is_transition;
    int id;
  };
  std::vector<std::string> dummy_names;
  auto resolve = [&stg, &dummy_names](const std::string& token, int line) -> ArcEndpoint {
    // Declared dummy names win over place interpretation.
    for (const std::string& dummy : dummy_names) {
      if (token == dummy) {
        const auto existing = stg.find_dummy_transition(token);
        return {true, existing ? *existing : stg.add_dummy_transition(token)};
      }
    }
    const auto parsed = parse_transition_token(token);
    if (parsed) {
      const auto signal = stg.find_signal(parsed->signal);
      NSHOT_REQUIRE(signal.has_value(), "line " + std::to_string(line) + ": transition " + token +
                                            " uses undeclared signal " + parsed->signal);
      const auto existing = stg.find_transition(*signal, parsed->rising, parsed->instance);
      const TransitionId t =
          existing ? *existing : stg.add_transition(*signal, parsed->rising, parsed->instance);
      return {true, t};
    }
    const auto existing = stg.find_place(token);
    const PlaceId p = existing ? *existing : stg.add_place(token);
    return {false, p};
  };

  std::vector<std::pair<std::string, int>> marking_tokens;  // token, line

  while (std::getline(stream, raw)) {
    ++line_no;
    const std::string line = strip_comment_and_trim(raw);
    if (line.empty()) continue;
    const std::vector<std::string> tokens = split_ws(line);
    const std::string& head = tokens[0];

    if (head == ".model" || head == ".name") {
      if (tokens.size() >= 2) stg.set_name(tokens[1]);
    } else if (head == ".inputs" || head == ".outputs" || head == ".internal") {
      const SignalKind kind = head == ".inputs"    ? SignalKind::kInput
                              : head == ".outputs" ? SignalKind::kOutput
                                                   : SignalKind::kInternal;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        NSHOT_REQUIRE(!stg.find_signal(tokens[i]).has_value(),
                      "line " + std::to_string(line_no) + ": duplicate signal declaration " +
                          tokens[i]);
        stg.add_signal(tokens[i], kind);
      }
    } else if (head == ".dummy") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        NSHOT_REQUIRE(std::find(dummy_names.begin(), dummy_names.end(), tokens[i]) ==
                              dummy_names.end() &&
                          !stg.find_signal(tokens[i]).has_value(),
                      "line " + std::to_string(line_no) + ": duplicate declaration of " +
                          tokens[i]);
        dummy_names.push_back(tokens[i]);
      }
    } else if (head == ".graph") {
      in_graph = true;
    } else if (head == ".marking") {
      // Collect everything between { and } (may span the line only).
      std::string joined;
      for (std::size_t i = 1; i < tokens.size(); ++i) joined += tokens[i] + " ";
      const std::size_t open = joined.find('{');
      const std::size_t close = joined.find('}');
      NSHOT_REQUIRE(open != std::string::npos && close != std::string::npos && close > open,
                    "line " + std::to_string(line_no) + ": .marking must be { ... } on one line");
      std::string inside = joined.substr(open + 1, close - open - 1);
      // Angle-bracket tokens <t1,t2> denote implicit places; protect the
      // comma from the whitespace split by keeping tokens intact.
      for (const std::string& token : split_ws(inside)) marking_tokens.emplace_back(token, line_no);
    } else if (head == ".init") {
      // Extension: ".init a=0 b=1".
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        NSHOT_REQUIRE(eq != std::string::npos,
                      "line " + std::to_string(line_no) + ": .init expects name=0|1");
        const std::string name = tokens[i].substr(0, eq);
        const std::string value = tokens[i].substr(eq + 1);
        const auto signal = stg.find_signal(name);
        NSHOT_REQUIRE(signal.has_value(),
                      "line " + std::to_string(line_no) + ": unknown signal " + name);
        NSHOT_REQUIRE(value == "0" || value == "1",
                      "line " + std::to_string(line_no) + ": .init expects name=0|1");
        stg.set_initial_value(*signal, value == "1");
      }
    } else if (head == ".end") {
      break;
    } else if (head[0] == '.') {
      NSHOT_REQUIRE(false,
                    "line " + std::to_string(line_no) + ": unsupported directive " + head);
    } else {
      NSHOT_REQUIRE(in_graph, "line " + std::to_string(line_no) + ": arc outside .graph section");
      NSHOT_REQUIRE(tokens.size() >= 2,
                    "line " + std::to_string(line_no) + ": arc line needs source and target");
      const ArcEndpoint src = resolve(tokens[0], line_no);
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const ArcEndpoint dst = resolve(tokens[i], line_no);
        if (src.is_transition && dst.is_transition) {
          stg.connect(src.id, dst.id);
        } else if (src.is_transition && !dst.is_transition) {
          stg.add_arc_transition_to_place(src.id, dst.id);
        } else if (!src.is_transition && dst.is_transition) {
          stg.add_arc_place_to_transition(src.id, dst.id);
        } else {
          NSHOT_REQUIRE(false,
                        "line " + std::to_string(line_no) + ": place-to-place arc is illegal");
        }
      }
    }
  }

  // Resolve marking tokens: either an explicit place name or <t1,t2>.
  for (const auto& [token, line] : marking_tokens) {
    const auto place = stg.find_place(token);
    NSHOT_REQUIRE(place.has_value(),
                  "line " + std::to_string(line) + ": marked place " + token + " does not exist");
    stg.mark_place(*place, true);
  }

  NSHOT_REQUIRE(stg.num_transitions() > 0, ".g file declares no transitions");

  // Dangling transitions: an STG transition with no producing arc is
  // always enabled (fires unboundedly) and one with no consuming arc is a
  // sink; both are specification bugs that would otherwise only surface
  // as a reachability state-cap blowup.  Reject them here with the name.
  for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
    NSHOT_REQUIRE(!stg.preset(t).empty(), "transition " + stg.transition_name(t) +
                                              " is dangling: no arc produces its token");
    NSHOT_REQUIRE(!stg.postset(t).empty(), "transition " + stg.transition_name(t) +
                                               " is dangling: no arc consumes its token");
  }
  return stg;
}

std::string write_g(const Stg& stg) {
  std::ostringstream out;
  out << ".model " << (stg.name().empty() ? "unnamed" : stg.name()) << "\n";
  for (const auto& [directive, kind] :
       std::initializer_list<std::pair<const char*, SignalKind>>{
           {".inputs", SignalKind::kInput},
           {".outputs", SignalKind::kOutput},
           {".internal", SignalKind::kInternal}}) {
    std::string names;
    for (int i = 0; i < stg.num_signals(); ++i)
      if (stg.signal(i).kind == kind) names += " " + stg.signal(i).name;
    if (!names.empty()) out << directive << names << "\n";
  }
  std::string dummies;
  for (TransitionId t = 0; t < stg.num_transitions(); ++t)
    if (stg.transition(t).is_dummy()) dummies.append(" ").append(stg.transition_name(t));
  if (!dummies.empty()) out << ".dummy" << dummies << "\n";
  out << ".graph\n";
  // Emit place-centric arcs: every place appears as target then source.
  for (TransitionId t = 0; t < stg.num_transitions(); ++t)
    for (const PlaceId p : stg.postset(t)) out << stg.transition_name(t) << " " << stg.place_name(p)
                                               << "\n";
  for (TransitionId t = 0; t < stg.num_transitions(); ++t)
    for (const PlaceId p : stg.preset(t)) out << stg.place_name(p) << " " << stg.transition_name(t)
                                              << "\n";
  out << ".marking {";
  for (PlaceId p = 0; p < stg.num_places(); ++p)
    if (stg.initial_marking()[static_cast<std::size_t>(p)]) out << " " << stg.place_name(p);
  out << " }\n";
  std::string inits;
  for (int i = 0; i < stg.num_signals(); ++i)
    if (const auto v = stg.declared_initial_values()[static_cast<std::size_t>(i)])
      inits += " " + stg.signal(i).name + "=" + (*v ? "1" : "0");
  if (!inits.empty()) out << ".init" << inits << "\n";
  out << ".end\n";
  return out.str();
}

}  // namespace nshot::stg
