#include "logic/pla.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace nshot::logic {
namespace {

constexpr std::uint64_t kMaxRowMinterms = 1ULL << 20;

/// Enumerate the minterms of an input pattern over {0,1,-}.
void for_each_minterm(const std::string& pattern, auto&& fn) {
  std::vector<int> free_vars;
  std::uint64_t base = 0;
  for (std::size_t v = 0; v < pattern.size(); ++v) {
    switch (pattern[v]) {
      case '1': base |= (1ULL << v); break;
      case '0': break;
      case '-': free_vars.push_back(static_cast<int>(v)); break;
      default: NSHOT_REQUIRE(false, std::string("bad PLA input character '") + pattern[v] + "'");
    }
  }
  NSHOT_REQUIRE_CODE(free_vars.size() < 63 && (1ULL << free_vars.size()) <= kMaxRowMinterms,
                     ErrorCode::kResourceExhausted, "PLA row expands to too many minterms");
  const std::uint64_t count = 1ULL << free_vars.size();
  for (std::uint64_t k = 0; k < count; ++k) {
    std::uint64_t code = base;
    for (std::size_t b = 0; b < free_vars.size(); ++b)
      if ((k >> b) & 1ULL) code |= (1ULL << free_vars[b]);
    fn(code);
  }
}

}  // namespace

PlaFile parse_pla(const std::string& text) {
  check_parser_text(text, "PLA text");
  std::istringstream stream(text);
  std::string line;
  int num_inputs = -1, num_outputs = -1, line_no = 0;
  std::vector<std::string> input_names, output_names;
  struct Row {
    std::string in, out;
    int line;
  };
  std::vector<Row> rows;

  while (std::getline(stream, line)) {
    ++line_no;
    const std::string clean = strip_comment_and_trim(line);
    if (clean.empty()) continue;
    const std::string where = "line " + std::to_string(line_no);
    const std::vector<std::string> tokens = split_ws(clean);
    if (tokens[0] == ".i") {
      NSHOT_REQUIRE(tokens.size() == 2, where + ": .i expects one argument");
      num_inputs = parse_int(tokens[1], 0, 63, where + ": .i");
    } else if (tokens[0] == ".o") {
      NSHOT_REQUIRE(tokens.size() == 2, where + ": .o expects one argument");
      num_outputs = parse_int(tokens[1], 1, 4096, where + ": .o");
    } else if (tokens[0] == ".ilb") {
      input_names.assign(tokens.begin() + 1, tokens.end());
    } else if (tokens[0] == ".ob") {
      output_names.assign(tokens.begin() + 1, tokens.end());
    } else if (tokens[0] == ".p" || tokens[0] == ".type") {
      continue;  // informational
    } else if (tokens[0] == ".e" || tokens[0] == ".end") {
      break;
    } else if (tokens[0][0] == '.') {
      NSHOT_REQUIRE(false, where + ": unsupported PLA directive " + tokens[0]);
    } else {
      NSHOT_REQUIRE(tokens.size() == 2, where + ": PLA row must be <inputs> <outputs>");
      rows.push_back(Row{tokens[0], tokens[1], line_no});
    }
  }
  NSHOT_REQUIRE(num_inputs >= 0 && num_outputs >= 1, "PLA file missing .i/.o");

  TwoLevelSpec spec(num_inputs, num_outputs);
  for (const Row& row : rows) {
    const std::string where = "line " + std::to_string(row.line);
    NSHOT_REQUIRE(static_cast<int>(row.in.size()) == num_inputs,
                  where + ": PLA row input width mismatch");
    NSHOT_REQUIRE(static_cast<int>(row.out.size()) == num_outputs,
                  where + ": PLA row output width mismatch");
    for_each_minterm(row.in, [&](std::uint64_t code) {
      for (int o = 0; o < num_outputs; ++o) {
        switch (row.out[static_cast<std::size_t>(o)]) {
          case '1': spec.add_on(o, code); break;
          case '0': spec.add_off(o, code); break;
          case '-': case '~': break;  // don't care
          default:
            NSHOT_REQUIRE(false, where + ": bad PLA output character");
        }
      }
    });
  }
  spec.normalize();
  return PlaFile{std::move(spec), std::move(input_names), std::move(output_names)};
}

std::string write_pla(const Cover& cover) {
  std::ostringstream out;
  out << ".i " << cover.num_inputs() << "\n.o " << cover.num_outputs() << "\n.p " << cover.size()
      << "\n";
  for (const Cube& cube : cover) {
    for (int v = 0; v < cover.num_inputs(); ++v) {
      const bool lo = (cube.lo() >> v) & 1ULL;
      const bool hi = (cube.hi() >> v) & 1ULL;
      out << (lo && hi ? '-' : hi ? '1' : '0');
    }
    out << ' ';
    for (int o = 0; o < cover.num_outputs(); ++o) out << (cube.has_output(o) ? '1' : '-');
    out << "\n";
  }
  out << ".e\n";
  return out.str();
}

}  // namespace nshot::logic
