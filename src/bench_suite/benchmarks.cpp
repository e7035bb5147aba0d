#include "bench_suite/benchmarks.hpp"

#include "bench_suite/generators.hpp"
#include "util/error.hpp"

namespace nshot::bench_suite {
namespace {

using V = std::vector<std::string>;
using VV = std::vector<std::vector<std::string>>;

/// The OR-causality cell extended with a serial tail of `tail` output
/// signals between c+ completion and the acknowledge d+ (rising) and
/// symmetrically before d- (falling).  Used to scale the industrial
/// non-distributive interface circuits to their Table 2 state counts.
sg::StateGraph or_causality_cell_ext(const std::string& name, const std::string& prefix,
                                     int tail) {
  sg::StateGraph cell(name);
  const sg::SignalId a = cell.add_signal(prefix + "a", sg::SignalKind::kInput);
  const sg::SignalId b = cell.add_signal(prefix + "b", sg::SignalKind::kInput);
  const sg::SignalId c = cell.add_signal(prefix + "c", sg::SignalKind::kNonInput);
  const sg::SignalId d = cell.add_signal(prefix + "d", sg::SignalKind::kInput);
  std::vector<sg::SignalId> ts;
  for (int i = 0; i < tail; ++i)
    ts.push_back(cell.add_signal(prefix + "t" + std::to_string(i), sg::SignalKind::kNonInput));

  auto bit = [](sg::SignalId x) { return 1ULL << x; };
  const std::uint64_t tail_mask = [&] {
    std::uint64_t m = 0;
    for (const sg::SignalId t : ts) m |= bit(t);
    return m;
  }();

  // Rising half: a+ and b+ race to excite c+ (detonant initial state).
  const sg::StateId s0000 = cell.add_state(0);
  const sg::StateId s1000 = cell.add_state(bit(a));
  const sg::StateId s0100 = cell.add_state(bit(b));
  const sg::StateId s1100 = cell.add_state(bit(a) | bit(b));
  const sg::StateId s1010 = cell.add_state(bit(a) | bit(c));
  const sg::StateId s0110 = cell.add_state(bit(b) | bit(c));
  const sg::StateId s1110 = cell.add_state(bit(a) | bit(b) | bit(c));

  const sg::TransitionLabel ap{a, true}, am{a, false}, bp{b, true}, bm{b, false};
  const sg::TransitionLabel cp{c, true}, cm{c, false}, dp{d, true}, dm{d, false};

  cell.add_edge(s0000, ap, s1000);
  cell.add_edge(s0000, bp, s0100);
  cell.add_edge(s1000, bp, s1100);
  cell.add_edge(s1000, cp, s1010);
  cell.add_edge(s0100, ap, s1100);
  cell.add_edge(s0100, cp, s0110);
  cell.add_edge(s1100, cp, s1110);
  cell.add_edge(s1010, bp, s1110);
  cell.add_edge(s0110, ap, s1110);

  // Rising tail: t0+ ... t(k-1)+ in series, then d+.
  std::uint64_t high = bit(a) | bit(b) | bit(c);
  sg::StateId cursor = s1110;
  for (const sg::SignalId t : ts) {
    high |= bit(t);
    const sg::StateId next = cell.add_state(high);
    cell.add_edge(cursor, sg::TransitionLabel{t, true}, next);
    cursor = next;
  }
  high |= bit(d);
  const sg::StateId s_all = cell.add_state(high);  // a b c d and tail all high
  cell.add_edge(cursor, dp, s_all);

  // Falling half: a- and b- race to excite c- (detonant state s_all).
  const std::uint64_t base = bit(d) | tail_mask;  // stays high while abc fall
  const sg::StateId f011 = cell.add_state(base | bit(b) | bit(c));
  const sg::StateId f101 = cell.add_state(base | bit(a) | bit(c));
  const sg::StateId f001 = cell.add_state(base | bit(c));
  const sg::StateId f010 = cell.add_state(base | bit(b));
  const sg::StateId f100 = cell.add_state(base | bit(a));
  const sg::StateId f000 = cell.add_state(base);

  cell.add_edge(s_all, am, f011);
  cell.add_edge(s_all, bm, f101);
  cell.add_edge(f011, bm, f001);
  cell.add_edge(f011, cm, f010);
  cell.add_edge(f101, am, f001);
  cell.add_edge(f101, cm, f100);
  cell.add_edge(f001, cm, f000);
  cell.add_edge(f010, bm, f000);
  cell.add_edge(f100, am, f000);

  // Falling tail: t0- ... t(k-1)-, then d- closes the cycle.
  std::uint64_t low = base;
  cursor = f000;
  for (const sg::SignalId t : ts) {
    low &= ~bit(t);
    const sg::StateId next = cell.add_state(low);
    cell.add_edge(cursor, sg::TransitionLabel{t, false}, next);
    cursor = next;
  }
  cell.add_edge(cursor, dm, s0000);
  cell.set_initial(s0000);
  return cell;
}

/// read-write core: the output c fires twice per cycle, triggered by the
/// two instances of input a; the d/e context of the two excitation regions
/// overlaps in code space, so a single monotonous cube per region cannot
/// exist (the SYN-style baseline must add state signals — Table 2 note (2))
/// while CSC still holds (the shared code has identical non-input
/// excitation in both phases).
const char* kReadWriteCoreG = R"(
.model read-write-core
.inputs a d e
.outputs c
.graph
a+/1 c+/1 d+
c+/1 a-/1
d+ a-/1
a-/1 c-/1
c-/1 a+/2
a+/2 c+/2 e+
c+/2 a-/2
e+ a-/2
a-/2 c-/2
c-/2 d- e-
d- a+/1
e- a+/1
.marking { <d-,a+> <e-,a+> }
.end
)";

std::vector<BenchmarkInfo> make_registry() {
  std::vector<BenchmarkInfo> list;
  auto add = [&list](BenchmarkInfo info) { list.push_back(std::move(info)); };

  // ---- first part of Table 2: distributive specifications ---------------
  add({"chu133", 24, "352/5.2", "232/4.8", "256/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "chu133", {"a", "b"}, {"c", "d", "e"},
             VV{{"a+", "b+", "c+", "d+"}, {"e+"}, {"a-", "b-"}, {"c-", "d-"}, {"e-"}}));
       }});
  add({"chu150", 26, "232/7.0", "240/4.8", "240/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "chu150", {"a", "b"}, {"c", "d", "e"},
             VV{{"a+", "b+", "c+", "d+"}, {"e+"}, {"c-", "d-"}, {"a-", "b-"}, {"e-"}}));
       }});
  add({"chu172", 12, "104/1.6", "152/3.6", "120/2.4", false, false, [] {
         return build_g(staged_cycle_g("chu172", {"a", "b"}, {"c", "d"},
                                       VV{{"a+", "b+"}, {"c+", "d+"}, {"a-", "b-"},
                                          {"c-", "d-"}}));
       }});
  add({"converta", 18, "432/6.8", "496/6.0", "488/4.8", false, false, [] {
         return build_g(choice_cycle_g(
             "converta", {"r", "s"}, {"a", "c", "d", "e"},
             VV{{"r+", "a+", "c+", "r-", "a-", "c-"},
                {"s+", "d+", "a+/2", "c+/2", "e+", "s-", "d-", "a-/2", "c-/2", "e-"}}));
       }});
  add({"ebergen", 18, "280/5.6", "344/4.8", "312/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "ebergen", {"a", "d"}, {"b", "c", "e"},
             VV{{"a+", "b+", "c+"}, {"d+"}, {"e+"}, {"a-", "b-", "c-"}, {"d-"}, {"e-"}}));
       }});
  add({"full", 16, "224/5.2", "240/4.8", "240/4.8", false, false, [] {
         return build_g(staged_cycle_g("full", {"a", "b"}, {"c", "d"},
                                       VV{{"a+", "b+", "c+"}, {"d+"}, {"a-", "b-", "c-"},
                                          {"d-"}}));
       }});
  add({"hazard", 12, "296/6.6", "256/4.8", "232/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "hazard", {"a", "b"}, {"c", "d", "e"},
             VV{{"a+", "b+"}, {"c+"}, {"d+"}, {"e+"}, {"a-", "b-"}, {"c-"}, {"d-"}, {"e-"}}));
       }});
  add({"hybridf", 80, "274/6.6", "352/4.8", "336/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "hybridf", {"a", "b", "c"}, {"d", "e", "f", "g", "h"},
             VV{{"a+", "b+", "c+", "d+", "e+"},
                {"f+", "g+", "h+"},
                {"a-", "b-", "c-", "d-", "e-"},
                {"f-", "g-", "h-"}}));
       }});
  add({"pe-send-ifc", 117, "1232/12.2", "1832/6.0", "1408/6.0", false, false, [] {
         return build_g(staged_cycle_g(
             "pe-send-ifc", {"a", "b", "c"}, {"d", "e", "f", "g"},
             VV{{"a+", "b+", "c+", "d+", "e+", "f+"},
                {"g+"},
                {"a-", "b-", "c-", "d-", "e-", "f-"},
                {"g-"}}));
       }});
  add({"qr42", 18, "280/5.6", "344/4.8", "312/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "qr42", {"r1", "r2"}, {"a", "b", "c"},
             VV{{"r1+", "r2+", "a+"}, {"b+"}, {"c+"}, {"r1-", "r2-", "a-"}, {"b-"}, {"c-"}}));
       }});
  add({"vbe10b", 256, "1008/10.0", "800/4.8", "744/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "vbe10b", {"x", "b1", "b2", "b3"}, {"b4", "b5", "b6", "b7"},
             VV{{"x+"},
                {"b1+", "b2+", "b3+", "b4+", "b5+", "b6+", "b7+"},
                {"x-"},
                {"b1-", "b2-", "b3-", "b4-", "b5-", "b6-", "b7-"}}));
       }});
  add({"vbe5b", 24, "272/4.2", "240/3.6", "240/3.6", false, false, [] {
         return build_g(staged_cycle_g(
             "vbe5b", {"a", "b"}, {"c", "d", "e"},
             VV{{"a+", "b+", "c+"}, {"d+", "e+"}, {"a-", "b-", "c-"}, {"d-", "e-"}}));
       }});
  add({"wrdatab", 216, "824/4.8", "840/4.8", "760/4.8", false, false, [] {
         return build_g(parallel_chains_g(
             "wrdatab", "m", /*master_is_input=*/true,
             VV{{"r1", "p1"}, {"r2", "p2"}, {"r3", "p3"}, {"r4", "p4", "q4"}},
             /*inputs=*/{"r1", "r2", "r3", "r4"},
             /*outputs=*/{"p1", "p2", "p3", "p4", "q4"}));
       }});
  add({"sbuf-send-ctl", 27, "408/5.2", "696/4.8", "320/3.6", false, false, [] {
         return build_g(staged_cycle_g(
             "sbuf-send-ctl", {"a", "b"}, {"c", "d", "e"},
             VV{{"a+", "b+", "c+", "d+"}, {"e+"}, {"a-", "b-", "c-", "d-"}, {"e-"}}));
       }});
  add({"pr-rcv-ifc", 65, "1176/9.8", "1640/6.0", "1144/4.8", false, false, [] {
         return build_g(staged_cycle_g(
             "pr-rcv-ifc", {"a", "b", "c"}, {"d", "e", "f", "g"},
             VV{{"a+", "b+", "c+", "d+", "e+"},
                {"f+", "g+"},
                {"a-", "b-", "c-", "d-", "e-"},
                {"f-", "g-"}}));
       }});
  add({"master-read", 2108, "1016/6.4", "880/4.8", "824/4.8", false, false, [] {
         return build_g(parallel_chains_g(
             "master-read", "m", /*master_is_input=*/true,
             VV{{"r1", "p1", "q1"}, {"r2", "p2", "q2"}, {"r3", "p3", "q3"},
                {"r4", "p4", "q4"}, {"r5", "p5", "q5"}},
             /*inputs=*/{"r1", "r2", "r3", "r4", "r5"},
             /*outputs=*/{"p1", "q1", "p2", "q2", "p3", "q3", "p4", "q4", "p5", "q5"}));
       }});
  add({"read-write", 315, "740/7.6", "(2)", "608/6", false, false, [] {
         const sg::StateGraph core = build_g(kReadWriteCoreG);
         const sg::StateGraph ring = build_g(staged_cycle_g(
             "ring", {"f", "h", "j", "l"}, {"g", "i", "k"},
             VV{{"f+", "g+"}, {"h+", "i+"}, {"j+", "k+"}, {"l+", "f-"}, {"g-", "h-"},
                {"i-", "j-"}, {"k-", "l-"}}));
         return sg_product(core, ring, "read-write");
       }});
  add({"tsbmsi", 1023, "(4)", "960/4.8", "928/4.8", false, true, [] {
         VV chains;
         std::vector<std::string> ins, outs;
         for (int i = 1; i <= 9; ++i) {
           const std::string b = std::string("b").append(std::to_string(i));
           chains.push_back({b});
           (i <= 4 ? ins : outs).push_back(b);
         }
         return build_g(parallel_chains_g("tsbmsi", "m", true, chains, ins, outs));
       }});
  add({"tsbmsiBRK", 4729, "(4)", "(3)", "1648/4.8", false, true, [] {
         VV chains;
         std::vector<std::string> ins, outs;
         for (int i = 1; i <= 11; ++i) {
           const std::string b = std::string("b").append(std::to_string(i));
           chains.push_back({b});
           (i <= 5 ? ins : outs).push_back(b);
         }
         return build_g(parallel_chains_g("tsbmsiBRK", "m", true, chains, ins, outs));
       }});

  // ---- second part of Table 2: non-distributive industrial designs ------
  add({"pmcm1", 26, "(1)", "(1)", "304/4.8", true, false,
       [] { return or_causality_cell_ext("pmcm1", "", 6); }});
  add({"pmcm2", 13, "(1)", "(1)", "160/3.6", true, false,
       [] { return or_causality_cell_ext("pmcm2", "", 0); }});
  add({"combuf1", 32, "(1)", "(1)", "480/4.8", true, false,
       [] { return or_causality_cell_ext("combuf1", "", 9); }});
  add({"combuf2", 24, "(1)", "(1)", "456/4.8", true, false,
       [] { return or_causality_cell_ext("combuf2", "", 5); }});
  add({"sing2dual-inp", 65, "(1)", "(1)", "386/4.8", true, false, [] {
         const sg::StateGraph cell = or_causality_cell("cell", "u");
         const sg::StateGraph ring = build_g(staged_cycle_g(
             "ring", {"x"}, {"y"}, VV{{"x+"}, {"y+"}, {"x-"}, {"y-"}}));
         return sg_product(cell, ring, "sing2dual-inp");
       }});
  add({"sing2dual-out", 204, "(1)", "(1)", "648/3.6", true, false, [] {
         const sg::StateGraph left = or_causality_cell("left", "u");
         const sg::StateGraph right = or_causality_cell("right", "v");
         return sg_product(left, right, "sing2dual-out");
       }});

  return list;
}

}  // namespace

const std::vector<BenchmarkInfo>& all_benchmarks() {
  static const std::vector<BenchmarkInfo> registry = make_registry();
  return registry;
}

const BenchmarkInfo& find_benchmark(const std::string& name) {
  for (const BenchmarkInfo& info : all_benchmarks())
    if (info.name == name) return info;
  NSHOT_REQUIRE(false, "unknown benchmark " + name);
  return all_benchmarks().front();  // unreachable
}

sg::StateGraph build_benchmark(const std::string& name) { return find_benchmark(name).build(); }

sg::StateGraph build_read_write_core() { return build_g(kReadWriteCoreG); }

}  // namespace nshot::bench_suite
