// Golden-result regression pins: the exact synthesis outcome (state count,
// cover size, literal count, area, delay) for every Table 2 benchmark.
// The whole flow is deterministic, so any diff here is a real change in
// minimization or architecture quality — update the table deliberately
// (and re-check EXPERIMENTS.md) if an algorithm improvement moves them.
#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "nshot/synthesis.hpp"

namespace nshot {
namespace {

struct Golden {
  const char* name;
  int states;
  std::size_t cubes;
  int literals;
  double area;
  double delay;
};

constexpr Golden kGolden[] = {
    {"chu133", 23, 4, 10, 376, 3.6},
    {"chu150", 23, 4, 8, 360, 3.6},
    {"chu172", 12, 2, 4, 224, 3.6},
    {"converta", 15, 9, 11, 536, 4.8},
    {"ebergen", 18, 4, 4, 328, 3.6},
    {"full", 16, 4, 8, 272, 3.6},
    {"hazard", 12, 6, 8, 376, 3.6},
    {"hybridf", 76, 4, 16, 664, 4.8},
    {"pe-send-ifc", 128, 4, 14, 560, 4.8},
    {"qr42", 18, 6, 10, 392, 3.6},
    {"vbe10b", 256, 2, 2, 384, 3.6},
    {"vbe5b", 20, 4, 10, 376, 3.6},
    {"wrdatab", 216, 10, 10, 600, 3.6},
    {"sbuf-send-ctl", 32, 4, 10, 376, 3.6},
    {"pr-rcv-ifc", 68, 4, 14, 560, 4.8},
    {"master-read", 2048, 20, 20, 1200, 3.6},
    {"read-write", 315, 8, 14, 528, 3.6},
    {"tsbmsi", 1024, 2, 2, 472, 3.6},
    {"tsbmsiBRK", 4096, 2, 2, 560, 3.6},
    {"pmcm1", 26, 16, 24, 1000, 4.8},
    {"pmcm2", 14, 4, 8, 248, 4.8},
    {"combuf1", 32, 22, 30, 1360, 4.8},
    {"combuf2", 24, 14, 22, 880, 4.8},
    {"sing2dual-inp", 56, 6, 10, 368, 4.8},
    {"sing2dual-out", 196, 8, 16, 496, 4.8},
};

// Print the benchmark name, not gtest's default byte dump of the struct: the
// dump includes the `name` pointer, so ctest's discovered test names would
// change on every run under ASLR.
void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

class GoldenResultsTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenResultsTest, SynthesisOutcomeIsPinned) {
  const Golden& expected = GetParam();
  const sg::StateGraph g = bench_suite::build_benchmark(expected.name);
  EXPECT_EQ(g.num_states(), expected.states);
  const core::SynthesisResult result = core::synthesize(g);
  EXPECT_EQ(result.cover.size(), expected.cubes);
  EXPECT_EQ(result.cover.literal_count(), expected.literals);
  EXPECT_DOUBLE_EQ(result.stats.area, expected.area);
  EXPECT_DOUBLE_EQ(result.stats.delay, expected.delay);
}

INSTANTIATE_TEST_SUITE_P(Table2, GoldenResultsTest, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace nshot
