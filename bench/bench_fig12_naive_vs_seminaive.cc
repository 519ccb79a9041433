// Test 5 / Figure 12: the impact of redundant work — naive vs semi-naive
// LFP evaluation across queries of varying relevant-fact fraction.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void Run() {
  Banner("Test 5 / Figure 12 - naive vs semi-naive t_e",
         "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 5, Figure 12",
         "semi-naive is roughly 2.5-3x faster than naive (redundant "
         "recomputation avoided)");

  const int kDepth = SmokeSize(9, 6);
  const int kReps = Reps(5);
  auto tb = MakeAncestorTree(kDepth);
  const double dtot = static_cast<double>(workload::SubtreeSize(kDepth, 0));

  TablePrinter table({"query_root_level", "D_rel/D_tot", "t_e_naive",
                      "t_e_seminaive", "naive/seminaive"});
  for (int level : Sweep({0, 1, 2, 3, 4})) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    testbed::QueryOptions naive = testbed::QueryOptions::Naive();
    testbed::QueryOptions semi = testbed::QueryOptions::SemiNaive();
    int64_t tn = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, naive), "naive").report.exec.t_total_us;
    });
    int64_t ts = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, semi), "semi").report.exec.t_total_us;
    });
    double drel = static_cast<double>(workload::SubtreeSize(kDepth, level));
    table.AddRow({Count(level), Ratio(drel / dtot, 4), Us(tn), Us(ts),
                  Ratio(static_cast<double>(tn) / ts)});
  }
  table.Print();
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
