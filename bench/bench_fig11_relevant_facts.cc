// Test 4 / Figure 11: query execution time t_e as a function of the
// relevant-fact fraction D_rel / D_tot, varied two ways (no optimization,
// semi-naive evaluation).

#include "bench_setup.h"
#include "common/timer.h"

namespace dkb::bench {
namespace {

int64_t TimeQuery(testbed::Testbed* tb, const datalog::Atom& goal,
                  testbed::QueryOptions opts, int reps,
                  size_t* answers = nullptr) {
  return MedianMicros(reps, [&]() {
    auto outcome = Unwrap(tb->Query(goal, opts), "Query");
    if (answers != nullptr) *answers = outcome.result.rows.size();
    return outcome.report.exec.t_total_us;
  });
}

void Run() {
  Banner("Test 4 / Figure 11 - t_e vs D_rel/D_tot",
         "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 4, Figure 11",
         "without magic, t_e is insensitive to D_rel when D_tot is fixed "
         "(full closure is computed regardless) and grows with D_tot when "
         "D_rel is fixed");

  testbed::QueryOptions opts;  // semi-naive, no magic
  const int kReps = Reps(5);

  // Method 1: fix D_tot (a depth-10 tree), vary D_rel by rooting the query
  // at sub-trees of different levels.
  {
    const int kDepth = SmokeSize(10, 6);
    auto tb = MakeAncestorTree(kDepth);
    const double dtot =
        static_cast<double>(workload::SubtreeSize(kDepth, 0));
    TablePrinter table({"query_root_level", "D_rel/D_tot", "answers", "t_e"});
    for (int level : Sweep({0, 1, 2, 4, 6, 8})) {
      size_t answers = 0;
      int64_t t = TimeQuery(tb.get(), TreeAncestorGoal(LeftmostAtLevel(level)),
                            opts, kReps, &answers);
      double drel = static_cast<double>(workload::SubtreeSize(kDepth, level));
      table.AddRow({Count(level), Ratio(drel / dtot, 4),
                    Count(static_cast<int64_t>(answers)), Us(t)});
    }
    std::printf("Method 1: D_tot fixed (depth-%d tree, %lld tuples), query "
                "moves to smaller sub-trees\n\n",
                kDepth,
                static_cast<long long>(workload::SubtreeSize(kDepth, 0) - 1));
    table.Print();
  }

  // Method 2: fix D_rel (a depth-5 sub-tree) and grow the parent relation.
  {
    TablePrinter table({"tree_depth", "D_tot", "D_rel/D_tot", "t_e"});
    for (int depth : Sweep({6, 7, 8, 9, 10, 11})) {
      auto tb = MakeAncestorTree(depth);
      // Query at the leftmost node `depth-5` levels down: its sub-tree has
      // depth 5 (31 nodes) in every tree.
      int level = depth - 5;
      int64_t t = TimeQuery(tb.get(),
                            TreeAncestorGoal(LeftmostAtLevel(level)), opts,
                            kReps);
      double dtot = static_cast<double>(workload::SubtreeSize(depth, 0));
      double drel = static_cast<double>(workload::SubtreeSize(depth, level));
      table.AddRow({Count(depth), Count(static_cast<int64_t>(dtot - 1)),
                    Ratio(drel / dtot, 4), Us(t)});
    }
    std::printf("\nMethod 2: D_rel fixed (depth-5 sub-tree), parent relation "
                "grows\n\n");
    table.Print();
  }
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
