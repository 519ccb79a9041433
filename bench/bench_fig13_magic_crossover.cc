// Test 7 / Figure 13: query execution time versus query selectivity
// (D_rel/D_tot) with and without the generalized magic sets optimization,
// for both naive and semi-naive LFP evaluation. The paper reports a
// crossover (~72% selectivity for semi-naive, ~85% for naive) beyond which
// the optimization overhead outweighs its benefit, and
// orders-of-magnitude wins at very low selectivity.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void Run() {
  Banner("Test 7 / Figure 13 - magic sets on/off vs selectivity",
         "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 7, Figure 13",
         "without magic t_e is flat in selectivity; with magic t_e grows "
         "with selectivity; magic wins by orders of magnitude at low "
         "selectivity and loses past a high-selectivity crossover");

  auto run_series = [](int depth, bool index_edb, const char* caption) {
    const int kReps = Reps(3, 1);
    auto tb = MakeAncestorTree(depth, index_edb);
    const double dtot = static_cast<double>(workload::SubtreeSize(depth, 0));
    TablePrinter table({"level", "selectivity", "semi_plain", "semi_magic",
                        "naive_plain", "naive_magic", "semi_speedup",
                        "naive_speedup"});
    for (int level : Sweep({0, 1, 2, 3, 5, 7, 9})) {
      datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
      auto timed = [&](lfp::LfpStrategy strategy, bool magic) {
        testbed::QueryOptions opts =
            (magic ? testbed::QueryOptions::Magic()
                   : testbed::QueryOptions::SemiNaive())
                .WithStrategy(strategy);
        return MedianMicros(kReps, [&]() {
          return Unwrap(tb->Query(goal, opts), "Query").report.exec.t_total_us;
        });
      };
      int64_t sp = timed(lfp::LfpStrategy::kSemiNaive, false);
      int64_t sm = timed(lfp::LfpStrategy::kSemiNaive, true);
      int64_t np = timed(lfp::LfpStrategy::kNaive, false);
      int64_t nm = timed(lfp::LfpStrategy::kNaive, true);
      double sel = workload::SubtreeSize(depth, level) / dtot;
      table.AddRow({Count(level), Pct(sel), Us(sp), Us(sm), Us(np), Us(nm),
                    Ratio(static_cast<double>(sp) / sm),
                    Ratio(static_cast<double>(np) / nm)});
    }
    std::printf("%s\n\n", caption);
    table.Print();
    std::printf("\n");
  };

  run_series(SmokeSize(11, 7), /*index_edb=*/true,
             "Configuration A: indexed parent relation (depth-11 tree)");
  run_series(SmokeSize(10, 6), /*index_edb=*/false,
             "Configuration B: unindexed parent relation (depth-10 tree) - "
             "the magic LFP pays full scans per iteration, exposing the "
             "paper's high-selectivity crossover");
  std::printf(
      "speedup > 1 means the magic sets optimization wins; the crossover "
      "is where it drops below 1.\n");
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
