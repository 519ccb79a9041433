// Test 6 / Table 5: relative contributions of the steps inside naive and
// semi-naive LFP evaluation: temp-table management, RHS (or differential)
// evaluation, and termination checking.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void Run() {
  Banner("Test 6 / Table 5 - LFP evaluation breakdown",
         "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 6, Table 5",
         "RHS evaluation + termination checking dominate (~95% naive, ~85% "
         "semi-naive); naive's RHS/termination work is 2.5-3x semi-naive's");

  const int kDepth = SmokeSize(9, 6);
  const int kReps = Reps(5);
  auto tb = MakeAncestorTree(kDepth);
  datalog::Atom goal = TreeAncestorGoal(0);  // whole-tree closure

  TablePrinter table({"strategy", "t_temp", "t_rhs", "t_term", "t_total",
                      "temp_share", "rhs+term_share", "iterations"});
  lfp::ExecutionStats naive_stats;
  lfp::ExecutionStats semi_stats;
  for (auto [strategy, sink] :
       {std::pair{lfp::LfpStrategy::kNaive, &naive_stats},
        std::pair{lfp::LfpStrategy::kSemiNaive, &semi_stats}}) {
    testbed::QueryOptions opts =
        testbed::QueryOptions::SemiNaive().WithStrategy(strategy);
    std::vector<lfp::ExecutionStats> runs;
    for (int i = 0; i < kReps; ++i) {
      runs.push_back(Unwrap(tb->Query(goal, opts), "Query").report.exec);
    }
    std::sort(runs.begin(), runs.end(),
              [](const lfp::ExecutionStats& a, const lfp::ExecutionStats& b) {
                return a.t_total_us < b.t_total_us;
              });
    *sink = runs[runs.size() / 2];
    const lfp::ExecutionStats& s = *sink;
    double total = static_cast<double>(
        std::max<int64_t>(1, s.t_temp_us + s.t_rhs_us + s.t_term_us));
    table.AddRow({Label(lfp::StrategyName(strategy)), Us(s.t_temp_us),
                  Us(s.t_rhs_us), Us(s.t_term_us), Us(s.t_total_us),
                  Pct(s.t_temp_us / total),
                  Pct((s.t_rhs_us + s.t_term_us) / total),
                  Count(s.iterations)});
  }
  table.Print();

  std::printf("\nRHS+termination work ratio (naive / semi-naive): %s\n",
              FormatF(static_cast<double>(naive_stats.t_rhs_us +
                                          naive_stats.t_term_us) /
                          std::max<int64_t>(1, semi_stats.t_rhs_us +
                                                   semi_stats.t_term_us),
                      2)
                  .c_str());
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
