// Test 2 / Figure 10: data-dictionary read time t_read as a function of the
// number of derived predicates relevant to the query, P_rs.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void Run() {
  Banner("Test 2 / Figure 10 - t_read vs P_rs",
         "SIGMOD'88 D/KB testbed, Section 5.3.1.1 Test 2, Figure 10",
         "t_read grows with P_rs (dictionary-join selectivity)");

  const int kPs = SmokeSize(400, 100);
  const std::vector<int> kPrs = Sweep({1, 2, 4, 8, 16, 32, 64});
  const int kReps = Reps(15);

  TablePrinter table({"P_rs", "t_read"});
  for (int prs : kPrs) {
    StoredRuleBaseFixture fx = MakeStoredRuleBase(kPs, prs);
    datalog::Atom goal;
    goal.predicate = fx.rulebase.query_pred;
    goal.args = {datalog::Term::Constant(Value("k")),
                 datalog::Term::Variable("W")};
    int64_t median = MedianMicros(kReps, [&]() {
      km::CompilationStats stats;
      testbed::QueryOptions opts;
      Unwrap(fx.tb->CompileOnly(goal, opts, &stats), "CompileOnly");
      return stats.t_read_us;
    });
    table.AddRow({Count(prs), Us(median)});
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
