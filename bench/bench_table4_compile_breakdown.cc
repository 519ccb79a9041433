// Test 3 / Table 4: relative contributions of the D/KB query compilation
// steps as R_rs grows.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void Run() {
  Banner("Test 3 / Table 4 - compilation time breakdown",
         "SIGMOD'88 D/KB testbed, Section 5.3.1.1 Test 3, Table 4",
         "the t_extract share grows sharply with R_rs (25% -> 67% in the "
         "paper as R_rs goes 1 -> 20)");

  const int kRs = SmokeSize(200, 100);
  const std::vector<int> kRrs = Sweep({1, 7, 20});
  const int kReps = Reps(15);

  TablePrinter table({"R_rs", "t_setup", "t_extract", "t_read", "t_eol",
                      "t_sem", "t_gen", "t_comp", "total",
                      "extract_share"});
  for (int rrs : kRrs) {
    StoredRuleBaseFixture fx = MakeStoredRuleBase(kRs, rrs);
    datalog::Atom goal;
    goal.predicate = fx.rulebase.query_pred;
    goal.args = {datalog::Term::Constant(Value("k")),
                 datalog::Term::Variable("W")};
    // Median the whole breakdown by picking the run with median total.
    std::vector<km::CompilationStats> runs;
    for (int i = 0; i < kReps; ++i) {
      km::CompilationStats stats;
      testbed::QueryOptions opts;
      Unwrap(fx.tb->CompileOnly(goal, opts, &stats), "CompileOnly");
      runs.push_back(stats);
    }
    std::sort(runs.begin(), runs.end(),
              [](const km::CompilationStats& a, const km::CompilationStats& b) {
                return a.total_us() < b.total_us();
              });
    const km::CompilationStats& s = runs[runs.size() / 2];
    table.AddRow({Count(rrs), Us(s.t_setup_us), Us(s.t_extract_us),
                  Us(s.t_read_us), Us(s.t_eol_us), Us(s.t_sem_us),
                  Us(s.t_gen_us), Us(s.t_comp_us), Us(s.total_us()),
                  Pct(static_cast<double>(s.t_extract_us) /
                      std::max<int64_t>(1, s.total_us()))});
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
