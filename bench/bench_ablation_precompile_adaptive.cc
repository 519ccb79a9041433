// Ablations for the paper's conclusions #3 and #4:
//  * precompiled queries amortize compilation for repeated goals, at the
//    price of invalidation bookkeeping on updates;
//  * the dynamic optimization decision ("switch magic on for low
//    selectivity, off for others") tracks the better of the two static
//    policies across the selectivity range.

#include "bench_setup.h"
#include "common/timer.h"

namespace dkb::bench {
namespace {

void RunPrecompile() {
  Banner("Ablation - precompiled queries (conclusion #3)",
         "SIGMOD'88 D/KB testbed, Conclusions, item 3",
         "precompilation pays for frequently occurring queries with large "
         "R_rs; updates pay an invalidation cost");

  TablePrinter table({"R_rs", "t_first_total", "t_cached_total",
                      "compile_saved", "speedup"});
  for (int rrs : Sweep({1, 7, 20, 40})) {
    StoredRuleBaseFixture fx = MakeStoredRuleBase(SmokeSize(200, 100), rrs);
    datalog::Atom goal;
    goal.predicate = fx.rulebase.query_pred;
    goal.args = {datalog::Term::Constant(Value("k")),
                 datalog::Term::Variable("W")};
    testbed::QueryOptions opts =
        testbed::QueryOptions::SemiNaive().WithCache();
    auto first = Unwrap(fx.tb->Query(goal, opts), "first query");
    int64_t t_first = first.report.compile.total_us() + first.report.exec.t_total_us;
    int64_t t_cached = MedianMicros(Reps(9), [&]() {
      auto outcome = Unwrap(fx.tb->Query(goal, opts), "cached query");
      return outcome.report.compile.total_us() + outcome.report.exec.t_total_us;
    });
    table.AddRow({Count(rrs), Us(t_first), Us(t_cached),
                  Us(first.report.compile.total_us()),
                  Ratio(static_cast<double>(t_first) /
                        std::max<int64_t>(1, t_cached))});
  }
  table.Print();
}

void RunAdaptive() {
  Banner("Ablation - dynamic magic-sets decision (conclusion #4)",
         "SIGMOD'88 D/KB testbed, Conclusions, item 4 / Section 4.2 step 5",
         "the adaptive policy should track the better static policy on both "
         "sides of the selectivity crossover");

  const int kDepth = SmokeSize(10, 6);
  const int kReps = Reps(3, 1);
  // Unindexed EDB: the configuration where always-on magic actually loses
  // at high selectivity (see bench_fig13).
  auto tb = MakeAncestorTree(kDepth, /*index_edb=*/false);
  const double dtot = static_cast<double>(workload::SubtreeSize(kDepth, 0));

  TablePrinter table({"level", "selectivity", "t_off", "t_on", "t_adaptive",
                      "adaptive_chose_magic"});
  for (int level : Sweep({0, 1, 2, 4, 6, 8})) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    auto timed = [&](bool magic, bool adaptive, bool* chose) {
      testbed::QueryOptions opts =
          adaptive ? testbed::QueryOptions::Adaptive()
          : magic  ? testbed::QueryOptions::Magic()
                   : testbed::QueryOptions::SemiNaive();
      return MedianMicros(kReps, [&]() {
        auto outcome = Unwrap(tb->Query(goal, opts), "query");
        if (chose != nullptr) *chose = outcome.report.compile.magic_applied;
        // Include compilation: the adaptive estimate is a compile-time cost.
        return outcome.report.compile.total_us() + outcome.report.exec.t_total_us;
      });
    };
    bool chose = false;
    int64_t t_off = timed(false, false, nullptr);
    int64_t t_on = timed(true, false, nullptr);
    int64_t t_adaptive = timed(false, true, &chose);
    double sel = workload::SubtreeSize(kDepth, level) / dtot;
    table.AddRow({Count(level), Pct(sel), Us(t_off), Us(t_on),
                  Us(t_adaptive), Label(chose ? "yes" : "no")});
  }
  table.Print();
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::RunPrecompile();
  dkb::bench::RunAdaptive();
  return 0;
}
