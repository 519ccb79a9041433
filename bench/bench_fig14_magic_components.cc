// Test 7 / Figure 14: with magic sets enabled, the execution splits into
// two LFP computations — the magic-rules clique (computes the relevant-fact
// set) and the modified-rules clique (computes answers against it). This
// bench times each as a function of query selectivity.

#include "bench_setup.h"
#include "magic/adornment.h"

namespace dkb::bench {
namespace {

void Run() {
  Banner("Test 7 / Figure 14 - magic vs modified rules LFP time",
         "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 7, Figure 14",
         "the modified-rules evaluation is more selectivity-sensitive than "
         "the magic-rules evaluation (it computes D_rel-sized closures)");

  const int kDepth = SmokeSize(11, 7);
  const int kReps = Reps(3, 1);
  auto tb = MakeAncestorTree(kDepth);
  const double dtot = static_cast<double>(workload::SubtreeSize(kDepth, 0));

  TablePrinter table({"level", "selectivity", "t_magic_clique",
                      "t_modified_clique", "magic_tuples",
                      "modified_tuples"});
  for (int level : Sweep({1, 2, 3, 4, 5, 7, 9})) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    testbed::QueryOptions opts = testbed::QueryOptions::Magic();

    int64_t t_magic = 0;
    int64_t t_modified = 0;
    int64_t n_magic = 0;
    int64_t n_modified = 0;
    MedianMicros(kReps, [&]() {
      auto outcome = Unwrap(tb->Query(goal, opts), "Query");
      t_magic = t_modified = n_magic = n_modified = 0;
      for (const lfp::NodeStats& ns : outcome.report.exec.nodes) {
        // A node's label is its predicate list; magic cliques contain only
        // magic predicates.
        bool is_magic = magic::IsMagicPredicateName(ns.label);
        if (is_magic) {
          t_magic += ns.t_us;
          n_magic += ns.tuples;
        } else {
          t_modified += ns.t_us;
          n_modified += ns.tuples;
        }
      }
      return outcome.report.exec.t_total_us;
    });
    double sel = workload::SubtreeSize(kDepth, level) / dtot;
    table.AddRow({Count(level), Pct(sel), Us(t_magic), Us(t_modified),
                  Count(n_magic), Count(n_modified)});
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
