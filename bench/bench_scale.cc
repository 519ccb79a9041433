// Ten times the paper's data: the Figure 12 / Figure 13 semi-naive
// workloads on a depth-13 tree (~16k parent edges, vs the paper's depth-9
// ~1k), on one default testbed. At this size the rows one termination
// step hashes (`new` plus the rows `full` gained since the last step) pass
// ParallelismPolicy::hash_build_min_rows in the larger iterations, so on a
// multi-core host the semi-naive seen-set partitions are probed
// concurrently on the global pool; t_term (Table 5's termination bucket)
// is reported next to t_e so its share of each cell stays visible.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_setup.h"
#include "common/thread_pool.h"

namespace dkb::bench {
namespace {

int64_t Median(std::vector<int64_t> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void Run() {
  Banner("Scale - fig12/fig13 workloads at 10x the paper's data",
         "SIGMOD'88 D/KB testbed, Tests 5/7 rerun at 10x the paper's data "
         "size",
         "t_term stays a small share of t_e: the termination step's "
         "seen-set persists across iterations, partitioned on multi-core "
         "hosts");

  const int kDepth = SmokeSize(13, 6);
  const int kReps = Reps(3, 1);
  auto tb = MakeAncestorTree(kDepth);
  BenchOutput().Add("workload", "ancestor full binary tree depth " +
                                    std::to_string(kDepth));
  BenchOutput().Add("reps", static_cast<int64_t>(kReps));

  auto run_cell = [&](const char* figure, int level,
                      const testbed::QueryOptions& opts,
                      TablePrinter* table) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    std::vector<int64_t> t_e;
    std::vector<int64_t> t_term;
    for (int r = 0; r < kReps; ++r) {
      const lfp::ExecutionStats exec =
          Unwrap(tb->Query(goal, opts), "Query").report.exec;
      t_e.push_back(exec.t_total_us);
      t_term.push_back(exec.t_term_us);
    }
    table->AddRow({Label(figure), Count(level), Us(Median(t_e)),
                   Us(Median(t_term))});
  };

  TablePrinter table({"figure", "level", "t_e", "t_term"});
  // Figure 12's axis: semi-naive t_e across query-root levels.
  for (int level : Sweep({0, 2, 4})) {
    run_cell("fig12_seminaive", level, testbed::QueryOptions::SemiNaive(),
             &table);
  }
  // Figure 13's axis: the same sweep with the magic rewrite on.
  for (int level : Sweep({0, 3})) {
    run_cell("fig13_magic", level, testbed::QueryOptions::Magic(), &table);
  }
  table.Print();

  const size_t pool = GlobalThreadPool().num_threads();
  std::printf(
      "\npool_threads=%zu; the partitioned termination step needs >= 1 "
      "pool worker - without one every cell runs it serially\n",
      pool);
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
