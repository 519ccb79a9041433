// Ten times the paper's data: the Figure 12 / Figure 13 semi-naive
// workloads on a depth-13 tree (~16k parent edges, vs the paper's depth-9
// ~1k), on one default testbed. At this size the termination step's
// `full` + `new` inputs pass ParallelismPolicy::hash_build_min_rows, so on
// a multi-core host the semi-naive diff runs hash-partitioned on the
// global pool; t_term (Table 5's termination bucket) is reported next to
// t_e so the diff's share of each cell stays visible.
//
// Writes BENCH_scale.json (folded into BENCH_paper.json under "scale").

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
         "t_term is the largest LFP bucket at level 0; the partitioned "
         "termination diff shrinks it on multi-core hosts");

  const int kDepth = SmokeSize(13, 6);
  const int kReps = Reps(3, 1);
  auto tb = MakeAncestorTree(kDepth);

  std::string results_json = "[";
  int cells = 0;

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
    const int64_t te = Median(t_e);
    const int64_t tt = Median(t_term);
    table->AddRow(
        {figure, std::to_string(level), FormatUs(te), FormatUs(tt)});
    results_json += std::string(cells ? ", " : "") + "{\"figure\": \"" +
                    figure + "\", \"level\": " + std::to_string(level) +
                    ", \"t_e_us\": " + std::to_string(te) +
                    ", \"t_term_us\": " + std::to_string(tt) + "}";
    ++cells;
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
  results_json += "]";

  const size_t pool = GlobalThreadPool().num_threads();
  std::printf(
      "\npool_threads=%zu; the partitioned diff needs >= 1 pool worker - "
      "without one every cell runs the serial diff\n",
      pool);

  BenchJson json("scale");
  json.Add("workload",
           "ancestor full binary tree depth " + std::to_string(kDepth));
  json.Add("reps", static_cast<int64_t>(kReps));
  json.Add("cells", static_cast<int64_t>(cells));
  json.Add("pool_threads", static_cast<int64_t>(pool));
  json.AddRaw("results", results_json);
  CheckOk(json.WriteFile("BENCH_scale.json"), "write BENCH_scale.json");
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
