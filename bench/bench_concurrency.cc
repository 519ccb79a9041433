// Concurrent query throughput through the Session API, plus single-query
// parallel-LFP speedup. Not a paper figure: the 1988 testbed was
// single-user; this bench characterizes the concurrency extension.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_setup.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "testbed/session.h"

namespace dkb::bench {
namespace {

constexpr int kTreeDepth = 7;
constexpr int kCliques = 4;
constexpr int kChainLength = 24;

int RepsPerThread() { return Reps(10); }

/// Queries per second with `threads` sessions querying concurrently.
double MeasureQps(testbed::Testbed* tb, const datalog::Atom& goal,
                  int threads) {
  std::vector<std::unique_ptr<testbed::Session>> sessions;
  for (int t = 0; t < threads; ++t) {
    sessions.push_back(Unwrap(tb->OpenSession(), "OpenSession"));
    // Pre-clone so the measurement sees steady-state querying, not the
    // one-time snapshot copy.
    Unwrap(sessions.back()->Query(goal), "warmup query");
  }
  std::atomic<int> failures{0};
  WallTimer timer;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < RepsPerThread(); ++i) {
        auto r = sessions[t]->Query(goal);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  int64_t us = timer.ElapsedMicros();
  if (failures.load() > 0) {
    std::fprintf(stderr, "FATAL: %d concurrent queries failed\n",
                 failures.load());
    std::exit(1);
  }
  return static_cast<double>(threads) * RepsPerThread() * 1e6 /
         static_cast<double>(us);
}

/// A program with `kCliques` mutually independent recursive cliques, so
/// the wavefront scheduler has real parallelism to exploit.
std::unique_ptr<testbed::Testbed> MakeMultiCliqueTestbed() {
  auto tb = Unwrap(testbed::Testbed::Create(), "Testbed::Create");
  std::string program;
  for (int c = 0; c < kCliques; ++c) {
    std::string anc = "anc" + std::to_string(c);
    std::string par = "par" + std::to_string(c);
    program += anc + "(X, Y) :- " + par + "(X, Y).\n";
    program += anc + "(X, Y) :- " + par + "(X, Z), " + anc + "(Z, Y).\n";
    program += "all(X, Y) :- " + anc + "(X, Y).\n";
    for (int i = 0; i < kChainLength; ++i) {
      program += par + "(n" + std::to_string(c) + "_" + std::to_string(i) +
                 ", n" + std::to_string(c) + "_" + std::to_string(i + 1) +
                 ").\n";
    }
  }
  CheckOk(tb->Consult(program), "Consult multi-clique program");
  return tb;
}

void Run() {
  Banner("Concurrency - session throughput and parallel LFP",
         "extension beyond the single-user SIGMOD'88 testbed",
         "qps scales with reader threads (hardware permitting); parallel "
         "LFP matches serial answers while overlapping independent cliques");

  unsigned hw = std::thread::hardware_concurrency();
  std::printf("  hardware threads: %u; DKB worker pool: %zu\n\n", hw,
              GlobalThreadPool().num_threads());

  auto tb = MakeAncestorTree(kTreeDepth);
  datalog::Atom goal = TreeAncestorGoal(0);

  BenchOutput().Add("workload", "ancestor tree depth " +
                                    std::to_string(kTreeDepth) +
                                    ", bound root");
  BenchOutput().Add("reps_per_thread", static_cast<int64_t>(RepsPerThread()));
  TablePrinter table({"threads", "qps", "speedup_vs_1"});
  double qps1 = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    double qps = MeasureQps(tb.get(), goal, threads);
    if (threads == 1) qps1 = qps;
    table.AddRow({Count(threads), Ratio(qps, 1), Ratio(qps / qps1)});
  }
  table.Print();

  // Single-query parallel LFP: one program, independent cliques evaluated
  // concurrently vs in sequence.
  auto multi = MakeMultiCliqueTestbed();
  auto serial_opts = testbed::QueryOptions::SemiNaive().WithParallelism(1);
  auto parallel_opts =
      testbed::QueryOptions::SemiNaive().WithParallelism(kCliques);
  const int lfp_reps = Reps(3, 1);
  int64_t t_serial = MedianMicros(lfp_reps, [&]() {
    return Unwrap(multi->Query("all(X, Y)", serial_opts), "serial LFP")
        .report.exec.t_total_us;
  });
  int64_t t_parallel = MedianMicros(lfp_reps, [&]() {
    return Unwrap(multi->Query("all(X, Y)", parallel_opts), "parallel LFP")
        .report.exec.t_total_us;
  });

  TablePrinter lfp({"lfp_mode", "t_e", "speedup"});
  lfp.AddRow({Label("serial"), Us(t_serial), Ratio(1.0)});
  lfp.AddRow({Label("parallel(" + std::to_string(kCliques) + ")"),
              Us(t_parallel),
              Ratio(static_cast<double>(t_serial) / t_parallel)});
  lfp.Print();
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
