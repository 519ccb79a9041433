// Durability & MVCC bench: what the WAL costs and what epoch sessions buy.
//
// Part 1 — commit latency: one-row AddFacts through four durability
// configurations (no WAL; WAL with group-commit fsync; WAL with per-commit
// fsync; WAL without fsync). The fsync rows measure the physical floor of
// a durable commit; the no-WAL row is the in-memory baseline.
//
// Part 2 — session open: OpenSession + first query against a small and a
// ~50x larger database. Epoch-pinned sessions are O(metadata), so the two
// columns should be close; before this design the open cloned the whole
// database and scaled with its size.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_setup.h"
#include "testbed/session.h"

namespace dkb::bench {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// This process's scratch wal_dir for one configuration; removed again once
/// the configuration is measured.
std::string WalDir(const std::string& tag) {
  return "/tmp/dkb_bench_wal_" + tag + "_" +
         std::to_string(static_cast<long long>(::getpid()));
}

std::unique_ptr<testbed::Testbed> MakeWriteTarget(
    const testbed::TestbedOptions& base) {
  auto tb = Unwrap(testbed::Testbed::Create(base), "Testbed::Create");
  CheckOk(tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar}),
          "DefineBase");
  return tb;
}

void RunCommitLatency() {
  struct Config {
    const char* name;
    bool wal;
    bool fsync;
    bool group_commit;
  };
  const Config kConfigs[] = {
      {"no_wal", false, false, false},
      {"wal_group_commit", true, true, true},
      {"wal_fsync_each", true, true, false},
      {"wal_no_fsync", true, false, false},
  };
  const int kReps = Reps(200, 10);

  TablePrinter table({"config", "commit_p50", "commits"});
  for (const Config& cfg : kConfigs) {
    testbed::TestbedOptions options;
    const std::string wal_dir = WalDir(cfg.name);
    if (cfg.wal) {
      options.WithWalDir(wal_dir)
          .WithWalFsync(cfg.fsync)
          .WithWalGroupCommit(cfg.group_commit);
    }
    auto tb = MakeWriteTarget(options);
    int seq = 0;
    int64_t p50 = MedianMicros(kReps, [&]() {
      std::string who = "n" + std::to_string(seq++);
      int64_t start = NowUs();
      CheckOk(tb->AddFacts("parent", {{Value(who), Value("c")}}), "AddFacts");
      return NowUs() - start;
    });
    table.AddRow({Label(cfg.name), Us(p50), Count(kReps)});
    tb.reset();
    std::error_code ignored;
    std::filesystem::remove_all(wal_dir, ignored);
  }
  table.Print();
}

void RunSessionOpen() {
  const int kSmallDepth = 6;                    // 62 edges
  const int kBigDepth = SmokeSize(12, 7);       // 4094 edges full-size
  const int kReps = Reps(25, 5);

  auto small = MakeAncestorTree(kSmallDepth);
  auto big = MakeAncestorTree(kBigDepth);

  auto open_cost = [&](testbed::Testbed* tb) {
    return MedianMicros(kReps, [&]() {
      int64_t start = NowUs();
      auto session = Unwrap(tb->OpenSession(), "OpenSession");
      Unwrap(session->Query(TreeAncestorGoal(0),
                            testbed::QueryOptions::SemiNaive()),
             "session query");
      return NowUs() - start;
    });
  };
  // Queries scale with data, so time the open (pin + metadata restore)
  // separately from open+query.
  auto open_only_cost = [&](testbed::Testbed* tb) {
    return MedianMicros(kReps, [&]() {
      int64_t start = NowUs();
      auto session = Unwrap(tb->OpenSession(), "OpenSession");
      (void)session;
      return NowUs() - start;
    });
  };

  int64_t small_open = open_only_cost(small.get());
  int64_t big_open = open_only_cost(big.get());
  int64_t small_oq = open_cost(small.get());
  int64_t big_oq = open_cost(big.get());

  const double ratio = small_open > 0
                           ? static_cast<double>(big_open) / small_open
                           : 0.0;
  BenchOutput().Add("open_ratio", ratio);
  TablePrinter table({"database", "edges", "open_p50", "open_plus_query"});
  table.AddRow({Label("small"), Count((1 << kSmallDepth) - 2),
                Us(small_open), Us(small_oq)});
  table.AddRow({Label("big"), Count((1 << kBigDepth) - 2), Us(big_open),
                Us(big_oq)});
  table.Print();
  std::printf("\nopen ratio big/small = %s (O(1) open => ~1.0; O(database) "
              "would track the ~%dx data ratio)\n",
              FormatF(ratio, 2).c_str(),
              ((1 << kBigDepth) - 2) / ((1 << kSmallDepth) - 2));
}

void Run() {
  Banner("WAL & MVCC - durable commit latency and epoch session open",
         "durability extension to the SIGMOD'88 testbed: WAL group commit, "
         "columnar checkpoints, epoch-pinned sessions",
         "group commit amortizes the fsync floor across writers; session "
         "open is O(metadata), independent of database size");

  RunCommitLatency();
  std::printf("\n");
  RunSessionOpen();
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
