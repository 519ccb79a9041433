// google-benchmark microbenchmarks for the relational engine primitives the
// testbed leans on: inserts, scans, index probes, joins, set operations,
// and SQL parsing (the per-statement overhead of the embedded-SQL
// interface).

#include <benchmark/benchmark.h>

#include "rdbms/database.h"
#include "sql/parser.h"
#include "workload/data_gen.h"

namespace dkb {
namespace {

std::unique_ptr<Database> MakeParentDb(int depth, bool indexed) {
  auto db = std::make_unique<Database>();
  Status s =
      db->Execute("CREATE TABLE parent (par VARCHAR, child VARCHAR)").status();
  if (indexed) {
    s = db->Execute("CREATE INDEX par_ix ON parent (par)").status();
  }
  auto tree = workload::MakeFullBinaryTrees(1, depth);
  Table* table = *db->catalog().GetSource("parent");
  for (Tuple& t : tree.ToTuples()) table->InsertUnchecked(std::move(t));
  (void)s;
  return db;
}

void BM_Insert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    benchmark::DoNotOptimize(
        db.Execute("CREATE TABLE t (a VARCHAR, b VARCHAR)"));
    Table* table = *db.catalog().GetSource("t");
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      table->InsertUnchecked({Value("k" + std::to_string(i)), Value("v")});
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Insert)->Arg(1000)->Arg(10000);

void BM_SeqScanCount(benchmark::State& state) {
  auto db = MakeParentDb(11, /*indexed=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->QueryCount("SELECT COUNT(*) FROM parent"));
  }
}
BENCHMARK(BM_SeqScanCount);

void BM_IndexProbe(benchmark::State& state) {
  auto db = MakeParentDb(11, /*indexed=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->QueryRows("SELECT * FROM parent WHERE par = 't0_77'"));
  }
}
BENCHMARK(BM_IndexProbe);

void BM_SelfJoinHash(benchmark::State& state) {
  auto db = MakeParentDb(static_cast<int>(state.range(0)),
                         /*indexed=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->QueryRows(
        "SELECT p1.par, p2.child FROM parent p1, parent p2 "
        "WHERE p1.child = p2.par"));
  }
}
BENCHMARK(BM_SelfJoinHash)->Arg(8)->Arg(10)->Arg(12);

void BM_SelfJoinIndexed(benchmark::State& state) {
  auto db = MakeParentDb(static_cast<int>(state.range(0)),
                         /*indexed=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->QueryRows(
        "SELECT p1.par, p2.child FROM parent p1, parent p2 "
        "WHERE p1.child = p2.par"));
  }
}
BENCHMARK(BM_SelfJoinIndexed)->Arg(8)->Arg(10)->Arg(12);

void BM_ExceptSetDifference(benchmark::State& state) {
  auto db = MakeParentDb(11, /*indexed=*/false);
  Status s = db->ExecuteAll(
      "CREATE TABLE half (par VARCHAR, child VARCHAR);"
      "INSERT INTO half SELECT * FROM parent WHERE par < 't0_4'");
  (void)s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->QueryRows(
        "(SELECT * FROM parent) EXCEPT (SELECT * FROM half)"));
  }
}
BENCHMARK(BM_ExceptSetDifference);

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT DISTINCT r0.c0, r1.c1 FROM edb_parent r0, idb_anc r1 "
      "WHERE r1.c0 = r0.c1 AND r0.c0 = 'john'";
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::ParseStatement(sql));
  }
}
BENCHMARK(BM_ParseSelect);

void BM_InsertSelectRoundTrip(benchmark::State& state) {
  auto db = MakeParentDb(10, /*indexed=*/false);
  Status s = db->Execute("CREATE TABLE sink (par VARCHAR, child VARCHAR)")
                 .status();
  (void)s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Execute("DELETE FROM sink"));
    benchmark::DoNotOptimize(
        db->Execute("INSERT INTO sink SELECT * FROM parent"));
  }
}
BENCHMARK(BM_InsertSelectRoundTrip);

}  // namespace
}  // namespace dkb

BENCHMARK_MAIN();
