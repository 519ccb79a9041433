#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/parallelism.h"
#include "common/thread_pool.h"
#include "lfp/eval_context.h"
#include "storage/codec.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

/// Rows sorted into a canonical order: parallel evaluation must be
/// bitwise-identical to serial up to row order.
std::vector<Tuple> SortedRows(QueryResult result) {
  std::sort(result.rows.begin(), result.rows.end());
  return result.rows;
}

/// Two mutually independent recursive cliques feeding a flat combiner:
/// the SCC wavefront scheduler can run anc1 and anc2 concurrently.
constexpr const char* kTwoCliqueProgram =
    "anc1(X, Y) :- par1(X, Y).\n"
    "anc1(X, Y) :- par1(X, Z), anc1(Z, Y).\n"
    "anc2(X, Y) :- par2(X, Y).\n"
    "anc2(X, Y) :- par2(X, Z), anc2(Z, Y).\n"
    "both(X, Y) :- anc1(X, Y).\n"
    "both(X, Y) :- anc2(X, Y).\n"
    "par1(a1, b1). par1(b1, c1). par1(c1, d1).\n"
    "par2(a2, b2). par2(b2, c2). par2(c2, d2). par2(d2, e2).\n";

std::unique_ptr<Testbed> MakeTwoCliqueTestbed() {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(kTwoCliqueProgram);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::move(*tb);
}

std::unique_ptr<Testbed> MakeTreeTestbed(
    int depth, const std::string& rules = workload::AncestorRules()) {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(rules);
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = (*tb)->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar});
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto tree = workload::MakeFullBinaryTrees(1, depth);
  s = (*tb)->AddFacts("parent", tree.ToTuples());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::move(*tb);
}

void ExpectParallelMatchesSerial(Testbed* tb, const std::string& goal,
                                 QueryOptions base) {
  auto serial = tb->Query(goal, QueryOptions(base).WithParallelism(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int par : {2, 4, 0}) {
    auto parallel = tb->Query(goal, QueryOptions(base).WithParallelism(par));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(SortedRows(serial->result), SortedRows(parallel->result))
        << "parallelism=" << par << " diverged on " << goal;
    EXPECT_EQ(parallel->report.exec.nodes.size(), serial->report.exec.nodes.size());
    // Node stats merge in program order regardless of completion order.
    for (size_t i = 0; i < parallel->report.exec.nodes.size(); ++i) {
      EXPECT_EQ(parallel->report.exec.nodes[i].label, serial->report.exec.nodes[i].label);
      EXPECT_EQ(parallel->report.exec.nodes[i].tuples, serial->report.exec.nodes[i].tuples);
    }
  }
}

TEST(ParallelLfpTest, IndependentCliquesSemiNaive) {
  auto tb = MakeTwoCliqueTestbed();
  ExpectParallelMatchesSerial(tb.get(), "both(X, Y)",
                              QueryOptions::SemiNaive());
}

TEST(ParallelLfpTest, IndependentCliquesNaive) {
  auto tb = MakeTwoCliqueTestbed();
  ExpectParallelMatchesSerial(tb.get(), "both(X, Y)", QueryOptions::Naive());
}

TEST(ParallelLfpTest, BoundQueryOnEachClique) {
  auto tb = MakeTwoCliqueTestbed();
  ExpectParallelMatchesSerial(tb.get(), "anc1(a1, W)",
                              QueryOptions::SemiNaive());
  ExpectParallelMatchesSerial(tb.get(), "anc2(a2, W)",
                              QueryOptions::SemiNaive());
}

TEST(ParallelLfpTest, AncestorTreeWorkload) {
  auto tb = MakeTreeTestbed(/*depth=*/6);
  std::string root = workload::TreeNodeName(0, 0);
  ExpectParallelMatchesSerial(tb.get(), "ancestor('" + root + "', W)",
                              QueryOptions::SemiNaive());
  ExpectParallelMatchesSerial(tb.get(), "ancestor(X, Y)",
                              QueryOptions::SemiNaive());
}

TEST(ParallelLfpTest, MagicSetsParallel) {
  auto tb = MakeTreeTestbed(/*depth=*/6);
  std::string root = workload::TreeNodeName(0, 0);
  ExpectParallelMatchesSerial(tb.get(), "ancestor('" + root + "', W)",
                              QueryOptions::Magic());
  ExpectParallelMatchesSerial(tb.get(), "ancestor('" + root + "', W)",
                              QueryOptions::SupplementaryMagic());
}

TEST(ParallelLfpTest, SameGenerationParallel) {
  auto tb = Testbed::Create();
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
      "up(a, b). up(c, b). up(d, e). up(f, e).\n"
      "flat(b, e). flat(e, b).\n"
      "down(b, a). down(b, c). down(e, d). down(e, f).\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectParallelMatchesSerial(tb->get(), "sg(a, W)",
                              QueryOptions::SemiNaive());
  ExpectParallelMatchesSerial(tb->get(), "sg(a, W)", QueryOptions::Magic());
}

// ---------------------------------------------------------------------------
// Partitioned semi-naive diff: the same answers, order and deltas as serial
// ---------------------------------------------------------------------------

/// Sizes the global pool before its first use (each gtest case runs in its
/// own process under ctest), so the partitioned paths below can run on
/// workers.
void SizePool() {
  setenv("DKB_THREADS", "3", 0);  // NOLINT(concurrency-mt-unsafe)
  GlobalThreadPool();
}

/// Runs `body` with hash_build_min_rows set to `min_rows`, restoring the
/// policy after; 1 sends every semi-naive termination step (and hash-join
/// build) down the concurrent partitioned path.
template <typename Fn>
void WithHashBuildMinRows(size_t min_rows, Fn&& body) {
  ParallelismPolicy& policy = GlobalParallelismPolicy();
  const ParallelismPolicy saved = policy;
  policy.hash_build_min_rows = min_rows;
  body();
  policy = saved;
}

std::vector<int64_t> IntColumn(Database* db, const std::string& table) {
  auto rows = db->Execute("SELECT a FROM " + table);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<int64_t> out;
  if (!rows.ok()) return out;
  for (const Tuple& row : rows->rows) out.push_back(row[0].as_int());
  return out;
}

TEST(PartitionedDiffTest, SurvivorsKeepNewScanOrder) {
  SizePool();
  const auto run = [](size_t partitions) {
    SCOPED_TRACE("P = " + std::to_string(partitions));
    Database db;
    for (const char* name : {"full_t", "new_t", "delta_t"}) {
      ASSERT_TRUE(db.Execute(std::string("CREATE TABLE ") + name +
                             " (a INT, b VARCHAR)")
                      .ok());
    }
    // new_t repeats rows, and half of its distinct rows are already in
    // full_t.
    ASSERT_TRUE(db.Execute("INSERT INTO full_t VALUES (0, 'x'), (2, 'x'), "
                           "(4, 'x'), (6, 'x')")
                    .ok());
    ASSERT_TRUE(db.Execute("INSERT INTO new_t VALUES (7, 'x'), (2, 'x'), "
                           "(5, 'x'), (7, 'x'), (1, 'x'), (4, 'x'), "
                           "(5, 'x'), (3, 'x'), (1, 'x')")
                    .ok());
    lfp::ExecutionStats stats;
    lfp::EvalContext ctx(&db, &stats);
    lfp::KnownRows known(partitions);
    auto appended = ctx.AbsorbNew("delta_t", "new_t", "full_t", &known);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    EXPECT_EQ(*appended, 4);
    EXPECT_EQ(IntColumn(&db, "delta_t"), (std::vector<int64_t>{7, 5, 1, 3}));
    EXPECT_EQ(IntColumn(&db, "full_t"),
              (std::vector<int64_t>{0, 2, 4, 6, 7, 5, 1, 3}));

    // Rows the first call absorbed (3, 7) and rows known from the start
    // (0) are not returned again; the last delta is replaced.
    ASSERT_TRUE(db.Execute("DELETE FROM new_t").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO new_t VALUES (3, 'x'), (8, 'x'), "
                           "(7, 'x'), (0, 'x'), (8, 'x'), (9, 'x')")
                    .ok());
    appended = ctx.AbsorbNew("delta_t", "new_t", "full_t", &known);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    EXPECT_EQ(*appended, 2);
    EXPECT_EQ(IntColumn(&db, "delta_t"), (std::vector<int64_t>{8, 9}));
    EXPECT_EQ(IntColumn(&db, "full_t"),
              (std::vector<int64_t>{0, 2, 4, 6, 7, 5, 1, 3, 8, 9}));
  };
  for (size_t min_rows : {GlobalParallelismPolicy().hash_build_min_rows,
                          size_t{1}}) {
    SCOPED_TRACE("hash_build_min_rows = " + std::to_string(min_rows));
    WithHashBuildMinRows(min_rows, [&]() {
      run(1);
      run(4);
    });
  }
}

/// A layered DAG with skip edges: every node reaches the next layer along
/// two paths and the layer after it directly, so semi-naive `new` batches
/// hold rows `full` already has, and the same row more than once: the
/// differential variants append to `new` without a dedup, so AbsorbNew
/// drops both kinds.
std::string DiamondEdges() {
  std::string text;
  const int kLayers = 8;
  const int kWidth = 4;
  auto edge = [&text](int from_layer, int from, int to_layer, int to) {
    text += "par(n" + std::to_string(from_layer) + "_" +
            std::to_string(from) + ", n" + std::to_string(to_layer) + "_" +
            std::to_string(to) + ").\n";
  };
  for (int l = 0; l + 1 < kLayers; ++l) {
    for (int i = 0; i < kWidth; ++i) {
      edge(l, i, l + 1, i);
      edge(l, i, l + 1, (i + 1) % kWidth);
      if (l + 2 < kLayers) edge(l, i, l + 2, i);
    }
  }
  return text;
}

std::unique_ptr<Testbed> MakeProgramTestbed(const std::string& text) {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(text);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::move(*tb);
}

/// Linear transitive closure over the diamond DAG.
std::unique_ptr<Testbed> MakeDiamondTestbed() {
  return MakeProgramTestbed(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n" +
      DiamondEdges());
}

/// Two mutually recursive predicates (odd- and even-length paths) over the
/// diamond DAG: one clique with two members.
std::unique_ptr<Testbed> MakeMutualTestbed() {
  return MakeProgramTestbed(
      "odd(X, Y) :- par(X, Y).\n"
      "odd(X, Y) :- par(X, Z), even(Z, Y).\n"
      "even(X, Y) :- par(X, Z), odd(Z, Y).\n" +
      DiamondEdges());
}

/// Answer rows in the order the query returned them, as wire bytes, plus
/// every clique node's iteration count and per-iteration delta sizes.
struct RunRecord {
  std::string rows;
  size_t row_count = 0;
  std::vector<std::pair<int64_t, std::vector<int64_t>>> cliques;
};

RunRecord Record(Testbed* tb, const std::string& goal,
                 const QueryOptions& options) {
  RunRecord record;
  auto outcome = tb->Query(goal, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return record;
  codec::Writer w;
  for (const Tuple& row : outcome->result.rows) w.Row(row);
  record.rows = w.Take();
  record.row_count = outcome->result.rows.size();
  for (const auto& node : outcome->report.exec.nodes) {
    if (node.delta_sizes.empty()) continue;
    record.cliques.emplace_back(node.iterations, node.delta_sizes);
  }
  // Every `#` temporary the evaluation made is dropped again.
  for (const std::string& name : tb->db().catalog().TableNames()) {
    EXPECT_NE(name.rfind('#', 0), 0u) << "leftover temp table " << name;
  }
  return record;
}

/// What the evaluator before the persistent seen-set returned for one
/// (goal, strategy) cell: the answer row count, the CRC-32 of the answer
/// rows' wire bytes in returned (unsorted) order, and per clique node its
/// iteration count and delta sizes.
struct Golden {
  size_t goal;
  const char* strategy;
  size_t row_count;
  uint32_t rows_crc;
  std::vector<std::pair<int64_t, std::vector<int64_t>>> cliques;
};

TEST(PartitionedDiffTest, StrategyMatrixIsByteIdenticalToSerialDiff) {
  SizePool();
  const std::vector<std::pair<std::string, QueryOptions>> matrix = {
      {"naive", QueryOptions::Naive()},
      {"seminaive", QueryOptions::SemiNaive()},
      {"magic", QueryOptions::Magic()},
      {"supplementary", QueryOptions::SupplementaryMagic()},
      {"adaptive", QueryOptions::Adaptive()},
      {"parallel", QueryOptions::SemiNaive().WithParallelism(4)},
  };
  auto diamond = MakeDiamondTestbed();
  auto tree = MakeTreeTestbed(/*depth=*/7);
  auto nonlinear = MakeTreeTestbed(/*depth=*/7,
                                   workload::AncestorRulesNonLinear());
  auto mutual = MakeMutualTestbed();
  const std::string root =
      "ancestor('" + workload::TreeNodeName(0, 0) + "', W)";
  const std::vector<std::pair<Testbed*, std::string>> goals = {
      {diamond.get(), "anc(n0_0, W)"},
      {diamond.get(), "anc(X, Y)"},
      {tree.get(), root},
      {tree.get(), "ancestor(X, Y)"},
      {nonlinear.get(), root},
      {nonlinear.get(), "ancestor(X, Y)"},
      {mutual.get(), "odd(n0_0, W)"},
      {mutual.get(), "even(X, Y)"},
  };
  // Captured from the evaluator that rebuilt its diff seen-set and copied
  // `full` into `prev` every iteration: the seen-set kept across
  // iterations must not move a row.
  const std::vector<Golden> golden = {
      {0, "naive", 25u, 0x0d1b6d86u, {{5, {104, 104, 64, 16, 0}}}},
      {0, "seminaive", 25u, 0x986e016eu, {{5, {104, 104, 64, 16, 0}}}},
      {0, "magic", 25u, 0x5831a6d5u, {{6, {3, 5, 7, 7, 3, 0}}, {5, {74, 63, 30, 5, 0}}}},
      {0, "supplementary", 25u, 0x5831a6d5u, {{12, {3, 3, 9, 5, 15, 7, 20, 7, 13, 3, 2, 0}}, {5, {74, 63, 30, 5, 0}}}},
      {0, "adaptive", 25u, 0x986e016eu, {{5, {104, 104, 64, 16, 0}}}},
      {0, "parallel", 25u, 0x986e016eu, {{5, {104, 104, 64, 16, 0}}}},
      {1, "naive", 368u, 0x5120014cu, {{5, {104, 104, 64, 16, 0}}}},
      {1, "seminaive", 368u, 0x2c604bdfu, {{5, {104, 104, 64, 16, 0}}}},
      {1, "magic", 368u, 0x2c604bdfu, {{5, {104, 104, 64, 16, 0}}}},
      {1, "supplementary", 368u, 0x2c604bdfu, {{5, {104, 104, 64, 16, 0}}}},
      {1, "adaptive", 368u, 0x2c604bdfu, {{5, {104, 104, 64, 16, 0}}}},
      {1, "parallel", 368u, 0x2c604bdfu, {{5, {104, 104, 64, 16, 0}}}},
      {2, "naive", 126u, 0xf1a397b3u, {{6, {124, 120, 112, 96, 64, 0}}}},
      {2, "seminaive", 126u, 0x0e514abdu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {2, "magic", 126u, 0x63cd1242u, {{7, {2, 4, 8, 16, 32, 64, 0}}, {6, {124, 120, 112, 96, 64, 0}}}},
      {2, "supplementary", 126u, 0x63cd1242u, {{13, {2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64, 0}}, {6, {124, 120, 112, 96, 64, 0}}}},
      {2, "adaptive", 126u, 0x0e514abdu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {2, "parallel", 126u, 0x0e514abdu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {3, "naive", 642u, 0x98153bcdu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {3, "seminaive", 642u, 0xe443220fu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {3, "magic", 642u, 0xe443220fu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {3, "supplementary", 642u, 0xe443220fu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {3, "adaptive", 642u, 0xe443220fu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {3, "parallel", 642u, 0xe443220fu, {{6, {124, 120, 112, 96, 64, 0}}}},
      {4, "naive", 126u, 0x1b5e3ecfu, {{4, {124, 232, 160, 0}}}},
      {4, "seminaive", 126u, 0x075fa873u, {{4, {124, 232, 160, 0}}}},
      {4, "magic", 126u, 0xa5ab267bu, {{13, {2, 2, 4, 8, 8, 24, 16, 64, 32, 160, 64, 384, 0}}}},
      {4, "supplementary", 126u, 0xa5ab267bu, {{19, {2, 2, 2, 4, 8, 8, 8, 24, 24, 16, 64, 64, 32, 160, 160, 64, 384, 384, 0}}}},
      {4, "adaptive", 126u, 0x075fa873u, {{4, {124, 232, 160, 0}}}},
      {4, "parallel", 126u, 0x075fa873u, {{4, {124, 232, 160, 0}}}},
      {5, "naive", 642u, 0x0918202fu, {{4, {124, 232, 160, 0}}}},
      {5, "seminaive", 642u, 0xbc91ed48u, {{4, {124, 232, 160, 0}}}},
      {5, "magic", 642u, 0xbc91ed48u, {{4, {124, 232, 160, 0}}}},
      {5, "supplementary", 642u, 0xbc91ed48u, {{4, {124, 232, 160, 0}}}},
      {5, "adaptive", 642u, 0xbc91ed48u, {{4, {124, 232, 160, 0}}}},
      {5, "parallel", 642u, 0xbc91ed48u, {{4, {124, 232, 160, 0}}}},
      {6, "naive", 22u, 0x5963e65du, {{6, {128, 160, 128, 64, 16, 0}}}},
      {6, "seminaive", 22u, 0x58c205ceu, {{6, {128, 160, 128, 64, 16, 0}}}},
      {6, "magic", 22u, 0xde0ea6d5u, {{7, {3, 6, 10, 12, 9, 3, 0}}, {6, {69, 67, 39, 15, 2, 0}}}},
      {6, "supplementary", 22u, 0xde0ea6d5u, {{14, {3, 3, 9, 6, 18, 10, 29, 12, 27, 9, 12, 3, 2, 0}}, {6, {69, 67, 39, 15, 2, 0}}}},
      {6, "adaptive", 22u, 0x58c205ceu, {{6, {128, 160, 128, 64, 16, 0}}}},
      {6, "parallel", 22u, 0x58c205ceu, {{6, {128, 160, 128, 64, 16, 0}}}},
      {7, "naive", 272u, 0x22ea72b1u, {{6, {128, 160, 128, 64, 16, 0}}}},
      {7, "seminaive", 272u, 0x0c3a2b50u, {{6, {128, 160, 128, 64, 16, 0}}}},
      {7, "magic", 272u, 0x0c3a2b50u, {{6, {128, 160, 128, 64, 16, 0}}}},
      {7, "supplementary", 272u, 0x0c3a2b50u, {{6, {128, 160, 128, 64, 16, 0}}}},
      {7, "adaptive", 272u, 0x0c3a2b50u, {{6, {128, 160, 128, 64, 16, 0}}}},
      {7, "parallel", 272u, 0x0c3a2b50u, {{6, {128, 160, 128, 64, 16, 0}}}},
  };
  ASSERT_EQ(golden.size(), goals.size() * matrix.size());
  for (const Golden& want : golden) {
    const auto& [tb, goal] = goals[want.goal];
    const QueryOptions* options = nullptr;
    for (const auto& [label, o] : matrix) {
      if (label == want.strategy) options = &o;
    }
    ASSERT_NE(options, nullptr) << want.strategy;
    SCOPED_TRACE(std::string(want.strategy) + " / " + goal);
    const RunRecord serial = Record(tb, goal, *options);
    RunRecord partitioned;
    WithHashBuildMinRows(1,
                         [&]() { partitioned = Record(tb, goal, *options); });
    EXPECT_EQ(serial.row_count, want.row_count);
    EXPECT_EQ(codec::Crc32(serial.rows), want.rows_crc);
    EXPECT_EQ(serial.cliques, want.cliques);
    EXPECT_EQ(serial.rows, partitioned.rows);
    EXPECT_EQ(serial.cliques, partitioned.cliques);
  }
}

/// Linear rules never read `prev`, so a linear clique makes only its
/// delta and new temporaries. A `#ancestor_prev` table planted before the
/// query would be dropped and recreated by an evaluation that made one —
/// the non-linear program shows that it is.
TEST(PartitionedDiffTest, OnlyNonLinearCliquesCreatePrev) {
  auto linear = MakeTreeTestbed(/*depth=*/5);
  auto nonlinear = MakeTreeTestbed(/*depth=*/5,
                                   workload::AncestorRulesNonLinear());
  const std::string root =
      "ancestor('" + workload::TreeNodeName(0, 0) + "', W)";
  for (Testbed* tb : {linear.get(), nonlinear.get()}) {
    const bool is_linear = tb == linear.get();
    for (const QueryOptions& options :
         {QueryOptions::SemiNaive(),
          QueryOptions::SemiNaive().WithParallelism(4)}) {
      for (const std::string& goal : {root, std::string("ancestor(X, Y)")}) {
        SCOPED_TRACE((is_linear ? "linear / " : "non-linear / ") + goal);
        Database& db = tb->db();
        ASSERT_TRUE(db.Execute("DROP TABLE IF EXISTS #ancestor_prev").ok());
        ASSERT_TRUE(
            db.Execute("CREATE TABLE #ancestor_prev (c0 VARCHAR, c1 VARCHAR)")
                .ok());
        ASSERT_TRUE(
            db.Execute("INSERT INTO #ancestor_prev VALUES ('p', 'q')").ok());
        auto outcome = tb->Query(goal, options);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_FALSE(outcome->result.rows.empty());
        const bool planted_kept = db.catalog().HasTable("#ancestor_prev");
        EXPECT_EQ(planted_kept, is_linear);
        if (planted_kept) {
          auto count = db.QueryCount("SELECT COUNT(*) FROM #ancestor_prev");
          ASSERT_TRUE(count.ok()) << count.status().ToString();
          EXPECT_EQ(*count, 1);
        }
      }
    }
  }
}

TEST(ParallelLfpTest, ParallelismKnobDefaultsSerial) {
  QueryOptions o;
  EXPECT_EQ(o.EffectivePolicy().lfp_parallelism, 1);
  o.WithParallelism(4);
  EXPECT_EQ(o.EffectivePolicy().lfp_parallelism, 4);
}

}  // namespace
}  // namespace dkb::testbed
