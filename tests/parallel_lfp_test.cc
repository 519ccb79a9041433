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

std::unique_ptr<Testbed> MakeTreeTestbed(int depth) {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(workload::AncestorRules());
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
/// own process under ctest) and reports whether it has workers, without
/// which every diff is the serial one.
bool PoolHasWorkers() {
  setenv("DKB_THREADS", "3", 0);  // NOLINT(concurrency-mt-unsafe)
  return GlobalThreadPool().num_threads() > 0;
}

/// Runs `body` with hash_build_min_rows = 1, so every semi-naive diff (and
/// hash-join build) takes the partitioned path, restoring the policy after.
template <typename Fn>
void WithPartitionedDiffs(Fn&& body) {
  ParallelismPolicy& policy = GlobalParallelismPolicy();
  const ParallelismPolicy saved = policy;
  policy.hash_build_min_rows = 1;
  body();
  policy = saved;
}

TEST(PartitionedDiffTest, SurvivorsKeepNewScanOrder) {
  if (!PoolHasWorkers()) GTEST_SKIP() << "global pool has no workers";
  Database db;
  for (const char* name : {"full_t", "new_t", "diff_t"}) {
    ASSERT_TRUE(db.Execute(std::string("CREATE TABLE ") + name +
                           " (a INT, b VARCHAR)")
                    .ok());
  }
  // new_t repeats rows, and half of its distinct rows are already in full_t.
  ASSERT_TRUE(db.Execute("INSERT INTO full_t VALUES (0, 'x'), (2, 'x'), "
                         "(4, 'x'), (6, 'x')")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO new_t VALUES (7, 'x'), (2, 'x'), "
                         "(5, 'x'), (7, 'x'), (1, 'x'), (4, 'x'), (5, 'x'), "
                         "(3, 'x'), (1, 'x')")
                  .ok());
  auto diff_rows = [&db]() {
    lfp::ExecutionStats stats;
    lfp::EvalContext ctx(&db, &stats);
    EXPECT_TRUE(ctx.ClearTable("diff_t").ok());
    auto appended = ctx.DiffInto("diff_t", "new_t", "full_t");
    EXPECT_TRUE(appended.ok()) << appended.status().ToString();
    EXPECT_EQ(appended.ok() ? *appended : -1, 4);
    auto rows = db.Execute("SELECT a FROM diff_t");
    EXPECT_TRUE(rows.ok());
    std::vector<int64_t> out;
    for (const Tuple& row : rows->rows) out.push_back(row[0].as_int());
    return out;
  };
  const std::vector<int64_t> expected = {7, 5, 1, 3};
  EXPECT_EQ(diff_rows(), expected);
  WithPartitionedDiffs([&]() { EXPECT_EQ(diff_rows(), expected); });
}

/// A layered DAG with skip edges: every node reaches the next layer along
/// two paths and the layer after it directly, so semi-naive `new` batches
/// hold rows `full` already has. (The INSERT-new statements that fill
/// `new` dedup within it; SurvivorsKeepNewScanOrder covers duplicates.)
std::string DiamondProgram() {
  std::string text =
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n";
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

/// Answer rows in the order the query returned them, as wire bytes, plus
/// every node's per-iteration delta sizes.
struct RunRecord {
  std::string rows;
  std::vector<std::vector<int64_t>> deltas;
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
  for (const auto& node : outcome->report.exec.nodes) {
    record.deltas.push_back(node.delta_sizes);
  }
  return record;
}

TEST(PartitionedDiffTest, StrategyMatrixIsByteIdenticalToSerialDiff) {
  if (!PoolHasWorkers()) GTEST_SKIP() << "global pool has no workers";
  const std::vector<std::pair<std::string, QueryOptions>> matrix = {
      {"naive", QueryOptions::Naive()},
      {"seminaive", QueryOptions::SemiNaive()},
      {"magic", QueryOptions::Magic()},
      {"supplementary", QueryOptions::SupplementaryMagic()},
      {"adaptive", QueryOptions::Adaptive()},
      {"parallel", QueryOptions::SemiNaive().WithParallelism(4)},
  };
  auto diamond = Testbed::Create();
  ASSERT_TRUE(diamond.ok()) << diamond.status().ToString();
  ASSERT_TRUE((*diamond)->Consult(DiamondProgram()).ok());
  auto tree = MakeTreeTestbed(/*depth=*/7);
  const std::string root =
      "ancestor('" + workload::TreeNodeName(0, 0) + "', W)";
  const std::vector<std::pair<Testbed*, std::string>> goals = {
      {diamond->get(), "anc(n0_0, W)"},
      {diamond->get(), "anc(X, Y)"},
      {tree.get(), root},
      {tree.get(), "ancestor(X, Y)"},
  };
  for (const auto& [label, options] : matrix) {
    for (const auto& [tb, goal] : goals) {
      SCOPED_TRACE(label + " / " + goal);
      const RunRecord serial = Record(tb, goal, options);
      RunRecord partitioned;
      WithPartitionedDiffs(
          [&]() { partitioned = Record(tb, goal, options); });
      EXPECT_FALSE(serial.rows.empty());
      EXPECT_EQ(serial.rows, partitioned.rows);
      EXPECT_EQ(serial.deltas, partitioned.deltas);
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
