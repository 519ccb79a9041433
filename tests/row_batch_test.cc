// RowBatch unit tests plus batch edge cases through Table::ScanBatch /
// AppendBatch and the batch-at-a-time operators: empty tables,
// all-tombstone scan windows, batch boundaries at exactly kCapacity,
// single-row relations, NULL keys in hash-join probes, and serial-vs-morsel
// determinism of the parallel scan path.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/parallelism.h"
#include "common/row_batch.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "rdbms/database.h"
#include "storage/table.h"

namespace dkb {
namespace {

Schema IntStrSchema() {
  return Schema({{"k", DataType::kInteger}, {"v", DataType::kVarchar}});
}

// ---------------------------------------------------------------------------
// RowBatch container semantics
// ---------------------------------------------------------------------------

TEST(RowBatchTest, AppendAndAccess) {
  RowBatch b;
  b.Reset(2);
  EXPECT_TRUE(b.empty());
  b.AppendRow(Tuple{Value(int64_t{1}), Value("x")});
  b.AppendRow(Tuple{Value(int64_t{2}), Value("y")});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.physical_size(), 2u);
  EXPECT_EQ(b.At(0, 0), Value(int64_t{1}));
  EXPECT_EQ(b.At(1, 1), Value("y"));
  EXPECT_EQ(b.MaterializeTuple(1), (Tuple{Value(int64_t{2}), Value("y")}));
}

TEST(RowBatchTest, ResetRetainsColumnCountChange) {
  RowBatch b;
  b.Reset(3);
  b.AppendRow(Tuple{Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  b.Reset(1);
  EXPECT_EQ(b.num_columns(), 1u);
  EXPECT_TRUE(b.empty());
  b.AppendRow(Tuple{Value("only")});
  EXPECT_EQ(b.At(0, 0), Value("only"));
}

TEST(RowBatchTest, SelectionComposesAndStacks) {
  RowBatch b;
  b.Reset(1);
  for (int64_t i = 0; i < 6; ++i) b.AppendRow(Tuple{Value(i)});
  // Keep even logical rows: 0, 2, 4.
  b.ComposeSelection({0, 2, 4});
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.physical_size(), 6u);
  EXPECT_EQ(b.At(1, 0), Value(int64_t{2}));
  // Second filter sees logical rows of the first: keep last two -> 2, 4.
  b.ComposeSelection({1, 2});
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.At(0, 0), Value(int64_t{2}));
  EXPECT_EQ(b.At(1, 0), Value(int64_t{4}));
  EXPECT_EQ(b.PhysicalIndex(1), 4u);
}

TEST(RowBatchTest, TruncateWithAndWithoutSelection) {
  RowBatch b;
  b.Reset(1);
  for (int64_t i = 0; i < 5; ++i) b.AppendRow(Tuple{Value(i)});
  b.Truncate(3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.At(2, 0), Value(int64_t{2}));
  b.ComposeSelection({1, 2});
  b.Truncate(1);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.At(0, 0), Value(int64_t{1}));
  // Truncate past the visible count is a no-op.
  b.Truncate(10);
  EXPECT_EQ(b.size(), 1u);
}

TEST(RowBatchTest, AppendConcatJoinsRows) {
  RowBatch right;
  right.Reset(1);
  right.AppendRow(Tuple{Value("r0")});
  right.AppendRow(Tuple{Value("r1")});
  right.ComposeSelection({1});  // only r1 visible

  RowBatch out;
  out.Reset(2);
  out.AppendConcat(Tuple{Value(int64_t{7})}, right, 0);
  out.AppendConcat(Tuple{Value(int64_t{8})}, Tuple{Value("t")});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.MaterializeTuple(0), (Tuple{Value(int64_t{7}), Value("r1")}));
  EXPECT_EQ(out.MaterializeTuple(1), (Tuple{Value(int64_t{8}), Value("t")}));
}

// ---------------------------------------------------------------------------
// Table::ScanBatch / AppendBatch edge cases
// ---------------------------------------------------------------------------

TEST(ScanBatchTest, EmptyTable) {
  Table t("t", IntStrSchema());
  RowBatch b;
  RowId cursor = t.ScanBatch(0, &b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(cursor, 0u);
}

TEST(ScanBatchTest, SingleRow) {
  Table t("t", IntStrSchema());
  ASSERT_TRUE(t.Insert(Tuple{Value(int64_t{1}), Value("a")}).ok());
  RowBatch b;
  RowId cursor = t.ScanBatch(0, &b);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.At(0, 1), Value("a"));
  cursor = t.ScanBatch(cursor, &b);
  EXPECT_TRUE(b.empty());
}

TEST(ScanBatchTest, BoundaryAtExactlyCapacity) {
  Table t("t", Schema({{"k", DataType::kInteger}}));
  for (size_t i = 0; i < RowBatch::kCapacity; ++i) {
    ASSERT_TRUE(t.Insert(Tuple{Value(static_cast<int64_t>(i))}).ok());
  }
  RowBatch b;
  RowId cursor = t.ScanBatch(0, &b);
  EXPECT_EQ(b.size(), RowBatch::kCapacity);
  EXPECT_EQ(cursor, RowBatch::kCapacity);
  cursor = t.ScanBatch(cursor, &b);
  EXPECT_TRUE(b.empty());
}

TEST(ScanBatchTest, AllTombstoneWindow) {
  Table t("t", Schema({{"k", DataType::kInteger}}));
  const size_t n = RowBatch::kCapacity * 2 + 100;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.Insert(Tuple{Value(static_cast<int64_t>(i))}).ok());
  }
  // Tombstone more than two full batch windows at the front; only the tail
  // survives.
  const size_t deleted = RowBatch::kCapacity * 2;
  for (size_t i = 0; i < deleted; ++i) t.Delete(static_cast<RowId>(i));
  size_t seen = 0;
  RowBatch b;
  RowId cursor = 0;
  while (true) {
    cursor = t.ScanBatch(cursor, &b);
    if (b.empty()) break;
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(b.At(i, 0),
                Value(static_cast<int64_t>(deleted + seen + i)));
    }
    seen += b.size();
  }
  EXPECT_EQ(seen, n - deleted);
}

TEST(AppendBatchTest, ArityAndTypeChecked) {
  Table t("t", IntStrSchema());
  RowBatch wrong_arity;
  wrong_arity.Reset(1);
  wrong_arity.AppendRow(Tuple{Value(int64_t{1})});
  EXPECT_EQ(t.AppendBatch(wrong_arity).code(), StatusCode::kInvalidArgument);

  RowBatch wrong_type;
  wrong_type.Reset(2);
  wrong_type.AppendRow(Tuple{Value("not-an-int"), Value("v")});
  EXPECT_EQ(t.AppendBatch(wrong_type).code(), StatusCode::kTypeError);
  EXPECT_EQ(t.num_tuples(), 0u);

  RowBatch ok;
  ok.Reset(2);
  ok.AppendRow(Tuple{Value(int64_t{1}), Value("v")});
  ok.AppendRow(Tuple{Value(), Value()});  // NULLs pass any column type
  ASSERT_TRUE(t.AppendBatch(ok).ok());
  EXPECT_EQ(t.num_tuples(), 2u);
}

TEST(AppendBatchTest, RespectsSelection) {
  Table t("t", Schema({{"k", DataType::kInteger}}));
  RowBatch b;
  b.Reset(1);
  for (int64_t i = 0; i < 4; ++i) b.AppendRow(Tuple{Value(i)});
  b.ComposeSelection({1, 3});
  ASSERT_TRUE(t.AppendBatch(b).ok());
  EXPECT_EQ(t.num_tuples(), 2u);
}

TEST(AppendBatchTest, StoredVarcharsAreInterned) {
  Table t("t", IntStrSchema());
  RowBatch b;
  b.Reset(2);
  b.AppendRow(Tuple{Value(int64_t{1}), Value("intern-me")});
  ASSERT_TRUE(t.AppendBatch(b).ok());
  RowBatch scan;
  t.ScanBatch(0, &scan);
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_TRUE(scan.At(0, 1).is_interned());
  EXPECT_EQ(scan.At(0, 1), Value("intern-me"));
}

// ---------------------------------------------------------------------------
// Batch hash-join probes with NULL keys
// ---------------------------------------------------------------------------

class NullKeyJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE r (k INT, a VARCHAR)");
    Run("CREATE TABLE s (k INT, b VARCHAR)");
    Run("INSERT INTO r VALUES (1, 'r1'), (NULL, 'rnull'), (2, 'r2')");
    Run("INSERT INTO s VALUES (1, 's1'), (NULL, 'snull'), (3, 's3')");
  }

  void Run(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  size_t CountRows(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r->rows.size() : 0;
  }

  Database db_;
};

TEST_F(NullKeyJoinTest, NullKeysKeepEngineSemantics) {
  // This engine's joins compare whole key tuples, so NULL matches NULL
  // (one r NULL row x one s NULL row) and matches nothing else. The batch
  // probe path must preserve exactly that.
  EXPECT_EQ(CountRows("SELECT r.a, s.b FROM r, s WHERE r.k = s.k"), 2u);
  EXPECT_EQ(CountRows("SELECT r.a, s.b FROM r, s WHERE r.k = s.k AND "
                      "s.b = 'snull'"),
            1u);
}

// ---------------------------------------------------------------------------
// Morsel-parallel scan determinism on the batch engine
// ---------------------------------------------------------------------------

TEST(ParallelBatchTest, MorselScanMatchesSerialOrder) {
  // Each gtest case runs in its own process under ctest, so the global pool
  // has not been constructed yet; size it explicitly for this test.
  setenv("DKB_THREADS", "3", 1);
  if (GlobalThreadPool().num_threads() == 0) {
    GTEST_SKIP() << "global pool already initialized without workers";
  }
  Catalog catalog;
  auto created =
      catalog.CreateTable("big", Schema({{"k", DataType::kInteger}}));
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) table->InsertUnchecked({Value(i)});

  ParallelismPolicy& tuning = GlobalParallelismPolicy();
  const ParallelismPolicy saved = tuning;
  tuning.seq_scan_min_rows = 1;
  tuning.morsel_rows = 512;

  exec::ExecStats stats;
  auto drain = [&]() {
    exec::SeqScanNode scan(table, nullptr, &stats);
    std::vector<int64_t> keys;
    EXPECT_TRUE(scan.Open().ok());
    RowBatch batch;
    while (true) {
      auto more = scan.NextBatch(&batch);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        keys.push_back(batch.At(i, 0).as_int());
      }
    }
    scan.Close();
    // Morsel buffers concatenate in morsel order: output is the serial row
    // order, deterministically, no matter how many workers ran.
    ASSERT_EQ(keys.size(), static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(keys[i], i);
  };
  drain();
  drain();  // re-open: same result
  EXPECT_GT(stats.morsels.load(), 0);
  tuning = saved;
}

}  // namespace
}  // namespace dkb
