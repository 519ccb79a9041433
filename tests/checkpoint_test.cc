#include "storage/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "storage/codec.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

/// Builds a testbed holding rules, bulk-loaded facts, and committed stored
/// rules — every kind of state a checkpoint must carry.
std::unique_ptr<Testbed> MakePopulatedTestbed() {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  workload::EdgeSet edges = workload::MakeFullBinaryTrees(1, 5);
  Status s = (*tb)->Consult(workload::AncestorRules());
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = (*tb)->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar});
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = (*tb)->AddFacts("parent", edges.ToTuples());
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto stats = (*tb)->UpdateStoredDkb();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(*tb);
}

TEST(CheckpointRoundTrip, SaveLoadPreservesAnswers) {
  auto tb = MakePopulatedTestbed();
  const std::string root = workload::TreeNodeName(0, 0);
  auto before = tb->Query("ancestor('" + root + "', W)");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->result.rows.size(), 30u);  // depth-5 tree minus the root

  std::string path = TempPath("ckpt_rt.ckpt");
  ASSERT_TRUE(tb->SaveSession(path).ok());

  auto loaded = Testbed::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto after = (*loaded)->Query("ancestor('" + root + "', W)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(AnswerSet(before->result), AnswerSet(after->result));

  // Workspace rules survived too.
  EXPECT_EQ(tb->ListRuleTexts(), (*loaded)->ListRuleTexts());

  // Writes keep working after a restore (the loaded testbed is live, not a
  // read-only image).
  std::string leaf = workload::TreeNodeName(0, 30);
  ASSERT_TRUE(
      (*loaded)->AddFacts("parent", {{Value(leaf), Value("extra")}}).ok());
  auto grown = (*loaded)->Query("ancestor('" + root + "', W)");
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->result.rows.size(), 31u);
}

TEST(CheckpointTest, ImagesOfIdenticalStatesAreByteIdentical) {
  auto a = MakePopulatedTestbed();
  auto b = MakePopulatedTestbed();
  std::string pa = TempPath("ckpt_ident_a.ckpt");
  std::string pb = TempPath("ckpt_ident_b.ckpt");
  ASSERT_TRUE(a->SaveSession(pa).ok());
  ASSERT_TRUE(b->SaveSession(pb).ok());
  std::ifstream fa(pa, std::ios::binary), fb(pb, std::ios::binary);
  std::string ba((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string bb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  ASSERT_FALSE(ba.empty());
  EXPECT_EQ(ba, bb);
}

TEST(CheckpointTest, PeekReadsHeaderWithoutLoading) {
  auto tb = MakePopulatedTestbed();
  std::string path = TempPath("ckpt_peek.ckpt");
  ASSERT_TRUE(tb->SaveSession(path).ok());
  auto info = PeekCheckpoint(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->epoch, tb->epoch());
  EXPECT_EQ(info->last_lsn, 0u);  // no WAL configured on this testbed
}

TEST(CheckpointTest, LoadIntoNonEmptyTestbedIsFailedPrecondition) {
  auto source = MakePopulatedTestbed();
  std::string path = TempPath("ckpt_nonempty.ckpt");
  ASSERT_TRUE(source->SaveSession(path).ok());

  // A freshly created testbed is NOT an empty load target: Create already
  // initialized the stored-DKB relations.
  auto target = Testbed::Create();
  ASSERT_TRUE(target.ok());
  Status s = (*target)->LoadCheckpoint(path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition) << s.ToString();
}

TEST(CheckpointTest, FailedPreconditionWireValueIsPinned) {
  // kFailedPrecondition is on the wire (u16 in Error frames) and in the WAL
  // recovery contract; its value is format-stable.
  EXPECT_EQ(static_cast<uint16_t>(ErrorCode::kFailedPrecondition), 10);
  EXPECT_EQ(ErrorCodeFromWire(10), ErrorCode::kFailedPrecondition);
}

TEST(CheckpointTest, CheckpointWithoutWalDirIsFailedPrecondition) {
  auto tb = Testbed::Create();
  ASSERT_TRUE(tb.ok());
  Status s = (*tb)->Checkpoint();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition) << s.ToString();
}

TEST(CheckpointTest, CorruptFileIsRejected) {
  auto tb = MakePopulatedTestbed();
  std::string path = TempPath("ckpt_corrupt.ckpt");
  ASSERT_TRUE(tb->SaveSession(path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(32);  // well past the magic, inside the payload
    char c = 0x7f;
    f.write(&c, 1);
  }
  auto info = PeekCheckpoint(path);
  EXPECT_FALSE(info.ok());
}

/// Writes `magic`, `payload` and the payload's CRC-32 to a temp file: the
/// framing WriteCheckpoint produces, around payloads it never would.
std::string WriteFramedFile(const std::string& name, const std::string& magic,
                            const std::string& payload) {
  std::string path = TempPath(name);
  codec::Writer trailer;
  trailer.U32(codec::Crc32(payload));
  std::ofstream f(path, std::ios::binary);
  f << magic << payload << trailer.str();
  return path;
}

/// DKBCKPT2 payload: empty header sections, then one table `t(a INT, b INT)`
/// with one hash index keyed on column `key_column`, its declared row count
/// `nrows`, and `cells` as the column-major cell stream.
std::string OneTablePayload(uint16_t key_column, uint64_t nrows,
                            const std::string& cells) {
  codec::Writer w;
  w.U64(0);  // last_lsn
  w.U64(1);  // epoch
  w.U32(0);  // rules
  w.U32(0);  // dictionary strings
  w.U32(1);  // tables
  w.Str("t");
  w.Cols(Schema({{"a", DataType::kInteger}, {"b", DataType::kInteger}}));
  w.U16(1);  // indexes
  w.Str("t_ix");
  w.U8(0);  // hash
  w.U16(1);
  w.U16(key_column);
  w.U64(nrows);
  return w.Take() + cells;
}

/// Two integer cells per row, column-major: a = 1..n, then b = 10..10n.
std::string IntCells(int n) {
  codec::Writer w;
  for (int col = 1; col <= 10; col += 9) {
    for (int i = 1; i <= n; ++i) {
      w.U8(1);
      w.I64(col * i);
    }
  }
  return w.Take();
}

/// Loads `path` into fresh tables owned by `tables`.
Result<CheckpointInfo> LoadInto(const std::string& path,
                                std::vector<std::unique_ptr<Table>>* tables) {
  TableFactory factory = [tables](const std::string& name,
                                  const Schema& schema) -> Result<Table*> {
    tables->push_back(std::make_unique<Table>(name, schema));
    return tables->back().get();
  };
  return ReadCheckpoint(path, factory, nullptr);
}

TEST(CheckpointTest, HandBuiltFileLoads) {
  // The builders below are faithful: the well-formed variant loads.
  std::string path = WriteFramedFile("ckpt_hand.ckpt", "DKBCKPT2",
                                     OneTablePayload(1, 2, IntCells(2)));
  std::vector<std::unique_ptr<Table>> tables;
  auto info = LoadInto(path, &tables);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0]->num_tuples(), 2u);
  const Index* index = tables[0]->FindIndexOn({1});
  ASSERT_NE(index, nullptr);
  std::vector<RowId> hits;
  tables[0]->ProbeIndex(index, Tuple{Value(int64_t{20})}, &hits);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(CheckpointTest, RowCountBeyondThePayloadIsRejected) {
  // CRC-valid, but claims 2^40 rows backed by two: the reader must refuse
  // before sizing any column buffer from the count.
  std::string path =
      WriteFramedFile("ckpt_huge_rows.ckpt", "DKBCKPT2",
                      OneTablePayload(0, uint64_t{1} << 40, IntCells(2)));
  std::vector<std::unique_ptr<Table>> tables;
  auto info = LoadInto(path, &tables);
  EXPECT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(tables.empty());
}

TEST(CheckpointTest, IndexKeyColumnOutsideTheSchemaIsRejected) {
  // Column 2 of a two-column schema: loading must not build the index,
  // whose key extraction would read past each row.
  std::string path = WriteFramedFile("ckpt_bad_key.ckpt", "DKBCKPT2",
                                     OneTablePayload(2, 2, IntCells(2)));
  std::vector<std::unique_ptr<Table>> tables;
  auto info = LoadInto(path, &tables);
  EXPECT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(info.status().message().find("column 2"), std::string::npos)
      << info.status().ToString();
}

TEST(CheckpointTest, VersionOneFileIsRejected) {
  // A DKBCKPT1 image with the old per-table shard count at its maximum:
  // the version check refuses it before any table is created.
  codec::Writer w;
  w.U64(0);
  w.U64(1);
  w.U32(0);
  w.U32(0);
  w.U32(1);
  w.Str("t");
  w.U32(0xFFFFFFFFu);  // shard_count
  w.U32(0);            // partition_column
  w.Cols(Schema({{"a", DataType::kInteger}}));
  w.U16(0);
  std::string path = WriteFramedFile("ckpt_v1.ckpt", "DKBCKPT1", w.Take());
  std::vector<std::unique_ptr<Table>> tables;
  auto info = LoadInto(path, &tables);
  EXPECT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(tables.empty());
  EXPECT_FALSE(PeekCheckpoint(path).ok());
}

}  // namespace
}  // namespace dkb::testbed
