// Robustness: hostile and mutated inputs must produce error Statuses, never
// crashes, and must leave the system usable afterwards.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datalog/parser.h"
#include "rdbms/database.h"
#include "sql/parser.h"
#include "testbed/testbed.h"

namespace dkb {
namespace {

std::string RandomBytes(Rng* rng, size_t n) {
  // Printable-ish garbage with occasional structure characters.
  static const char kChars[] =
      "abcXYZ012 ,.()'\"<>=!:-?%\\\t\n_#;*+[]{}";
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += kChars[rng->Uniform(0, sizeof(kChars) - 2)];
  }
  return out;
}

TEST(RobustnessTest, SqlParserSurvivesGarbage) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, rng.Uniform(1, 120));
    auto result = sql::ParseStatement(input);
    // Either parses (unlikely) or errors; must not crash.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(RobustnessTest, SqlParserSurvivesMutatedStatements) {
  Rng rng(7);
  const std::string base =
      "SELECT DISTINCT a.x, b.y FROM t a, u b WHERE a.x = b.y AND a.z "
      "IN (1, 2) ORDER BY 1 LIMIT 5";
  for (int i = 0; i < 500; ++i) {
    std::string mutated = base;
    int edits = static_cast<int>(rng.Uniform(1, 4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(rng.Uniform(32, 126)));
          break;
        default:
          mutated[pos] = static_cast<char>(rng.Uniform(32, 126));
      }
    }
    auto result = sql::ParseStatement(mutated);
    (void)result;  // outcome irrelevant; absence of crash is the assertion
  }
}

TEST(RobustnessTest, DatalogParserSurvivesGarbage) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, rng.Uniform(1, 100));
    auto program = datalog::ParseProgram(input);
    (void)program;
    auto rule = datalog::ParseRule(input);
    (void)rule;
  }
}

/// `prefix` + `depth` x `open` + `core` + `depth` x `close`.
std::string Nested(const std::string& prefix, size_t depth,
                   const std::string& open, const std::string& core,
                   const std::string& close) {
  std::string out = prefix;
  for (size_t i = 0; i < depth; ++i) out += open;
  out += core;
  for (size_t i = 0; i < depth; ++i) out += close;
  return out;
}

/// The three nestings the SQL grammar recurses on, each `depth` deep:
/// parenthesized conditions, NOT chains and parenthesized sub-selects.
std::vector<std::string> NestedStatements(size_t depth) {
  return {Nested("SELECT c0 FROM t WHERE ", depth, "(", "c0 = 1", ")"),
          Nested("SELECT c0 FROM t WHERE ", depth, "NOT ", "c0 = 2", ""),
          Nested("INSERT INTO u ", depth, "(", "SELECT c0 FROM t", ")")};
}

constexpr size_t kHostileDepth = 10000;

TEST(RobustnessTest, DeeplyNestedSqlIsAnErrorNotACrash) {
  Database db;
  ASSERT_TRUE(db.ExecuteAll("CREATE TABLE t (c0 INT);"
                            "CREATE TABLE u (c0 INT);"
                            "INSERT INTO t VALUES (1)")
                  .ok());
  for (size_t depth : {sql::Parser::kMaxNestingDepth + 1, kHostileDepth}) {
    for (const std::string& statement : NestedStatements(depth)) {
      SCOPED_TRACE(statement.substr(0, 40) + " depth " +
                   std::to_string(depth));
      auto result = db.Execute(statement);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find("nesting"), std::string::npos)
          << result.status().ToString();
    }
  }
  auto count = db.QueryCount("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1);
}

TEST(RobustnessTest, DeeplyNestedSqlThroughTestbedIsAnError) {
  // The server hands a kSql frame's text to Testbed::ExecuteSql.
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->ExecuteSql("CREATE TABLE t (c0 INT)").ok());
  ASSERT_TRUE(tb->ExecuteSql("CREATE TABLE u (c0 INT)").ok());
  for (const std::string& statement : NestedStatements(kHostileDepth)) {
    auto result = tb->ExecuteSql(statement);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(tb->ExecuteSql("SELECT c0 FROM t").ok());
}

TEST(RobustnessTest, SqlAtTheNestingLimitRunsOnAThread) {
  // A thread's default stack, as on a server connection thread, holds
  // the deepest nesting the parser accepts.
  Database db;
  ASSERT_TRUE(db.ExecuteAll("CREATE TABLE t (c0 INT);"
                            "CREATE TABLE u (c0 INT);"
                            "INSERT INTO t VALUES (1)")
                  .ok());
  std::vector<Status> statuses;
  std::thread worker([&db, &statuses]() {
    for (const std::string& statement :
         NestedStatements(sql::Parser::kMaxNestingDepth)) {
      statuses.push_back(db.Execute(statement).status());
    }
  });
  worker.join();
  ASSERT_EQ(statuses.size(), 3u);
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  auto copied = db.QueryCount("SELECT COUNT(*) FROM u");
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 1);
}

TEST(RobustnessTest, DatabaseUsableAfterErrors) {
  Database db;
  ASSERT_TRUE(db.ExecuteAll("CREATE TABLE t (x INT);"
                            "INSERT INTO t VALUES (1)")
                  .ok());
  // A pile of failing statements...
  EXPECT_FALSE(db.Execute("SELECT * FROM missing").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES ('wrong type')").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE t (x INT)").ok());
  EXPECT_FALSE(db.Execute("SELECT bogus FROM t").ok());
  EXPECT_FALSE(db.Execute("nonsense ( here").ok());
  // ...must not corrupt state.
  auto count = db.QueryCount("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1);
}

TEST(RobustnessTest, TestbedUsableAfterQueryErrors) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult("anc(X,Y) :- par(X,Y).\n"
                          "anc(X,Y) :- par(X,Z), anc(Z,Y).\n"
                          "par(a, b).\n")
                  .ok());
  EXPECT_FALSE(tb->Query("?- ghost(X).").ok());
  EXPECT_FALSE(tb->Query("?- anc(X).").ok());           // arity
  EXPECT_FALSE(tb->Query("?- anc(1, X).").ok());        // type
  EXPECT_FALSE(tb->Consult("broken(X :- q(X).").ok());  // syntax
  // Unsafe rule poisons only queries that reach it.
  ASSERT_TRUE(tb->AddRule("bad(X, Q) :- par(X, Y2).").ok());
  EXPECT_FALSE(tb->Query("?- bad(a, W).").ok());
  auto good = tb->Query("?- anc(a, W).");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->result.rows.size(), 1u);
  // No leaked idb/temp tables from the failed attempts.
  for (const std::string& name : tb->db().catalog().TableNames()) {
    EXPECT_EQ(name.find('#'), std::string::npos) << name;
    EXPECT_NE(name, "idb_anc");
  }
}

TEST(RobustnessTest, RetractRule) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult("p(X) :- e(X, Y2).\np(X) :- f(X, X).\n"
                          "e(a, b).\nf(c, c).\n")
                  .ok());
  ASSERT_TRUE(tb->RetractRule("p(X) :- f(X, X).").ok());
  EXPECT_EQ(tb->workspace().num_rules(), 1u);
  auto outcome = tb->Query("?- p(X).");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.rows.size(), 1u);  // only via e
  EXPECT_EQ(tb->RetractRule("p(X) :- f(X, X).").code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(tb->RetractRule("p(X :-").ok());
}

}  // namespace
}  // namespace dkb
