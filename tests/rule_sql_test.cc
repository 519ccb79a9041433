#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "km/rule_sql.h"

namespace dkb::km {
namespace {

datalog::Rule R(const std::string& text) {
  auto rule = datalog::ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return *rule;
}

/// All predicates bind to "<pred>_tbl" with columns c0..c{arity-1}.
Result<RelationBinding> SimpleResolver(const datalog::Atom& atom, size_t) {
  RelationBinding b;
  b.table = atom.predicate + "_tbl";
  for (size_t i = 0; i < atom.arity(); ++i) {
    b.columns.push_back("c" + std::to_string(i));
  }
  return b;
}

TEST(RuleSqlTest, SingleAtomProjection) {
  auto sql = RuleToSelect(R("p(Y, X) :- e(X, Y)."), SimpleResolver);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(*sql, "SELECT DISTINCT r0.c1, r0.c0 FROM e_tbl r0");
}

TEST(RuleSqlTest, JoinOnSharedVariable) {
  auto sql =
      RuleToSelect(R("p(X, Y) :- e(X, Z), f(Z, Y)."), SimpleResolver);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql,
            "SELECT DISTINCT r0.c0, r1.c1 FROM e_tbl r0, f_tbl r1 "
            "WHERE r1.c0 = r0.c1");
}

TEST(RuleSqlTest, ConstantsBecomeWhereConjuncts) {
  auto sql = RuleToSelect(R("p(X) :- e(king, X, 7)."), SimpleResolver);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql,
            "SELECT DISTINCT r0.c1 FROM e_tbl r0 "
            "WHERE r0.c0 = 'king' AND r0.c2 = 7");
}

TEST(RuleSqlTest, ConstantInHeadProjectsLiteral) {
  auto sql = RuleToSelect(R("p(tag, X) :- e(X, Y2)."), SimpleResolver);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql, "SELECT DISTINCT 'tag', r0.c0 FROM e_tbl r0");
}

TEST(RuleSqlTest, RepeatedVariableWithinAtom) {
  auto sql = RuleToSelect(R("loop(X) :- e(X, X)."), SimpleResolver);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql,
            "SELECT DISTINCT r0.c0 FROM e_tbl r0 WHERE r0.c1 = r0.c0");
}

TEST(RuleSqlTest, ThreeWayJoin) {
  auto sql = RuleToSelect(R("sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)."),
                          SimpleResolver);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql,
            "SELECT DISTINCT r0.c0, r2.c1 "
            "FROM up_tbl r0, sg_tbl r1, down_tbl r2 "
            "WHERE r1.c0 = r0.c1 AND r2.c0 = r1.c1");
}

TEST(RuleSqlTest, ResolverSeesBodyPosition) {
  // A delta-substituting resolver maps occurrence 1 of `anc` elsewhere.
  BindingResolver resolver = [](const datalog::Atom& atom,
                                size_t body_index) -> Result<RelationBinding> {
    RelationBinding b;
    b.table = (atom.predicate == "anc" && body_index == 1) ? "#anc_delta"
                                                           : atom.predicate;
    for (size_t i = 0; i < atom.arity(); ++i) {
      b.columns.push_back("c" + std::to_string(i));
    }
    return b;
  };
  auto sql = RuleToSelect(R("anc(X,Y) :- par(X,Z), anc(Z,Y)."), resolver);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("#anc_delta r1"), std::string::npos);
}

TEST(RuleSqlTest, UnsafeRuleRejected) {
  auto sql = RuleToSelect(R("p(X, Y) :- e(X, Z2)."), SimpleResolver);
  ASSERT_FALSE(sql.ok());
  EXPECT_EQ(sql.status().code(), StatusCode::kSemanticError);
}

TEST(RuleSqlTest, BodilessClauseRejected) {
  auto sql = RuleToSelect(R("p(a, b)."), SimpleResolver);
  ASSERT_FALSE(sql.ok());
  EXPECT_EQ(sql.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuleSqlTest, ResolverErrorsPropagate) {
  BindingResolver failing = [](const datalog::Atom&,
                               size_t) -> Result<RelationBinding> {
    return Status::Internal("no binding");
  };
  EXPECT_FALSE(RuleToSelect(R("p(X) :- e(X, Y2)."), failing).ok());
}

TEST(RuleSqlTest, QuotedConstantEscaped) {
  auto sql = RuleToSelect(R("p(X) :- e(X, 'o\\'neil')."), SimpleResolver);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("'o''neil'"), std::string::npos);
}

TEST(RuleSqlTest, DefaultProgramInsertsOnlyNewRows) {
  // Exit rules and the naive evaluator: the target stays a set.
  auto program = RuleToSqlProgram(R("anc(X, Y) :- par(X, Z), anc(Z, Y)."),
                                  SimpleResolver, "#anc_new", "#v");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->statements.size(), 1u);
  EXPECT_EQ(program->statements[0],
            "INSERT INTO #anc_new (SELECT DISTINCT r0.c0, r1.c1 "
            "FROM par_tbl r0, anc_tbl r1 WHERE r1.c0 = r0.c1) "
            "EXCEPT (SELECT * FROM #anc_new)");
}

TEST(RuleSqlTest, AppendProgramHasNoDedup) {
  // Semi-naive differential variants: AbsorbNew is the only dedup.
  auto program = RuleToSqlProgram(R("anc(X, Y) :- par(X, Z), anc(Z, Y)."),
                                  SimpleResolver, "#anc_new", "#v",
                                  RuleInsert::kAppend);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(program->bind_tables.empty());
  ASSERT_EQ(program->statements.size(), 1u);
  const std::string& sql = program->statements[0];
  EXPECT_EQ(sql,
            "INSERT INTO #anc_new SELECT r0.c0, r1.c1 "
            "FROM par_tbl r0, anc_tbl r1 WHERE r1.c0 = r0.c1");
  EXPECT_EQ(sql.find("DISTINCT"), std::string::npos);
  EXPECT_EQ(sql.find("EXCEPT"), std::string::npos);
}

TEST(RuleSqlTest, AppendProgramKeepsConstantsAndErrors) {
  auto program = RuleToSqlProgram(R("p(tag, X) :- e(X, 7)."), SimpleResolver,
                                  "t", "#v", RuleInsert::kAppend);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->statements[0],
            "INSERT INTO t SELECT 'tag', r0.c0 FROM e_tbl r0 "
            "WHERE r0.c1 = 7");
  auto unsafe = RuleToSqlProgram(R("p(X, Y) :- e(X, Z2)."), SimpleResolver,
                                 "t", "#v", RuleInsert::kAppend);
  ASSERT_FALSE(unsafe.ok());
  EXPECT_EQ(unsafe.status().code(), StatusCode::kSemanticError);
}

}  // namespace
}  // namespace dkb::km
