#include <gtest/gtest.h>

#include <set>

#include "datalog/parser.h"
#include "km/eval_graph.h"
#include "km/rule_sql.h"
#include "km/type_checker.h"
#include "testbed/testbed.h"

namespace dkb {
namespace {

using datalog::ParseProgram;
using datalog::ParseRule;
using lfp::LfpStrategy;

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(NegationParseTest, NotKeyword) {
  auto rule = ParseRule("bachelor(X) :- man(X), not married(X).");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ASSERT_EQ(rule->body.size(), 2u);
  EXPECT_FALSE(rule->body[0].negated);
  EXPECT_TRUE(rule->body[1].negated);
  EXPECT_EQ(rule->body[1].predicate, "married");
}

TEST(NegationParseTest, PrologStyleBackslashPlus) {
  auto rule = ParseRule("p(X) :- q(X), \\+ r(X).");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_TRUE(rule->body[1].negated);
}

TEST(NegationParseTest, ToStringRoundTrip) {
  auto rule = ParseRule("p(X) :- q(X), not r(X, 3).");
  ASSERT_TRUE(rule.ok());
  auto reparsed = ParseRule(rule->ToString());
  ASSERT_TRUE(reparsed.ok()) << rule->ToString();
  EXPECT_EQ(*rule, *reparsed);
}

TEST(NegationParseTest, PredicateNamedNotStillWorks) {
  // "not(" with no space parses as a predicate named not.
  auto rule = ParseRule("p(X) :- not(X).");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->body[0].predicate, "not");
  EXPECT_FALSE(rule->body[0].negated);
}

TEST(NegationParseTest, NegationDistinguishesAtoms) {
  auto a = ParseRule("p(X) :- q(X), not r(X).");
  auto b = ParseRule("p(X) :- q(X), r(X).");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(*a == *b);
}

// ---------------------------------------------------------------------------
// Safety and stratification
// ---------------------------------------------------------------------------

const std::map<std::string, km::PredicateTypes> kBase = {
    {"man", {DataType::kVarchar}},
    {"married", {DataType::kVarchar}},
    {"e", {DataType::kVarchar, DataType::kVarchar}},
};

TEST(NegationSafetyTest, NegatedVarMustBePositivelyBound) {
  auto program = ParseProgram("p(X) :- man(X), not e(X, Y).");
  ASSERT_TRUE(program.ok());
  auto result = km::TypeCheck(program->rules, kBase);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST(NegationSafetyTest, HeadVarNeedsPositiveBinding) {
  // X appears only in a negated atom: unsafe.
  auto program = ParseProgram("p(X) :- man(q), not married(X).");
  ASSERT_TRUE(program.ok());
  auto result = km::TypeCheck(program->rules, kBase);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST(NegationSafetyTest, SafeRulePassesAndInfersTypes) {
  auto program = ParseProgram("bachelor(X) :- man(X), not married(X).");
  ASSERT_TRUE(program.ok());
  auto result = km::TypeCheck(program->rules, kBase);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->derived_types.at("bachelor"),
            (km::PredicateTypes{DataType::kVarchar}));
}

TEST(NegationStratificationTest, RecursionThroughNegationRejected) {
  auto program = ParseProgram(
      "win(X) :- e(X, Y), not win(Y).\n");
  ASSERT_TRUE(program.ok());
  auto order = km::BuildEvaluationOrder(program->rules, {"win"});
  ASSERT_FALSE(order.ok());
  EXPECT_EQ(order.status().code(), StatusCode::kSemanticError);
  EXPECT_NE(order.status().message().find("stratified"), std::string::npos);
}

TEST(NegationStratificationTest, MutualRecursionThroughNegationRejected) {
  auto program = ParseProgram(
      "a(X) :- e(X, Y), b(Y).\n"
      "b(X) :- e(X, Y), not a(Y).\n");
  ASSERT_TRUE(program.ok());
  auto order = km::BuildEvaluationOrder(program->rules, {"a", "b"});
  ASSERT_FALSE(order.ok());
}

TEST(NegationStratificationTest, NegationAcrossStrataAccepted) {
  auto program = ParseProgram(
      "reach(X, Y) :- e(X, Y).\n"
      "reach(X, Y) :- e(X, Z), reach(Z, Y).\n"
      "unreach(X, Y) :- node(X), node(Y), not reach(X, Y).\n");
  ASSERT_TRUE(program.ok());
  auto order =
      km::BuildEvaluationOrder(program->rules, {"reach", "unreach"});
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  // reach clique must precede the unreach predicate node.
  ASSERT_EQ(order->nodes.size(), 2u);
  EXPECT_EQ(order->nodes[0].kind, km::EvalNode::Kind::kClique);
  EXPECT_EQ(order->nodes[1].predicate, "unreach");
}

// ---------------------------------------------------------------------------
// SQL pipeline
// ---------------------------------------------------------------------------

Result<km::RelationBinding> TypedResolver(const datalog::Atom& atom,
                                          size_t) {
  km::RelationBinding b;
  b.table = atom.predicate + "_tbl";
  for (size_t i = 0; i < atom.arity(); ++i) {
    b.columns.push_back("c" + std::to_string(i));
    b.types.push_back(DataType::kVarchar);
  }
  return b;
}

TEST(NegationSqlTest, PositiveRuleIsSingleStatement) {
  auto rule = ParseRule("p(X) :- q(X).");
  ASSERT_TRUE(rule.ok());
  auto program = km::RuleToSqlProgram(*rule, TypedResolver, "tgt", "#x");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(program->bind_tables.empty());
  ASSERT_EQ(program->statements.size(), 1u);
  EXPECT_NE(program->statements[0].find("INSERT INTO tgt"),
            std::string::npos);
}

TEST(NegationSqlTest, PipelineShape) {
  auto rule = ParseRule("p(X, Y) :- q(X, Z), e(Z, Y), not r(X, Y).");
  ASSERT_TRUE(rule.ok());
  auto program = km::RuleToSqlProgram(*rule, TypedResolver, "tgt", "#x");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  // Two binding tables (before/after the one negated atom), three stmts.
  ASSERT_EQ(program->bind_tables.size(), 2u);
  ASSERT_EQ(program->statements.size(), 3u);
  // Binding schema covers X, Z, Y.
  EXPECT_EQ(program->bind_tables[0].schema.num_columns(), 3u);
  EXPECT_NE(program->statements[1].find("EXCEPT"), std::string::npos);
  EXPECT_NE(program->statements[2].find("INSERT INTO tgt"),
            std::string::npos);
}

TEST(NegationSqlTest, DefaultPipelineEndsWithInsertNew) {
  auto rule = ParseRule("p(X, Y) :- q(X, Z), e(Z, Y), not r(X, Y).");
  ASSERT_TRUE(rule.ok());
  auto program = km::RuleToSqlProgram(*rule, TypedResolver, "tgt", "#x");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->statements.size(), 3u);
  EXPECT_EQ(program->statements[2],
            "INSERT INTO tgt (SELECT DISTINCT v0, v2 FROM #x_b1) "
            "EXCEPT (SELECT * FROM tgt)");
}

TEST(NegationSqlTest, AppendPipelineEndsWithPlainInsert) {
  auto rule = ParseRule("p(X, Y) :- q(X, Z), e(Z, Y), not r(X, Y).");
  ASSERT_TRUE(rule.ok());
  auto program = km::RuleToSqlProgram(*rule, TypedResolver, "tgt", "#x",
                                      km::RuleInsert::kAppend);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->bind_tables.size(), 2u);
  ASSERT_EQ(program->statements.size(), 3u);
  // The binding stages are unchanged: bind tables stay sets.
  auto dedup = km::RuleToSqlProgram(*rule, TypedResolver, "tgt", "#x");
  ASSERT_TRUE(dedup.ok());
  EXPECT_EQ(program->statements[0], dedup->statements[0]);
  EXPECT_EQ(program->statements[1], dedup->statements[1]);
  // Only the head projection from the last bind table changes.
  EXPECT_EQ(program->statements[2], "INSERT INTO tgt SELECT v0, v2 FROM #x_b1");
}

TEST(NegationSqlTest, RuleToSelectRejectsNegation) {
  auto rule = ParseRule("p(X) :- q(X), not r(X).");
  ASSERT_TRUE(rule.ok());
  auto select = km::RuleToSelect(*rule, TypedResolver);
  ASSERT_FALSE(select.ok());
  EXPECT_EQ(select.status().code(), StatusCode::kInvalidArgument);
}

TEST(NegationSqlTest, AllNegatedBodyRejected) {
  auto rule = ParseRule("p(a) :- not q(a).");
  ASSERT_TRUE(rule.ok());
  auto program = km::RuleToSqlProgram(*rule, TypedResolver, "tgt", "#x");
  ASSERT_FALSE(program.ok());
}

// ---------------------------------------------------------------------------
// End-to-end across strategies
// ---------------------------------------------------------------------------

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

class NegationE2eTest : public ::testing::TestWithParam<LfpStrategy> {
 protected:
  void SetUp() override {
    auto tb = testbed::Testbed::Create();
    ASSERT_TRUE(tb.ok());
    tb_ = std::move(*tb);
  }

  QueryResult Query(const std::string& goal) {
    testbed::QueryOptions opts =
        testbed::QueryOptions::SemiNaive().WithStrategy(GetParam());
    auto outcome = tb_->Query(goal, opts);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? std::move(outcome->result) : QueryResult{};
  }

  std::unique_ptr<testbed::Testbed> tb_;
};

TEST_P(NegationE2eTest, Bachelors) {
  ASSERT_TRUE(tb_->Consult(
                     "bachelor(X) :- man(X), not married(X).\n"
                     "man(al).\nman(bo).\nman(cy).\n"
                     "married(bo).\n")
                  .ok());
  QueryResult r = Query("?- bachelor(X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"al|", "cy|"}));
}

TEST_P(NegationE2eTest, PerBindingNotPerHeadSemantics) {
  // p(X) :- q(X, Y), not r(Y): a is blocked on Y=1 but derivable via Y=2.
  ASSERT_TRUE(tb_->Consult(
                     "p(X) :- q(X, Y), not r(Y).\n"
                     "q(a, 1).\nq(a, 2).\nq(b, 1).\n"
                     "r(1).\n")
                  .ok());
  QueryResult r = Query("?- p(X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"a|"}));
}

TEST_P(NegationE2eTest, UnreachablePairs) {
  ASSERT_TRUE(tb_->Consult(
                     "reach(X, Y) :- e(X, Y).\n"
                     "reach(X, Y) :- e(X, Z), reach(Z, Y).\n"
                     "unreach(X, Y) :- node(X), node(Y), not reach(X, Y).\n"
                     "node(a).\nnode(b).\nnode(c).\n"
                     "e(a, b).\ne(b, c).\n")
                  .ok());
  QueryResult r = Query("?- unreach(a, Y).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"a|"}));  // a !reach a
  QueryResult rc = Query("?- unreach(c, Y).");
  EXPECT_EQ(AnswerSet(rc),
            (std::set<std::string>{"a|", "b|", "c|"}));
}

TEST_P(NegationE2eTest, NegationInRecursiveRuleOverLowerStratum) {
  // Paths that avoid blocked nodes.
  ASSERT_TRUE(tb_->Consult(
                     "safe(X, Y) :- e(X, Y), not blocked(Y).\n"
                     "safe(X, Y) :- safe(X, Z), e(Z, Y), not blocked(Y).\n"
                     "blocked(c).\n"
                     "e(a, b).\ne(b, c).\ne(c, d).\ne(b, d).\n")
                  .ok());
  QueryResult r = Query("?- safe(a, W).");
  // c is blocked; d still reachable via b->d.
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"b|", "d|"}));
}

TEST_P(NegationE2eTest, TwoNegatedAtoms) {
  ASSERT_TRUE(tb_->Consult(
                     "pick(X) :- cand(X), not bad(X), not ugly(X).\n"
                     "cand(p).\ncand(q).\ncand(s).\ncand(t).\n"
                     "bad(q).\nugly(s).\n")
                  .ok());
  QueryResult r = Query("?- pick(X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"p|", "t|"}));
}

TEST_P(NegationE2eTest, NegatedAtomWithConstant) {
  ASSERT_TRUE(tb_->Consult(
                     "ok(X) :- cand(X), not banned(X, here).\n"
                     "cand(p).\ncand(q).\n"
                     "banned(q, here).\nbanned(p, there).\n")
                  .ok());
  QueryResult r = Query("?- ok(X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"p|"}));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, NegationE2eTest,
                         ::testing::Values(LfpStrategy::kNaive,
                                           LfpStrategy::kSemiNaive,
                                           LfpStrategy::kNative),
                         [](const auto& info) {
                           std::string name = lfp::StrategyName(info.param);
                           std::string out;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c)))
                               out += c;
                           }
                           return out;
                         });

TEST(NegationE2eSingleTest, UnstratifiedProgramRejectedAtQueryTime) {
  auto tb = testbed::Testbed::Create();
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE((*tb)->Consult("win(X) :- move(X, Y), not win(Y).\n"
                             "move(a, b).\n")
                  .ok());
  auto outcome = (*tb)->Query("?- win(X).");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kSemanticError);
}

TEST(NegationE2eSingleTest, MagicFallsBackToIdentityWithNegation) {
  auto tb = testbed::Testbed::Create();
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE((*tb)->Consult(
                     "safe(X, Y) :- e(X, Y), not blocked(Y).\n"
                     "safe(X, Y) :- safe(X, Z), e(Z, Y), not blocked(Y).\n"
                     "blocked(c).\n"
                     "e(a, b).\ne(b, c).\ne(b, d).\n")
                  .ok());
  testbed::QueryOptions magic = testbed::QueryOptions::Magic();
  auto outcome = (*tb)->Query("?- safe(a, W).", magic);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(AnswerSet(outcome->result),
            (std::set<std::string>{"b|", "d|"}));
}

TEST(NegationE2eSingleTest, StrategiesAgreeOnLargerWorkload) {
  auto tb = testbed::Testbed::Create();
  ASSERT_TRUE(tb.ok());
  // Reach-avoiding-blocked over a grid-ish graph.
  std::string program =
      "safe(X, Y) :- e(X, Y), not blocked(Y).\n"
      "safe(X, Y) :- safe(X, Z), e(Z, Y), not blocked(Y).\n";
  for (int i = 0; i < 40; ++i) {
    program += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
               ").\n";
    if (i % 4 == 0) {
      program += "e(n" + std::to_string(i) + ", n" +
                 std::to_string((i + 7) % 41) + ").\n";
    }
    if (i % 9 == 0) {
      program += "blocked(n" + std::to_string(i + 2) + ").\n";
    }
  }
  ASSERT_TRUE((*tb)->Consult(program).ok());
  std::set<std::string> reference;
  for (auto strategy : {LfpStrategy::kNaive, LfpStrategy::kSemiNaive,
                        LfpStrategy::kNative}) {
    testbed::QueryOptions opts =
        testbed::QueryOptions::SemiNaive().WithStrategy(strategy);
    auto outcome = (*tb)->Query("?- safe(n0, W).", opts);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto answers = AnswerSet(outcome->result);
    if (reference.empty()) {
      reference = answers;
      EXPECT_GT(reference.size(), 10u);
    } else {
      EXPECT_EQ(answers, reference) << lfp::StrategyName(strategy);
    }
  }
}

}  // namespace
}  // namespace dkb
