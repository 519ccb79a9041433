#include <gtest/gtest.h>

#include "datalog/ast.h"
#include "datalog/parser.h"

namespace dkb::datalog {
namespace {

TEST(DatalogParserTest, ParsesRule) {
  auto rule = ParseRule("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->head.predicate, "ancestor");
  ASSERT_EQ(rule->body.size(), 2u);
  EXPECT_EQ(rule->body[0].predicate, "parent");
  EXPECT_TRUE(rule->head.args[0].is_variable());
  EXPECT_EQ(rule->head.args[0].var, "X");
  EXPECT_FALSE(rule->is_fact());
}

TEST(DatalogParserTest, ParsesGroundFactConstants) {
  auto rule = ParseRule("parent(john, mary).");
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule->is_fact());
  EXPECT_EQ(rule->head.args[0].value, Value("john"));
}

TEST(DatalogParserTest, ConstantKinds) {
  auto rule = ParseRule("p(abc, 42, -7, 'Quoted Name', \"double\").");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  const auto& args = rule->head.args;
  EXPECT_EQ(args[0].value, Value("abc"));
  EXPECT_EQ(args[1].value, Value(static_cast<int64_t>(42)));
  EXPECT_EQ(args[2].value, Value(static_cast<int64_t>(-7)));
  EXPECT_EQ(args[3].value, Value("Quoted Name"));
  EXPECT_EQ(args[4].value, Value("double"));
}

TEST(DatalogParserTest, UnderscoreAndUppercaseAreVariables) {
  auto rule = ParseRule("p(X, _y, Zed) :- q(X, _y, Zed).");
  ASSERT_TRUE(rule.ok());
  for (const Term& t : rule->head.args) EXPECT_TRUE(t.is_variable());
}

TEST(DatalogParserTest, ProgramClassifiesClauses) {
  auto program = ParseProgram(
      "% the ancestor program\n"
      "ancestor(X,Y) :- parent(X,Y).\n"
      "ancestor(X,Y) :- parent(X,Z), ancestor(Z,Y).\n"
      "parent(john, mary).\n"
      "parent(mary, sue).\n"
      "?- ancestor(john, W).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->rules.size(), 2u);
  EXPECT_EQ(program->facts.size(), 2u);
  ASSERT_EQ(program->queries.size(), 1u);
  EXPECT_EQ(program->queries[0].predicate, "ancestor");
}

TEST(DatalogParserTest, SpanLinesCountBlankLinesCommentsAndRuleLines) {
  auto program = ParseProgram(
      "p(a).\n"                      // line 1
      "\n"
      "% a comment line\n"
      "   q(b).  % trailing comment\n"  // line 4
      "r(X) :-\n"                    // line 5: a rule over three lines
      "    p(X),\n"
      "    q(X).\n"
      "?- r(W).\n"
      "\n\n"
      "s(c). t(d).\n"                // line 11, twice
      "u(X) :- r(X).");              // line 12, no final newline
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->facts.size(), 4u);
  ASSERT_EQ(program->rules.size(), 2u);
  EXPECT_EQ(program->facts[0].span.line, 1);
  EXPECT_EQ(program->facts[1].span.line, 4);
  EXPECT_EQ(program->facts[2].span.line, 11);
  EXPECT_EQ(program->facts[3].span.line, 11);
  EXPECT_EQ(program->rules[0].span.line, 5);
  EXPECT_EQ(program->rules[1].span.line, 12);
  // Offsets still bracket each clause, from its first token to its '.'.
  const SourceSpan& rule = program->rules[0].span;
  EXPECT_EQ(rule.end - rule.begin,
            std::string("r(X) :-\n    p(X),\n    q(X).").size());
}

TEST(DatalogParserTest, FactWithVariableRejected) {
  EXPECT_FALSE(ParseProgram("parent(X, mary).").ok());
}

TEST(DatalogParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseRule("p(X Y) :- q(X).").ok());
  EXPECT_FALSE(ParseRule("p(X) :- .").ok());
  EXPECT_FALSE(ParseRule("(X) :- q(X).").ok());
  EXPECT_FALSE(ParseRule("p(X) :- q(X). extra").ok());
  EXPECT_FALSE(ParseProgram("p(a)  q(b).").ok());
  EXPECT_FALSE(ParseRule("p('unterminated).").ok());
}

TEST(DatalogParserTest, QueryParsing) {
  auto q1 = ParseQuery("?- ancestor(john, W).");
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->predicate, "ancestor");
  auto q2 = ParseQuery("ancestor(john, W)");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->args[1].var, "W");
}

TEST(DatalogAstTest, ToStringRoundTrip) {
  const char* texts[] = {
      "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
      "p(a, 3) :- q(a, X), r(X, 3).",
      "edge(n1, n2).",
      "p('has space', X) :- q(X).",
  };
  for (const char* text : texts) {
    auto rule = ParseRule(text);
    ASSERT_TRUE(rule.ok()) << text;
    auto reparsed = ParseRule(rule->ToString());
    ASSERT_TRUE(reparsed.ok()) << rule->ToString();
    EXPECT_EQ(*rule, *reparsed) << text;
  }
}

TEST(DatalogAstTest, EqualityIsStructural) {
  auto a = ParseRule("p(X) :- q(X).");
  auto b = ParseRule("p(X) :- q(X).");
  auto c = ParseRule("p(Y) :- q(Y).");  // different variable names
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(*a == *c);  // no alpha-equivalence (by design)
}

TEST(DatalogAstTest, ZeroArityAtomParses) {
  auto rule = ParseRule("alarm() :- sensor(hot).");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->head.arity(), 0u);
}

}  // namespace
}  // namespace dkb::datalog
