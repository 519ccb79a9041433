#ifndef DKB_SQL_PARSER_H_
#define DKB_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace dkb::sql {

/// Parses one SQL statement (a trailing ';' is allowed).
Result<StatementPtr> ParseStatement(const std::string& input);

/// Parses a ';'-separated script into a statement list.
Result<std::vector<StatementPtr>> ParseScript(const std::string& input);

/// Recursive-descent parser over the token stream. Exposed as a class so the
/// tests can exercise sub-grammars directly.
class Parser {
 public:
  /// Deepest nesting of parenthesized conditions, NOTs and parenthesized
  /// sub-selects that parses. Each level costs several recursive frames
  /// here and in the planner, so deeper input returns InvalidArgument
  /// rather than overflowing the stack of the thread that runs it (a
  /// server connection thread). A statement at the limit plans and runs in
  /// under 1.5 MiB of stack in a Debug ASan/UBSan build.
  static constexpr size_t kMaxNestingDepth = 128;

  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseSingleStatement();
  Result<std::vector<StatementPtr>> ParseStatements();

  /// Grammar entry points (public for tests).
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt();
  Result<ExprPtr> ParseCondition();

 private:
  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool MatchKeyword(const char* kw);
  bool MatchSymbol(const char* sym);
  Status ExpectKeyword(const char* kw);
  Status ExpectSymbol(const char* sym);
  Status ErrorHere(const std::string& message) const;

  /// InvalidArgument once depth_ exceeds kMaxNestingDepth.
  Status CheckNesting() const;

  Result<StatementPtr> ParseCreate();
  Result<StatementPtr> ParseDrop();
  Result<StatementPtr> ParseInsert();
  Result<StatementPtr> ParseDelete();

  Result<std::unique_ptr<SelectCore>> ParseSelectCore();
  Result<SelectItem> ParseSelectItem();
  Result<ExprPtr> ParseAndChain();
  Result<ExprPtr> ParseNotExpr();
  Result<ExprPtr> ParsePrimaryCondition();
  Result<ExprPtr> ParseOperand();
  Result<Value> ParseLiteralValue();
  Result<DataType> ParseType();
  Result<std::string> ParseIdentifier(const char* what);
  /// True when the next token is an aggregate keyword (COUNT/SUM/MIN/MAX)
  /// used as a bare name, i.e. not followed by '('. Such tokens demote to
  /// ordinary lowercase column identifiers (sys.metrics exposes `sum`/`max`).
  bool IsBareAggregateName() const;
  /// `[schema.]name` — a plain identifier or a dotted two-part name, joined
  /// back with '.' (the reserved `sys` schema's views are addressed this
  /// way: `sys.query_log`).
  Result<std::string> ParseTableName(const char* what);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t param_count_ = 0;  // `?` placeholders seen in the current statement
  size_t depth_ = 0;        // nesting levels open (see kMaxNestingDepth)
};

}  // namespace dkb::sql

#endif  // DKB_SQL_PARSER_H_
