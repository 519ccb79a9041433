#include "sql/parser.h"

#include <utility>

#include "common/str_util.h"

namespace dkb::sql {

Result<StatementPtr> ParseStatement(const std::string& input) {
  DKB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.ParseSingleStatement();
}

Result<std::vector<StatementPtr>> ParseScript(const std::string& input) {
  DKB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.ParseStatements();
}

namespace {

/// One level of grammar nesting, held while its recursive call runs.
class NestingScope {
 public:
  explicit NestingScope(size_t* depth) : depth_(depth) { ++*depth_; }
  ~NestingScope() { --*depth_; }
  NestingScope(const NestingScope&) = delete;
  NestingScope& operator=(const NestingScope&) = delete;

 private:
  size_t* depth_;
};

}  // namespace

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) return tokens_.back();
  return tokens_[i];
}

const Token& Parser::Advance() {
  const Token& tok = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return tok;
}

bool Parser::MatchKeyword(const char* kw) {
  if (Peek().IsKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::MatchSymbol(const char* sym) {
  if (Peek().IsSymbol(sym)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectKeyword(const char* kw) {
  if (!MatchKeyword(kw)) {
    return ErrorHere(std::string("expected keyword ") + kw);
  }
  return Status::OK();
}

Status Parser::ExpectSymbol(const char* sym) {
  if (!MatchSymbol(sym)) {
    return ErrorHere(std::string("expected '") + sym + "'");
  }
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& tok = Peek();
  std::string got = (tok.type == TokenType::kEnd) ? "<end>" : tok.text;
  return Status::InvalidArgument(message + " but got '" + got +
                                 "' at offset " + std::to_string(tok.offset));
}

Status Parser::CheckNesting() const {
  if (depth_ <= kMaxNestingDepth) return Status::OK();
  return ErrorHere("nesting deeper than " + std::to_string(kMaxNestingDepth) +
                   " levels");
}

bool Parser::IsBareAggregateName() const {
  const Token& tok = Peek();
  if (tok.type != TokenType::kKeyword || Peek(1).IsSymbol("(")) return false;
  return tok.text == "COUNT" || tok.text == "SUM" || tok.text == "MIN" ||
         tok.text == "MAX";
}

Result<std::string> Parser::ParseIdentifier(const char* what) {
  const Token& tok = Peek();
  if (tok.type != TokenType::kIdentifier) {
    return ErrorHere(std::string("expected ") + what);
  }
  Advance();
  return tok.text;
}

Result<std::string> Parser::ParseTableName(const char* what) {
  DKB_ASSIGN_OR_RETURN(std::string name, ParseIdentifier(what));
  // Dotted two-part names: the '.' must be immediately followed by an
  // identifier token ("sys.query_log"). One level only.
  if (Peek().IsSymbol(".") && Peek(1).type == TokenType::kIdentifier) {
    Advance();  // '.'
    name += "." + Advance().text;
  }
  return name;
}

Result<StatementPtr> Parser::ParseSingleStatement() {
  DKB_ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, ParseStatements());
  if (stmts.size() != 1) {
    return Status::InvalidArgument("expected exactly one statement, got " +
                                   std::to_string(stmts.size()));
  }
  return std::move(stmts[0]);
}

Result<std::vector<StatementPtr>> Parser::ParseStatements() {
  std::vector<StatementPtr> out;
  while (Peek().type != TokenType::kEnd) {
    if (MatchSymbol(";")) continue;
    param_count_ = 0;
    StatementPtr stmt;
    if (Peek().IsKeyword("CREATE")) {
      DKB_ASSIGN_OR_RETURN(stmt, ParseCreate());
    } else if (Peek().IsKeyword("DROP")) {
      DKB_ASSIGN_OR_RETURN(stmt, ParseDrop());
    } else if (Peek().IsKeyword("INSERT")) {
      DKB_ASSIGN_OR_RETURN(stmt, ParseInsert());
    } else if (Peek().IsKeyword("DELETE")) {
      DKB_ASSIGN_OR_RETURN(stmt, ParseDelete());
    } else if (Peek().IsKeyword("SELECT") || Peek().IsSymbol("(")) {
      auto sel = std::make_unique<SelectStatement>();
      DKB_ASSIGN_OR_RETURN(sel->select, ParseSelectStmt());
      stmt = std::move(sel);
    } else if (MatchKeyword("EXPLAIN")) {
      auto explain = std::make_unique<ExplainStmt>();
      explain->analyze = MatchKeyword("ANALYZE");
      DKB_ASSIGN_OR_RETURN(explain->select, ParseSelectStmt());
      stmt = std::move(explain);
    } else {
      return ErrorHere("expected statement");
    }
    stmt->param_count = param_count_;
    out.push_back(std::move(stmt));
    if (!MatchSymbol(";")) break;
  }
  if (Peek().type != TokenType::kEnd) {
    return ErrorHere("unexpected trailing input");
  }
  return out;
}

Result<DataType> Parser::ParseType() {
  if (MatchKeyword("INT") || MatchKeyword("INTEGER")) {
    return DataType::kInteger;
  }
  if (MatchKeyword("VARCHAR") || MatchKeyword("CHAR")) {
    // Optional length spec: CHAR(20); parsed and ignored (all strings are
    // variable length in this engine).
    if (MatchSymbol("(")) {
      if (Peek().type != TokenType::kInteger) {
        return ErrorHere("expected length in type");
      }
      Advance();
      DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    return DataType::kVarchar;
  }
  return ErrorHere("expected column type (INT / INTEGER / CHAR / VARCHAR)");
}

Result<StatementPtr> Parser::ParseCreate() {
  DKB_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  if (MatchKeyword("TABLE")) {
    auto stmt = std::make_unique<CreateTableStmt>();
    if (MatchKeyword("IF")) {
      DKB_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      DKB_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt->if_not_exists = true;
    }
    DKB_ASSIGN_OR_RETURN(stmt->table, ParseTableName("table name"));
    DKB_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<Column> columns;
    do {
      Column col;
      DKB_ASSIGN_OR_RETURN(col.name, ParseIdentifier("column name"));
      DKB_ASSIGN_OR_RETURN(col.type, ParseType());
      columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
    stmt->schema = Schema(std::move(columns));
    return StatementPtr(std::move(stmt));
  }
  bool ordered = MatchKeyword("ORDERED");
  if (MatchKeyword("INDEX")) {
    auto stmt = std::make_unique<CreateIndexStmt>();
    stmt->ordered = ordered;
    DKB_ASSIGN_OR_RETURN(stmt->index, ParseIdentifier("index name"));
    DKB_RETURN_IF_ERROR(ExpectKeyword("ON"));
    DKB_ASSIGN_OR_RETURN(stmt->table, ParseTableName("table name"));
    DKB_RETURN_IF_ERROR(ExpectSymbol("("));
    do {
      DKB_ASSIGN_OR_RETURN(std::string col, ParseIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return StatementPtr(std::move(stmt));
  }
  return ErrorHere("expected TABLE or INDEX after CREATE");
}

Result<StatementPtr> Parser::ParseDrop() {
  DKB_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  DKB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
  auto stmt = std::make_unique<DropTableStmt>();
  if (MatchKeyword("IF")) {
    DKB_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
    stmt->if_exists = true;
  }
  DKB_ASSIGN_OR_RETURN(stmt->table, ParseTableName("table name"));
  return StatementPtr(std::move(stmt));
}

Result<Value> Parser::ParseLiteralValue() {
  const Token& tok = Peek();
  if (tok.type == TokenType::kInteger) {
    Advance();
    return Value(tok.int_value);
  }
  if (tok.type == TokenType::kString) {
    Advance();
    return Value(tok.text);
  }
  if (tok.IsKeyword("NULL")) {
    Advance();
    return Value::Null();
  }
  return ErrorHere("expected literal");
}

Result<StatementPtr> Parser::ParseInsert() {
  DKB_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  DKB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  auto stmt = std::make_unique<InsertStmt>();
  DKB_ASSIGN_OR_RETURN(stmt->table, ParseTableName("table name"));
  if (MatchKeyword("VALUES")) {
    do {
      DKB_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<Value> row;
      do {
        if (Peek().IsSymbol("?")) {
          Advance();
          stmt->param_cells.push_back(sql::InsertStmt::ParamCell{
              stmt->rows.size(), row.size(), param_count_++});
          row.push_back(Value::Null());
          continue;
        }
        DKB_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        row.push_back(std::move(v));
      } while (MatchSymbol(","));
      DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
    } while (MatchSymbol(","));
    return StatementPtr(std::move(stmt));
  }
  if (Peek().IsKeyword("SELECT") || Peek().IsSymbol("(")) {
    DKB_ASSIGN_OR_RETURN(stmt->select, ParseSelectStmt());
    return StatementPtr(std::move(stmt));
  }
  return ErrorHere("expected VALUES or SELECT in INSERT");
}

Result<StatementPtr> Parser::ParseDelete() {
  DKB_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  DKB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  auto stmt = std::make_unique<DeleteStmt>();
  DKB_ASSIGN_OR_RETURN(stmt->table, ParseTableName("table name"));
  if (MatchKeyword("WHERE")) {
    DKB_ASSIGN_OR_RETURN(stmt->where, ParseCondition());
  }
  return StatementPtr(std::move(stmt));
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectStmt() {
  auto stmt = std::make_unique<SelectStmt>();
  DKB_ASSIGN_OR_RETURN(std::unique_ptr<SelectCore> first, ParseSelectCore());
  stmt->cores.push_back(std::move(first));
  while (true) {
    SetOp op = SetOp::kNone;
    if (MatchKeyword("UNION")) {
      op = MatchKeyword("ALL") ? SetOp::kUnionAll : SetOp::kUnion;
    } else if (MatchKeyword("EXCEPT")) {
      op = SetOp::kExcept;
    } else if (MatchKeyword("INTERSECT")) {
      op = SetOp::kIntersect;
    } else {
      break;
    }
    DKB_ASSIGN_OR_RETURN(std::unique_ptr<SelectCore> next, ParseSelectCore());
    stmt->cores.push_back(std::move(next));
    stmt->ops.push_back(op);
  }
  if (MatchKeyword("ORDER")) {
    DKB_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      OrderByItem item;
      const Token& tok = Peek();
      if (tok.type == TokenType::kInteger) {
        Advance();
        item.column = tok.text;
      } else {
        DKB_ASSIGN_OR_RETURN(item.column, ParseIdentifier("order-by column"));
      }
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
    } while (MatchSymbol(","));
  }
  if (MatchKeyword("LIMIT")) {
    const Token& tok = Peek();
    if (tok.type != TokenType::kInteger || tok.int_value < 0) {
      return ErrorHere("expected non-negative LIMIT count");
    }
    Advance();
    stmt->limit = static_cast<size_t>(tok.int_value);
  }
  return stmt;
}

Result<std::unique_ptr<SelectCore>> Parser::ParseSelectCore() {
  auto core = std::make_unique<SelectCore>();
  if (MatchSymbol("(")) {
    NestingScope nested(&depth_);
    DKB_RETURN_IF_ERROR(CheckNesting());
    DKB_ASSIGN_OR_RETURN(core->sub_select, ParseSelectStmt());
    DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return core;
  }
  DKB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  core->distinct = MatchKeyword("DISTINCT");
  do {
    DKB_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
    core->items.push_back(std::move(item));
  } while (MatchSymbol(","));
  DKB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  do {
    TableRef ref;
    DKB_ASSIGN_OR_RETURN(ref.table, ParseTableName("table name"));
    if (MatchKeyword("AS")) {
      DKB_ASSIGN_OR_RETURN(ref.alias, ParseIdentifier("alias"));
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    }
    core->from.push_back(std::move(ref));
  } while (MatchSymbol(","));
  if (MatchKeyword("WHERE")) {
    DKB_ASSIGN_OR_RETURN(core->where, ParseCondition());
  }
  if (MatchKeyword("GROUP")) {
    DKB_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      DKB_ASSIGN_OR_RETURN(ExprPtr expr, ParseOperand());
      core->group_by.push_back(std::move(expr));
    } while (MatchSymbol(","));
  }
  if (MatchKeyword("HAVING")) {
    DKB_ASSIGN_OR_RETURN(core->having, ParseCondition());
  }
  return core;
}

Result<SelectItem> Parser::ParseSelectItem() {
  SelectItem item;
  if (MatchSymbol("*")) {
    item.star = true;
    return item;
  }
  AggFn agg = AggFn::kNone;
  // An aggregate keyword only acts as one when a call follows; otherwise it
  // stays available as a plain column name (e.g. sys.metrics exposes `sum`).
  if (Peek(1).IsSymbol("(")) {
    if (Peek().IsKeyword("COUNT")) {
      agg = AggFn::kCount;
    } else if (Peek().IsKeyword("SUM")) {
      agg = AggFn::kSum;
    } else if (Peek().IsKeyword("MIN")) {
      agg = AggFn::kMin;
    } else if (Peek().IsKeyword("MAX")) {
      agg = AggFn::kMax;
    }
  }
  if (agg != AggFn::kNone) {
    Advance();
    DKB_RETURN_IF_ERROR(ExpectSymbol("("));
    if (agg == AggFn::kCount && MatchSymbol("*")) {
      item.agg = AggFn::kCountStar;
    } else {
      item.agg = agg;
      DKB_ASSIGN_OR_RETURN(item.expr, ParseOperand());
    }
    DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (MatchKeyword("AS")) {
      DKB_ASSIGN_OR_RETURN(item.alias, ParseIdentifier("alias"));
    }
    return item;
  }
  DKB_ASSIGN_OR_RETURN(item.expr, ParseOperand());
  if (MatchKeyword("AS")) {
    DKB_ASSIGN_OR_RETURN(item.alias, ParseIdentifier("alias"));
  }
  return item;
}

Result<ExprPtr> Parser::ParseCondition() {
  DKB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndChain());
  while (MatchKeyword("OR")) {
    DKB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndChain());
    lhs = std::make_unique<LogicalExpr>(LogicalOp::kOr, std::move(lhs),
                                        std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAndChain() {
  DKB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNotExpr());
  while (MatchKeyword("AND")) {
    DKB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNotExpr());
    lhs = std::make_unique<LogicalExpr>(LogicalOp::kAnd, std::move(lhs),
                                        std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNotExpr() {
  if (MatchKeyword("NOT")) {
    NestingScope nested(&depth_);
    DKB_RETURN_IF_ERROR(CheckNesting());
    DKB_ASSIGN_OR_RETURN(ExprPtr child, ParseNotExpr());
    return ExprPtr(std::make_unique<NotExpr>(std::move(child)));
  }
  return ParsePrimaryCondition();
}

Result<ExprPtr> Parser::ParsePrimaryCondition() {
  if (MatchSymbol("(")) {
    NestingScope nested(&depth_);
    DKB_RETURN_IF_ERROR(CheckNesting());
    DKB_ASSIGN_OR_RETURN(ExprPtr inner, ParseCondition());
    DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return inner;
  }
  DKB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseOperand());
  if (MatchKeyword("IN")) {
    DKB_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<Value> values;
    do {
      DKB_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      values.push_back(std::move(v));
    } while (MatchSymbol(","));
    DKB_RETURN_IF_ERROR(ExpectSymbol(")"));
    return ExprPtr(
        std::make_unique<InListExpr>(std::move(lhs), std::move(values)));
  }
  CompareOp op;
  const Token& tok = Peek();
  if (tok.IsSymbol("=")) {
    op = CompareOp::kEq;
  } else if (tok.IsSymbol("<>") || tok.IsSymbol("!=")) {
    op = CompareOp::kNe;
  } else if (tok.IsSymbol("<")) {
    op = CompareOp::kLt;
  } else if (tok.IsSymbol("<=")) {
    op = CompareOp::kLe;
  } else if (tok.IsSymbol(">")) {
    op = CompareOp::kGt;
  } else if (tok.IsSymbol(">=")) {
    op = CompareOp::kGe;
  } else {
    return ErrorHere("expected comparison operator");
  }
  Advance();
  DKB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseOperand());
  return ExprPtr(
      std::make_unique<ComparisonExpr>(op, std::move(lhs), std::move(rhs)));
}

Result<ExprPtr> Parser::ParseOperand() {
  const Token& tok = Peek();
  if (tok.type == TokenType::kIdentifier || IsBareAggregateName()) {
    const bool demoted = tok.type == TokenType::kKeyword;
    Advance();
    std::string first = demoted ? AsciiLower(tok.text) : tok.text;
    if (MatchSymbol(".")) {
      if (IsBareAggregateName()) {
        std::string col = AsciiLower(Advance().text);
        return ExprPtr(
            std::make_unique<ColumnRefExpr>(std::move(first), std::move(col)));
      }
      DKB_ASSIGN_OR_RETURN(std::string col, ParseIdentifier("column name"));
      return ExprPtr(
          std::make_unique<ColumnRefExpr>(std::move(first), std::move(col)));
    }
    return ExprPtr(std::make_unique<ColumnRefExpr>("", std::move(first)));
  }
  if (tok.type == TokenType::kInteger || tok.type == TokenType::kString ||
      tok.IsKeyword("NULL")) {
    DKB_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
    return ExprPtr(std::make_unique<LiteralExpr>(std::move(v)));
  }
  if (tok.IsSymbol("?")) {
    Advance();
    return ExprPtr(std::make_unique<ParamExpr>(param_count_++));
  }
  return ErrorHere("expected column reference or literal");
}

}  // namespace dkb::sql
