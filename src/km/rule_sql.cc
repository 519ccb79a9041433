#include "km/rule_sql.h"

#include <map>

namespace dkb::km {

namespace {

struct ColRef {
  std::string alias;
  std::string column;
  std::string ToString() const { return alias + "." + column; }
};

/// Shared positive-part analysis: aliases each non-negated body atom,
/// collects join/constant conjuncts, and records the canonical (first)
/// occurrence and type of every variable.
struct PositivePart {
  std::string from;                       // "t0 r0, t1 r2, ..."
  std::vector<std::string> conjuncts;     // join + constant predicates
  std::map<std::string, ColRef> canonical;
  std::vector<std::string> var_order;     // first-occurrence order
  std::map<std::string, DataType> var_types;
};

Result<PositivePart> AnalyzePositive(const datalog::Rule& rule,
                                     const BindingResolver& resolver) {
  PositivePart part;
  bool first_table = true;
  for (size_t bi = 0; bi < rule.body.size(); ++bi) {
    const datalog::Atom& atom = rule.body[bi];
    if (atom.negated || atom.is_builtin()) continue;
    DKB_ASSIGN_OR_RETURN(RelationBinding binding, resolver(atom, bi));
    if (binding.columns.size() != atom.arity()) {
      return Status::Internal("binding for " + atom.predicate + " has " +
                              std::to_string(binding.columns.size()) +
                              " columns but atom has arity " +
                              std::to_string(atom.arity()));
    }
    std::string alias = "r" + std::to_string(bi);
    if (!first_table) part.from += ", ";
    first_table = false;
    part.from += binding.table + " " + alias;

    for (size_t ai = 0; ai < atom.args.size(); ++ai) {
      const datalog::Term& term = atom.args[ai];
      ColRef ref{alias, binding.columns[ai]};
      if (term.is_constant()) {
        part.conjuncts.push_back(ref.ToString() + " = " +
                                 term.value.ToSqlLiteral());
        continue;
      }
      auto [it, inserted] = part.canonical.emplace(term.var, ref);
      if (inserted) {
        part.var_order.push_back(term.var);
        if (ai < binding.types.size()) {
          part.var_types[term.var] = binding.types[ai];
        }
      } else {
        part.conjuncts.push_back(ref.ToString() + " = " +
                                 it->second.ToString());
      }
    }
  }
  if (first_table) {
    return Status::InvalidArgument(
        "rule has no positive body atom: " + rule.ToString());
  }

  // Built-in comparison filters become plain WHERE conjuncts; their
  // variables are guaranteed bound by the safety check.
  for (const datalog::Atom& atom : rule.body) {
    if (!atom.is_builtin()) continue;
    auto render = [&part, &rule](const datalog::Term& t)
        -> Result<std::string> {
      if (t.is_constant()) return t.value.ToSqlLiteral();
      auto it = part.canonical.find(t.var);
      if (it == part.canonical.end()) {
        return Status::SemanticError(
            "unsafe rule (variable " + t.var +
            " of comparison not bound in a positive body atom): " +
            rule.ToString());
      }
      return it->second.ToString();
    };
    DKB_ASSIGN_OR_RETURN(std::string lhs, render(atom.args[0]));
    DKB_ASSIGN_OR_RETURN(std::string rhs, render(atom.args[1]));
    // "!=" is accepted verbatim by the SQL layer; others map directly.
    part.conjuncts.push_back(lhs + " " + atom.predicate + " " + rhs);
  }
  return part;
}

std::string WhereClause(const std::vector<std::string>& conjuncts) {
  if (conjuncts.empty()) return "";
  std::string out = " WHERE ";
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjuncts[i];
  }
  return out;
}

/// Projection of the head over canonical refs (plain-select path).
Result<std::string> HeadProjection(const datalog::Rule& rule,
                                   const PositivePart& part) {
  std::string out;
  for (size_t hi = 0; hi < rule.head.args.size(); ++hi) {
    const datalog::Term& term = rule.head.args[hi];
    if (hi > 0) out += ", ";
    if (term.is_constant()) {
      out += term.value.ToSqlLiteral();
      continue;
    }
    auto it = part.canonical.find(term.var);
    if (it == part.canonical.end()) {
      return Status::SemanticError("unsafe rule (head variable " + term.var +
                                   " not bound in a positive body atom): " +
                                   rule.ToString());
    }
    out += it->second.ToString();
  }
  return out;
}

/// "<head projection> FROM <positive atoms> WHERE <conjuncts>": the body of
/// a negation-free rule's SELECT, without its SELECT keyword or DISTINCT.
Result<std::string> PositiveProjection(const datalog::Rule& rule,
                                       const BindingResolver& resolver) {
  if (rule.body.empty()) {
    return Status::InvalidArgument("cannot translate bodiless clause " +
                                   rule.ToString() + " to SQL");
  }
  for (const datalog::Atom& atom : rule.body) {
    if (atom.negated) {
      return Status::InvalidArgument(
          "rule has negated atoms; use RuleToSqlProgram: " + rule.ToString());
    }
  }
  DKB_ASSIGN_OR_RETURN(PositivePart part, AnalyzePositive(rule, resolver));
  DKB_ASSIGN_OR_RETURN(std::string head, HeadProjection(rule, part));
  return head + " FROM " + part.from + WhereClause(part.conjuncts);
}

}  // namespace

Result<std::string> RuleToSelect(const datalog::Rule& rule,
                                 const BindingResolver& resolver) {
  DKB_ASSIGN_OR_RETURN(std::string projection,
                       PositiveProjection(rule, resolver));
  return "SELECT DISTINCT " + projection;
}

Result<RuleSqlProgram> RuleToSqlProgram(const datalog::Rule& rule,
                                        const BindingResolver& resolver,
                                        const std::string& target_table,
                                        const std::string& bind_prefix,
                                        RuleInsert insert) {
  if (rule.body.empty()) {
    return Status::InvalidArgument("cannot translate bodiless clause " +
                                   rule.ToString() + " to SQL");
  }
  RuleSqlProgram program;

  std::vector<const datalog::Atom*> negations;
  size_t first_neg_index = 0;
  for (size_t bi = 0; bi < rule.body.size(); ++bi) {
    if (rule.body[bi].negated) {
      if (negations.empty()) first_neg_index = bi;
      negations.push_back(&rule.body[bi]);
    }
  }

  // The statement that fills the target from "<head> FROM <source>".
  const auto insert_into_target = [&](const std::string& projection) {
    if (insert == RuleInsert::kAppend) {
      return "INSERT INTO " + target_table + " SELECT " + projection;
    }
    return "INSERT INTO " + target_table + " (SELECT DISTINCT " + projection +
           ") EXCEPT (SELECT * FROM " + target_table + ")";
  };

  if (negations.empty()) {
    DKB_ASSIGN_OR_RETURN(std::string projection,
                         PositiveProjection(rule, resolver));
    program.statements.push_back(insert_into_target(projection));
    return program;
  }

  DKB_ASSIGN_OR_RETURN(PositivePart part, AnalyzePositive(rule, resolver));

  // Binding-table schema: one column per positive-part variable.
  Schema bind_schema;
  std::map<std::string, std::string> var_col;  // variable -> binding column
  {
    std::vector<Column> cols;
    for (size_t i = 0; i < part.var_order.size(); ++i) {
      const std::string& var = part.var_order[i];
      auto type_it = part.var_types.find(var);
      if (type_it == part.var_types.end()) {
        return Status::Internal(
            "binding types missing for variable " + var +
            " (resolver must supply column types for rules with negation)");
      }
      std::string col = "v" + std::to_string(i);
      cols.push_back(Column{col, type_it->second});
      var_col[var] = col;
    }
    bind_schema = Schema(std::move(cols));
  }

  auto bind_name = [&](size_t i) {
    return bind_prefix + "_b" + std::to_string(i);
  };
  for (size_t i = 0; i <= negations.size(); ++i) {
    program.bind_tables.push_back(RuleSqlProgram::BindTable{
        bind_name(i), bind_schema});
  }

  // Stage 0: positive bindings.
  {
    std::string select = "SELECT DISTINCT ";
    for (size_t i = 0; i < part.var_order.size(); ++i) {
      if (i > 0) select += ", ";
      select += part.canonical.at(part.var_order[i]).ToString();
    }
    select += " FROM " + part.from + WhereClause(part.conjuncts);
    program.statements.push_back("INSERT INTO " + bind_name(0) + " " +
                                 select);
  }

  // Stage i: remove bindings that satisfy the i-th negated atom.
  for (size_t ni = 0; ni < negations.size(); ++ni) {
    const datalog::Atom& atom = *negations[ni];
    DKB_ASSIGN_OR_RETURN(RelationBinding binding,
                         resolver(atom, first_neg_index));
    if (binding.columns.size() != atom.arity()) {
      return Status::Internal("binding for negated " + atom.predicate +
                              " has wrong arity");
    }
    std::vector<std::string> conjuncts;
    for (size_t ai = 0; ai < atom.args.size(); ++ai) {
      const datalog::Term& term = atom.args[ai];
      std::string lhs = "n." + binding.columns[ai];
      if (term.is_constant()) {
        conjuncts.push_back(lhs + " = " + term.value.ToSqlLiteral());
        continue;
      }
      auto it = var_col.find(term.var);
      if (it == var_col.end()) {
        return Status::SemanticError(
            "unsafe negation (variable " + term.var +
            " of negated atom not bound in a positive body atom): " +
            rule.ToString());
      }
      conjuncts.push_back(lhs + " = b." + it->second);
    }
    std::string matched = "SELECT ";
    for (size_t i = 0; i < part.var_order.size(); ++i) {
      if (i > 0) matched += ", ";
      matched += "b.v" + std::to_string(i);
    }
    matched += " FROM " + bind_name(ni) + " b, " + binding.table + " n" +
               WhereClause(conjuncts);
    program.statements.push_back("INSERT INTO " + bind_name(ni + 1) +
                                 " (SELECT * FROM " + bind_name(ni) +
                                 ") EXCEPT (" + matched + ")");
  }

  // Final: project the head from the surviving bindings into the target.
  {
    std::string head;
    for (size_t hi = 0; hi < rule.head.args.size(); ++hi) {
      const datalog::Term& term = rule.head.args[hi];
      if (hi > 0) head += ", ";
      if (term.is_constant()) {
        head += term.value.ToSqlLiteral();
        continue;
      }
      auto it = var_col.find(term.var);
      if (it == var_col.end()) {
        return Status::SemanticError(
            "unsafe rule (head variable " + term.var +
            " not bound in a positive body atom): " + rule.ToString());
      }
      head += it->second;
    }
    program.statements.push_back(
        insert_into_target(head + " FROM " + bind_name(negations.size())));
  }
  return program;
}

}  // namespace dkb::km
