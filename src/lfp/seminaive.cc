#include "lfp/seminaive.h"

#include <set>
#include <vector>

#include "km/naming.h"
#include "km/rule_sql.h"

namespace dkb::lfp {

Result<int64_t> EvaluateCliqueSemiNaive(EvalContext* ctx,
                                        const km::QueryProgram& program,
                                        const km::ProgramNode& node,
                                        size_t node_index) {
  const std::set<std::string> members(node.predicates.begin(),
                                      node.predicates.end());
  const std::string np = "#n" + std::to_string(node_index);

  // A rule is non-linear when two or more of its body atoms are clique
  // members; only its differential variants read `prev`.
  const auto member_positions = [&members](const datalog::Rule& rule) {
    std::vector<size_t> positions;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!rule.body[i].negated && members.count(rule.body[i].predicate) > 0) {
        positions.push_back(i);
      }
    }
    return positions;
  };
  bool needs_prev = false;
  for (const datalog::Rule& rule : node.recursive_rules) {
    if (member_positions(rule).size() >= 2) needs_prev = true;
  }

  // Temp tables per member: delta (the last iteration's new tuples), new
  // (variant union), and for non-linear cliques prev (the relation before
  // the last delta was merged). Each member's seen-set indexes its
  // accumulated relation for the whole evaluation.
  for (const std::string& p : node.predicates) {
    const km::PredicateBinding& b = program.bindings.at(p);
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::DeltaTableName(p), b));
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::NewTableName(p), b));
    if (needs_prev) {
      DKB_RETURN_IF_ERROR(ctx->CreateLike(km::PrevTableName(p), b));
    }
  }
  std::vector<KnownRows> known(node.predicates.size());

  // Canonical resolver for exit rules with negated atoms.
  km::BindingResolver canonical =
      [&program](const datalog::Atom& atom,
                 size_t) -> Result<km::RelationBinding> {
    auto it = program.bindings.find(atom.predicate);
    if (it == program.bindings.end()) {
      return Status::Internal("no binding for " + atom.predicate);
    }
    return it->second.AsRelation();
  };

  // p^(0): exit rules.
  for (size_t i = 0; i < node.exit_rules.size(); ++i) {
    const km::CompiledRule& cr = node.exit_rules[i];
    const km::PredicateBinding& b =
        program.bindings.at(cr.rule.head.predicate);
    if (cr.rule.body.empty()) {
      DKB_RETURN_IF_ERROR(ctx->Rhs(EvalContext::SeedInsertSql(cr.rule, b)));
    } else if (!cr.select_sql.empty()) {
      DKB_RETURN_IF_ERROR(
          ctx->Rhs(EvalContext::InsertNewSql(b.table, cr.select_sql)));
    } else {
      DKB_RETURN_IF_ERROR(ctx->EvalRuleInto(cr.rule, canonical, b.table,
                                            np + "sx" + std::to_string(i)));
    }
  }
  // delta^(0) = p^(0); prev = p^(-1) = empty.
  for (const std::string& p : node.predicates) {
    DKB_RETURN_IF_ERROR(
        ctx->CopyTable(km::DeltaTableName(p), program.bindings.at(p).table));
  }

  int64_t iterations = 0;
  while (true) {
    ++iterations;
    trace::ScopedSpan iter_span(ctx->span(), "iteration");
    iter_span.Tag("iter", iterations);
    for (const std::string& p : node.predicates) {
      DKB_RETURN_IF_ERROR(ctx->ClearTable(km::NewTableName(p)));
    }

    // Differential variants of each recursive rule, appended to `new`
    // without a dedup of their own: AbsorbNew dedups each derived row
    // once. Negated atoms are never clique members (stratification), so
    // they are unaffected by the delta substitution.
    size_t rule_counter = 0;
    for (const datalog::Rule& rule : node.recursive_rules) {
      ++rule_counter;
      for (size_t delta_pos : member_positions(rule)) {
        km::BindingResolver resolver =
            [&program, &members, delta_pos](
                const datalog::Atom& atom,
                size_t body_index) -> Result<km::RelationBinding> {
          auto it = program.bindings.find(atom.predicate);
          if (it == program.bindings.end()) {
            return Status::Internal("no binding for " + atom.predicate);
          }
          km::RelationBinding binding = it->second.AsRelation();
          if (members.count(atom.predicate) == 0) return binding;
          if (body_index == delta_pos) {
            binding.table = km::DeltaTableName(atom.predicate);
          } else if (body_index > delta_pos) {
            binding.table = km::PrevTableName(atom.predicate);
          }
          // body_index < delta_pos keeps the current full relation.
          return binding;
        };
        DKB_RETURN_IF_ERROR(ctx->EvalRuleInto(
            rule, resolver, km::NewTableName(rule.head.predicate),
            np + "sr" + std::to_string(rule_counter) + "_" +
                std::to_string(delta_pos),
            km::RuleInsert::kAppend));
      }
    }

    // prev := prev + delta (= the relation before this iteration's
    // merge, since full = prev + delta); then delta := new - full and
    // full += delta, which is also the termination check.
    bool changed = false;
    int64_t delta_total = 0;
    for (size_t i = 0; i < node.predicates.size(); ++i) {
      const std::string& p = node.predicates[i];
      if (needs_prev) {
        DKB_RETURN_IF_ERROR(
            ctx->CopyTable(km::PrevTableName(p), km::DeltaTableName(p)));
      }
      DKB_ASSIGN_OR_RETURN(
          int64_t cnt,
          ctx->AbsorbNew(km::DeltaTableName(p), km::NewTableName(p),
                         program.bindings.at(p).table, &known[i]));
      if (cnt > 0) changed = true;
      delta_total += cnt;
    }
    ctx->delta_sizes().push_back(delta_total);
    iter_span.Tag("delta", delta_total);
    if (!changed) break;
  }

  for (const std::string& p : node.predicates) {
    DKB_RETURN_IF_ERROR(ctx->Drop(km::DeltaTableName(p)));
    DKB_RETURN_IF_ERROR(ctx->Drop(km::NewTableName(p)));
    if (needs_prev) DKB_RETURN_IF_ERROR(ctx->Drop(km::PrevTableName(p)));
  }
  return iterations;
}

}  // namespace dkb::lfp
