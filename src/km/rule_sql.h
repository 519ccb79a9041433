#ifndef DKB_KM_RULE_SQL_H_
#define DKB_KM_RULE_SQL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "storage/schema.h"

namespace dkb::km {

/// How a predicate occurrence maps onto a stored relation.
struct RelationBinding {
  std::string table;                 // SQL table name
  std::vector<std::string> columns;  // column names, by argument position
  std::vector<DataType> types;       // column types (required for rules
                                     // with negated body atoms)
};

/// Resolves the relation to read for a body atom. `body_index` is the
/// position of the atom within the rule body; the LFP evaluators use it to
/// substitute delta/previous tables for individual occurrences of recursive
/// predicates when generating semi-naive differentials.
using BindingResolver =
    std::function<Result<RelationBinding>(const datalog::Atom& atom,
                                          size_t body_index)>;

/// Translates the body of a Horn clause into the SQL SELECT that computes
/// the head relation (paper §3.2.6 / §3.3): one FROM entry per body atom,
/// equality conjuncts for shared variables, literal conjuncts for body
/// constants, and head arguments as the projection list.
///
/// Example: for `anc(X, Y) :- par(X, Z), anc(Z, Y)` with par -> edb_par
/// (columns c0, c1) and anc -> idb_anc (c0, c1):
///
///   SELECT DISTINCT r0.c0, r1.c1 FROM edb_par r0, idb_anc r1
///   WHERE r1.c0 = r0.c1
///
/// Returns SemanticError for unsafe rules (head variable not in body) and
/// InvalidArgument for rules with negated body atoms (use RuleToSqlProgram).
Result<std::string> RuleToSelect(const datalog::Rule& rule,
                                 const BindingResolver& resolver);

/// How the final statement of a RuleSqlProgram writes the target table.
enum class RuleInsert {
  /// `INSERT INTO target (SELECT DISTINCT <head> ...) EXCEPT (SELECT * FROM
  /// target)`: only rows the target lacks, each once, so a target that is
  /// a set stays one. Exit rules and the naive evaluator use it.
  kInsertNew,
  /// `INSERT INTO target SELECT <head> ...`: every derived row, duplicates
  /// included. Semi-naive differential variants use it for `#p_new`, whose
  /// only dedup is EvalContext::AbsorbNew.
  kAppend,
};

/// Multi-statement SQL program evaluating one rule, supporting stratified
/// negation via a binding-table pipeline:
///
///   bind_0 := SELECT DISTINCT <all positive-part variables>
///             FROM <positive atoms> WHERE <joins & constants>
///   bind_i := bind_{i-1} EXCEPT (bindings matching the i-th negated atom)
///   target += SELECT <head projection> FROM bind_last   (by RuleInsert)
///
/// The caller must create `bind_tables` before running `statements` (in
/// order) and drop them afterwards. Rules without negation produce no bind
/// tables and a single statement. The binding tables are sets; the final
/// statement dedups against the current contents of `target_table` under
/// RuleInsert::kInsertNew and appends every projected row under kAppend.
struct RuleSqlProgram {
  struct BindTable {
    std::string name;
    Schema schema;
  };
  std::vector<BindTable> bind_tables;
  std::vector<std::string> statements;
};

/// `bind_prefix` makes the temp binding-table names unique per call site
/// (e.g. "#r3_v0"). Resolver bindings must carry column types when the rule
/// has negated atoms.
Result<RuleSqlProgram> RuleToSqlProgram(
    const datalog::Rule& rule, const BindingResolver& resolver,
    const std::string& target_table, const std::string& bind_prefix,
    RuleInsert insert = RuleInsert::kInsertNew);

}  // namespace dkb::km

#endif  // DKB_KM_RULE_SQL_H_
