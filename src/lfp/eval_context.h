#ifndef DKB_LFP_EVAL_CONTEXT_H_
#define DKB_LFP_EVAL_CONTEXT_H_

#include <string>
#include <vector>

#include "common/trace.h"
#include "km/codegen.h"
#include "lfp/evaluator.h"
#include "rdbms/database.h"

namespace dkb::lfp {

/// Shared machinery for the SQL-driven evaluators: executes statements
/// against the DBMS and attributes wall-clock time to the paper's cost
/// buckets (temp-table management / RHS evaluation / termination check).
class EvalContext {
 public:
  EvalContext(Database* db, ExecutionStats* stats)
      : db_(db), stats_(stats) {}

  Database* db() { return db_; }
  ExecutionStats* stats() { return stats_; }

  /// Trace span of the node currently being evaluated; the clique
  /// evaluators hang per-iteration spans off it. Null = tracing off.
  trace::TraceSpan* span() const { return span_; }
  void set_span(trace::TraceSpan* span) { span_ = span; }

  /// Per-iteration new-tuple counts recorded by the clique evaluators,
  /// harvested into NodeStats::delta_sizes after each node.
  std::vector<int64_t>& delta_sizes() { return delta_sizes_; }

  /// Temp-table management: CREATE/DROP/DELETE-all and table copies.
  Status Temp(const std::string& sql);

  /// Rule-body (or differential) evaluation.
  Status Rhs(const std::string& sql);

  /// Termination-check work (set differences and counts).
  Status Term(const std::string& sql);
  Result<int64_t> TermCount(const std::string& count_sql);

  /// CREATE TABLE `name` with the column layout of `binding`.
  Status CreateLike(const std::string& name,
                    const km::PredicateBinding& binding);

  /// CREATE TABLE `name` with an explicit schema (binding-table pipeline).
  Status CreateWithSchema(const std::string& name, const Schema& schema);

  /// Evaluates one rule into `target` through the run time library: plain
  /// rules become a single INSERT-new statement; rules with negated atoms
  /// run the binding-table pipeline of RuleToSqlProgram. `bind_prefix`
  /// makes the pipeline's temp names unique per call site.
  Status EvalRuleInto(const datalog::Rule& rule,
                      const km::BindingResolver& resolver,
                      const std::string& target,
                      const std::string& bind_prefix);

  /// DELETE FROM `name` (attributed to temp management).
  Status Clear(const std::string& name);

  /// INSERT INTO `dst` SELECT * FROM `src` (a full table copy).
  Status Copy(const std::string& dst, const std::string& src);

  /// Batch-native variant of Clear: truncates the table directly without a
  /// SQL round-trip (temp-management bucket).
  Status ClearTable(const std::string& name);

  /// Batch-native variant of Copy: streams `src` into `dst` with
  /// Table::ScanBatch/AppendBatch (temp-management bucket).
  Status CopyTable(const std::string& dst, const std::string& src);

  /// Batch-native semi-naive termination step: appends to `diff` every
  /// distinct row of `new_table` not already in `full`, in `new_table` scan
  /// order, and returns how many were appended. Dedup runs over hash sets
  /// of in-place row references keyed on interned values — the O(1)-hash
  /// replacement for the prepared
  /// `INSERT INTO diff (SELECT * FROM new) EXCEPT (SELECT * FROM full)`
  /// + COUNT(*) statement pair (termination bucket). When `full` and `new`
  /// together hold at least ParallelismPolicy::hash_build_min_rows rows and
  /// the global pool has workers, the rows are hash-partitioned into
  /// (workers + 1) partitions deduplicated concurrently; the result is
  /// identical to the serial pass.
  Result<int64_t> DiffInto(const std::string& diff,
                           const std::string& new_table,
                           const std::string& full);

  Status Drop(const std::string& name);

  /// COUNT(*) of a table (not attributed; diagnostics).
  Result<int64_t> Count(const std::string& name);

  /// Seed-fact INSERT ... VALUES text for an empty-body rule.
  static std::string SeedInsertSql(const datalog::Rule& seed,
                                   const km::PredicateBinding& binding);

  /// INSERT the (distinct) result of `select` into `table`, skipping rows
  /// already present: INSERT INTO t (select) EXCEPT (SELECT * FROM t).
  static std::string InsertNewSql(const std::string& table,
                                  const std::string& select);

 private:
  Database* db_;
  ExecutionStats* stats_;
  trace::TraceSpan* span_ = nullptr;
  std::vector<int64_t> delta_sizes_;
};

}  // namespace dkb::lfp

#endif  // DKB_LFP_EVAL_CONTEXT_H_
