#ifndef DKB_LFP_EVAL_CONTEXT_H_
#define DKB_LFP_EVAL_CONTEXT_H_

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/trace.h"
#include "km/codegen.h"
#include "lfp/evaluator.h"
#include "rdbms/database.h"

namespace dkb::lfp {

/// The rows of one clique predicate's accumulated relation `full` that a
/// semi-naive evaluation has already seen, kept for the whole clique
/// evaluation (see EvalContext::AbsorbNew). Rows are referenced in place
/// with their hash computed once: Table slot addresses are stable across
/// appends, and `full` only grows while the clique runs. The references
/// are split into a fixed number of hash partitions (row hash mod P) so
/// the partitions can be probed concurrently; identical rows always meet
/// in one partition.
class KnownRows {
 public:
  /// P = the global pool's workers + 1, or 1 when it has no workers.
  KnownRows();
  explicit KnownRows(size_t partitions)
      : parts_(std::max<size_t>(partitions, 1)) {}

 private:
  friend class EvalContext;

  struct RowRef {
    size_t hash = 0;
    const Tuple* row = nullptr;  // null: slot not visible at the read epoch
  };
  struct RowRefHash {
    size_t operator()(const RowRef& r) const { return r.hash; }
  };
  struct RowRefEq {
    bool operator()(const RowRef& a, const RowRef& b) const {
      return *a.row == *b.row;
    }
  };
  using RowRefSet = std::unordered_set<RowRef, RowRefHash, RowRefEq>;

  std::vector<RowRefSet> parts_;
  /// Slots [0, indexed_slots_) of `full` are in parts_.
  size_t indexed_slots_ = 0;
};

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
  /// rules become a single INSERT statement; rules with negated atoms run
  /// the binding-table pipeline of RuleToSqlProgram. `insert` picks how the
  /// result reaches `target` (km::RuleInsert). `bind_prefix` makes the
  /// pipeline's temp names unique per call site.
  Status EvalRuleInto(const datalog::Rule& rule,
                      const km::BindingResolver& resolver,
                      const std::string& target,
                      const std::string& bind_prefix,
                      km::RuleInsert insert = km::RuleInsert::kInsertNew);

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

  /// Batch-native semi-naive termination step and delta update in one:
  /// clears `delta`, then appends every distinct row of `new_table` that
  /// `known` has not seen to both `delta` and `full`, in `new_table` scan
  /// order, and returns how many were appended. `new_table` may hold
  /// duplicates, since the differential variants append to it with
  /// km::RuleInsert::kAppend: this call is the only dedup of a derived row
  /// in an iteration, and the first copy in scan order survives. `known`
  /// indexes `full` across calls: each call first catches up on the slots
  /// of `full` appended since the last one (on the first call, the exit
  /// rules' result; after that, the last delta), so an iteration hashes
  /// O(|new| + |delta|) rows instead of all of `full`. Hashing and probing go to the
  /// termination bucket, the appends to temp management. When the rows to
  /// hash reach ParallelismPolicy::hash_build_min_rows and `known` has
  /// several partitions, the partitions are deduplicated concurrently; the
  /// result is identical to the serial pass.
  Result<int64_t> AbsorbNew(const std::string& delta,
                            const std::string& new_table,
                            const std::string& full, KnownRows* known);

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
