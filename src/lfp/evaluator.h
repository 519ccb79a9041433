#ifndef DKB_LFP_EVALUATOR_H_
#define DKB_LFP_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/trace.h"
#include "km/codegen.h"
#include "rdbms/database.h"

namespace dkb::lfp {

/// Least-fixed-point evaluation strategy.
enum class LfpStrategy {
  kNaive,      // full recomputation per iteration (paper §3.3)
  kSemiNaive,  // differential evaluation (Balbin-Ramamohanarao)
  kNative,     // in-engine LFP operator: in-memory deltas, no table copies,
               // early-exit termination (paper conclusion #6 ablation)
  kNativeTc,   // kNative plus recognition of transitive-closure cliques,
               // evaluated by a specialized BFS operator (conclusion #8)
};

const char* StrategyName(LfpStrategy strategy);

/// How to run a query program's node list (paper Fig 6's object program).
struct EvalOptions {
  /// Flight-recorder query id to stamp into ExecutionStats (observability
  /// correlation only; does not affect evaluation).
  int64_t query_id = 0;
  LfpStrategy strategy = LfpStrategy::kSemiNaive;
  /// Maximum number of mutually independent nodes (rule-graph cliques or
  /// flat rule groups) evaluated concurrently: 1 = serial (default),
  /// 0 = size to the global worker pool, N > 1 = at most N at a time.
  /// Nodes are scheduled in topological wavefronts over the predicate
  /// dependency graph, and each node's semi-naive iteration stays
  /// sequential, so the fixed point reached is identical to a serial run.
  int parallelism = 1;
  /// Parent trace span for this execution; when set, temp-table setup,
  /// every program node (with per-iteration children), and final answer
  /// retrieval become child spans. Parallel runs detach per-node spans and
  /// adopt them in program order, so the tree is deterministic. Null (the
  /// default) disables tracing.
  trace::TraceSpan* span = nullptr;
};

/// Per-node timing recorded during execution; the Fig 14 bench uses the
/// labels to separate magic-rule cliques from modified-rule cliques.
struct NodeStats {
  std::string label;  // predicates defined by the node, comma-joined
  bool is_clique = false;
  int64_t t_us = 0;
  int64_t iterations = 0;
  int64_t tuples = 0;  // total tuples in the node's relations afterwards
  /// New tuples discovered per LFP iteration, summed over the node's
  /// predicates (the semi-naive delta cardinality; EXPLAIN ANALYZE shows
  /// these). Empty for non-clique nodes.
  std::vector<int64_t> delta_sizes;
};

/// D/KB query execution breakdown (paper §5.3.1.2, Tables 5-6).
struct ExecutionStats {
  /// Flight-recorder query id (copied from EvalOptions::query_id).
  int64_t query_id = 0;
  int64_t t_temp_us = 0;   // temp-table create/drop/clear + table copies
  int64_t t_rhs_us = 0;    // evaluating rule bodies (or their differentials)
  int64_t t_term_us = 0;   // termination checks (set difference + count)
  int64_t t_final_us = 0;  // final answer retrieval
  int64_t t_total_us = 0;
  int64_t iterations = 0;  // summed over all cliques
  int64_t answer_tuples = 0;
  std::vector<NodeStats> nodes;
};

/// Runs the generated query program against the DBMS and returns the answer
/// relation (the run time library of paper §3.3). IDB tables are created at
/// the start and dropped afterwards, win or lose. With parallelism enabled,
/// per-node stats are still reported in program order and the t_* buckets
/// sum the per-node work (CPU-time-like accounting, not wall clock).
Result<QueryResult> ExecuteProgram(Database* db,
                                   const km::QueryProgram& program,
                                   const EvalOptions& options,
                                   ExecutionStats* stats);

}  // namespace dkb::lfp

#endif  // DKB_LFP_EVALUATOR_H_
