#ifndef DKB_COMMON_PARALLELISM_H_
#define DKB_COMMON_PARALLELISM_H_

#include <cstddef>

namespace dkb {

/// The engine's parallelism knobs in one place: pool size, LFP clique
/// width, and the row thresholds above which scans, hash-join builds and
/// the semi-naive termination diff fan out to the pool. The DKB_THREADS
/// environment variable only supplies the default pool size, and
/// lfp::EvalOptions::parallelism is the per-call copy of lfp_parallelism
/// that lfp::ExecuteProgram receives.
///
/// One policy instance is process-wide (GlobalParallelismPolicy); queries
/// may carry an override through testbed::QueryOptions::WithPolicy, which
/// wins for the fields a query-level knob exists for (lfp_parallelism).
struct ParallelismPolicy {
  /// Worker threads in the global pool. 0 = auto: DKB_THREADS when set,
  /// otherwise hardware_concurrency - 1 (the caller participates too).
  /// Read once at pool construction; later changes have no effect.
  int threads = 0;

  /// Rule-graph cliques (SCCs) the LFP run time may evaluate concurrently:
  /// 1 = serial, 0 = size to the pool, N > 1 = at most N at a time.
  int lfp_parallelism = 1;

  /// Minimum table slots before a sequential scan splits into morsels on
  /// the pool; below it the serial path runs.
  size_t seq_scan_min_rows = 8192;
  /// Minimum rows before a hash table is built hash-partitioned on the
  /// pool: a hash join's build side, and the rows one semi-naive
  /// termination step hashes — the not yet indexed part of `full` plus
  /// `new` (lfp::EvalContext::AbsorbNew).
  size_t hash_build_min_rows = 8192;
  /// Rows per scan morsel.
  size_t morsel_rows = 4096;

  ParallelismPolicy& WithThreads(int n) {
    threads = n;
    return *this;
  }
  ParallelismPolicy& WithLfpParallelism(int n) {
    lfp_parallelism = n;
    return *this;
  }
  ParallelismPolicy& WithMorselRows(size_t n) {
    morsel_rows = n;
    return *this;
  }

  /// `threads` resolved against DKB_THREADS and the hardware: what the
  /// global pool is (or would be) sized to.
  size_t ResolvedThreads() const;
};

/// Process-wide policy. Mutable so benches and tests can force either the
/// serial or the parallel path; mutate only before spinning up work.
ParallelismPolicy& GlobalParallelismPolicy();

}  // namespace dkb

#endif  // DKB_COMMON_PARALLELISM_H_
