#include "lfp/eval_context.h"

#include "common/parallelism.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace dkb::lfp {

KnownRows::KnownRows()
    : parts_(GlobalThreadPool().num_threads() + 1) {}

Status EvalContext::Temp(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_temp_us);
  return db_->Execute(sql).status();
}

Status EvalContext::Rhs(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_rhs_us);
  return db_->Execute(sql).status();
}

Status EvalContext::Term(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_term_us);
  return db_->Execute(sql).status();
}

Result<int64_t> EvalContext::TermCount(const std::string& count_sql) {
  ScopedAccumulator acc(&stats_->t_term_us);
  return db_->QueryCount(count_sql);
}

Status EvalContext::CreateLike(const std::string& name,
                               const km::PredicateBinding& binding) {
  // A failed earlier run may have leaked the temp table; recreate cleanly.
  DKB_RETURN_IF_ERROR(Drop(name));
  std::string ddl = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < binding.columns.size(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += binding.columns[i];
    ddl += binding.types[i] == DataType::kInteger ? " INT" : " VARCHAR";
  }
  ddl += ")";
  return Temp(ddl);
}

Status EvalContext::CreateWithSchema(const std::string& name,
                                     const Schema& schema) {
  DKB_RETURN_IF_ERROR(Drop(name));
  std::string ddl = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += schema.column(i).name;
    ddl += schema.column(i).type == DataType::kInteger ? " INT" : " VARCHAR";
  }
  ddl += ")";
  return Temp(ddl);
}

Status EvalContext::EvalRuleInto(const datalog::Rule& rule,
                                 const km::BindingResolver& resolver,
                                 const std::string& target,
                                 const std::string& bind_prefix,
                                 km::RuleInsert insert) {
  DKB_ASSIGN_OR_RETURN(
      km::RuleSqlProgram program,
      km::RuleToSqlProgram(rule, resolver, target, bind_prefix, insert));
  for (const auto& bind : program.bind_tables) {
    DKB_RETURN_IF_ERROR(CreateWithSchema(bind.name, bind.schema));
  }
  Status status = Status::OK();
  for (const std::string& sql : program.statements) {
    status = Rhs(sql);
    if (!status.ok()) break;
  }
  for (const auto& bind : program.bind_tables) {
    Status drop = Drop(bind.name);
    if (status.ok()) status = drop;
  }
  return status;
}

Status EvalContext::Clear(const std::string& name) {
  return Temp("DELETE FROM " + name);
}

Status EvalContext::Copy(const std::string& dst, const std::string& src) {
  return Temp("INSERT INTO " + dst + " SELECT * FROM " + src);
}

Status EvalContext::ClearTable(const std::string& name) {
  ScopedAccumulator acc(&stats_->t_temp_us);
  DKB_ASSIGN_OR_RETURN(Table * table, db_->catalog().GetSource(name));
  table->Clear();
  return Status::OK();
}

Status EvalContext::CopyTable(const std::string& dst, const std::string& src) {
  ScopedAccumulator acc(&stats_->t_temp_us);
  DKB_ASSIGN_OR_RETURN(Table * d, db_->catalog().GetSource(dst));
  DKB_ASSIGN_OR_RETURN(const Table* s, db_->catalog().GetSource(src));
  // Sessions read base tables at their pinned epoch; temps are unversioned
  // (visible at every epoch), so one epoch covers both source kinds.
  const Epoch at = db_->catalog().read_epoch();
  RowBatch batch;
  RowId cursor = 0;
  while (true) {
    cursor = s->ScanBatch(cursor, &batch, at);
    if (batch.empty()) break;
    DKB_RETURN_IF_ERROR(d->AppendBatch(batch));
  }
  return Status::OK();
}

Result<int64_t> EvalContext::AbsorbNew(const std::string& delta,
                                       const std::string& new_table,
                                       const std::string& full,
                                       KnownRows* known) {
  using RowRef = KnownRows::RowRef;
  std::vector<RowRef> new_refs;
  std::vector<uint8_t> survives;
  Table* dst_full = nullptr;
  {
    ScopedAccumulator acc(&stats_->t_term_us);
    DKB_ASSIGN_OR_RETURN(dst_full, db_->catalog().GetSource(full));
    DKB_ASSIGN_OR_RETURN(const Table* src_new,
                         db_->catalog().GetSource(new_table));
    const Epoch at = db_->catalog().read_epoch();
    const size_t first = known->indexed_slots_;
    const size_t full_slots = dst_full->num_slots();
    if (full_slots < first) {
      return Status::Internal("semi-naive relation " + full + " shrank");
    }

    // A row's partition is its hash mod P, so each partition's seen-set
    // decides the fate of its rows alone. Small inputs (the hash-join
    // build threshold) and a pool-less process run the partitions one
    // after another, which is the serial pass.
    ThreadPool& pool = GlobalThreadPool();
    const size_t parts = known->parts_.size();
    const bool concurrent =
        parts > 1 && pool.num_threads() > 0 &&
        full_slots - first + src_new->num_slots() >=
            GlobalParallelismPolicy().hash_build_min_rows;
    const auto for_each = [&](size_t n, const auto& fn, size_t min_chunk) {
      if (concurrent) {
        pool.ParallelFor(0, n, fn, min_chunk);
      } else {
        for (size_t i = 0; i < n; ++i) fn(i);
      }
    };

    // Reference and hash, in place, the visible rows of `full` not yet
    // indexed and every visible row of `new`; interned VARCHARs make
    // hashing and equality O(1) per value.
    const auto refs_of = [&](const Table& table, size_t begin, size_t end) {
      std::vector<RowRef> refs(end - begin);
      for_each(
          refs.size(),
          [&](size_t i) {
            if (!table.VisibleAt(begin + i, at)) return;
            refs[i].row = &table.Get(begin + i);
            refs[i].hash = HashTuple(*refs[i].row);
          },
          /*min_chunk=*/1024);
      return refs;
    };
    const std::vector<RowRef> catch_up = refs_of(*dst_full, first, full_slots);
    new_refs = refs_of(*src_new, 0, src_new->num_slots());

    // Each partition indexes its share of the catch-up rows, then walks
    // `new` in scan order: the first copy of each row not already known
    // survives, exactly as in one serial pass. Rows of `new` go into a
    // per-call set only (`fresh`, the only dedup within `new`): they reach
    // the persistent one through `full`.
    survives.assign(new_refs.size(), 0);
    for_each(
        parts,
        [&](size_t p) {
          KnownRows::RowRefSet& seen = known->parts_[p];
          for (const RowRef& r : catch_up) {
            if (r.row != nullptr && r.hash % parts == p) seen.insert(r);
          }
          KnownRows::RowRefSet fresh;
          for (size_t i = 0; i < new_refs.size(); ++i) {
            const RowRef& r = new_refs[i];
            if (r.row == nullptr || r.hash % parts != p) continue;
            if (seen.count(r) == 0 && fresh.insert(r).second) survives[i] = 1;
          }
        },
        /*min_chunk=*/1);
    known->indexed_slots_ = full_slots;
  }

  // Survivors are appended in `new`-scan order for every P, so `delta`
  // and `full` do not depend on the partition count. They join the
  // seen-set at the next call's catch-up.
  ScopedAccumulator acc(&stats_->t_temp_us);
  DKB_ASSIGN_OR_RETURN(Table * dst_delta, db_->catalog().GetSource(delta));
  dst_delta->Clear();
  int64_t appended = 0;
  RowBatch out;
  out.Reset(dst_full->schema().num_columns());
  const auto flush = [&]() -> Status {
    DKB_RETURN_IF_ERROR(dst_delta->AppendBatch(out));
    DKB_RETURN_IF_ERROR(dst_full->AppendBatch(out));
    out.Reset(dst_full->schema().num_columns());
    return Status::OK();
  };
  for (size_t i = 0; i < new_refs.size(); ++i) {
    if (survives[i] == 0) continue;
    out.AppendRow(*new_refs[i].row);
    ++appended;
    if (out.full()) DKB_RETURN_IF_ERROR(flush());
  }
  if (!out.empty()) DKB_RETURN_IF_ERROR(flush());
  return appended;
}

Status EvalContext::Drop(const std::string& name) {
  return Temp("DROP TABLE IF EXISTS " + name);
}

Result<int64_t> EvalContext::Count(const std::string& name) {
  return db_->QueryCount("SELECT COUNT(*) FROM " + name);
}

std::string EvalContext::SeedInsertSql(const datalog::Rule& seed,
                                       const km::PredicateBinding& binding) {
  std::string sql = "INSERT INTO " + binding.table + " VALUES (";
  for (size_t i = 0; i < seed.head.args.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += seed.head.args[i].value.ToSqlLiteral();
  }
  sql += ")";
  return sql;
}

std::string EvalContext::InsertNewSql(const std::string& table,
                                      const std::string& select) {
  return "INSERT INTO " + table + " (" + select + ") EXCEPT (SELECT * FROM " +
         table + ")";
}

}  // namespace dkb::lfp
