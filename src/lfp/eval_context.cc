#include "lfp/eval_context.h"

#include <unordered_set>

#include "common/parallelism.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace dkb::lfp {

namespace {

/// A row of a Table referenced in place, with its hash computed once. Slot
/// addresses are stable and neither diff input is written during the diff,
/// so the pointer stays valid for the whole termination step.
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

}  // namespace

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
                                 const std::string& bind_prefix) {
  DKB_ASSIGN_OR_RETURN(
      km::RuleSqlProgram program,
      km::RuleToSqlProgram(rule, resolver, target, bind_prefix));
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

Result<int64_t> EvalContext::DiffInto(const std::string& diff,
                                      const std::string& new_table,
                                      const std::string& full) {
  ScopedAccumulator acc(&stats_->t_term_us);
  DKB_ASSIGN_OR_RETURN(Table * dst, db_->catalog().GetSource(diff));
  DKB_ASSIGN_OR_RETURN(const Table* src_new,
                       db_->catalog().GetSource(new_table));
  DKB_ASSIGN_OR_RETURN(const Table* src_full,
                       db_->catalog().GetSource(full));
  const Epoch at = db_->catalog().read_epoch();

  // P hash partitions: a row's partition is its hash mod P, so identical
  // rows always meet in the same partition and each partition's seen-set
  // decides their fate alone. Small inputs (the hash-join build threshold)
  // and a pool-less process take P = 1, which is the serial diff.
  ThreadPool& pool = GlobalThreadPool();
  const size_t input_rows = src_full->num_tuples() + src_new->num_tuples();
  const size_t parts =
      pool.num_threads() == 0 ||
              input_rows < GlobalParallelismPolicy().hash_build_min_rows
          ? 1
          : pool.num_threads() + 1;
  const auto for_each = [&](size_t n, const auto& fn, size_t min_chunk) {
    if (parts == 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
    } else {
      pool.ParallelFor(0, n, fn, min_chunk);
    }
  };

  // Reference and hash every visible row of both inputs in place; interned
  // VARCHARs make hashing and equality O(1) per value.
  const auto refs_of = [&](const Table& table) {
    std::vector<RowRef> refs(table.num_slots());
    for_each(
        refs.size(),
        [&](size_t rid) {
          if (!table.VisibleAt(rid, at)) return;
          refs[rid].row = &table.Get(rid);
          refs[rid].hash = HashTuple(*refs[rid].row);
        },
        /*min_chunk=*/1024);
    return refs;
  };
  const std::vector<RowRef> full_refs = refs_of(*src_full);
  const std::vector<RowRef> new_refs = refs_of(*src_new);

  // Each partition seeds its seen-set with its share of the accumulated
  // relation, then walks `new` in scan order: the first copy of each row
  // not already known survives, exactly as in one serial pass.
  std::vector<uint8_t> survives(new_refs.size(), 0);
  for_each(
      parts,
      [&](size_t p) {
        std::unordered_set<RowRef, RowRefHash, RowRefEq> seen;
        seen.reserve((full_refs.size() + new_refs.size()) / parts);
        for (const RowRef& r : full_refs) {
          if (r.row != nullptr && r.hash % parts == p) seen.insert(r);
        }
        for (size_t i = 0; i < new_refs.size(); ++i) {
          const RowRef& r = new_refs[i];
          if (r.row == nullptr || r.hash % parts != p) continue;
          if (seen.insert(r).second) survives[i] = 1;
        }
      },
      /*min_chunk=*/1);

  // Survivors are appended in `new`-scan order for every P, so the diff
  // table's contents and order do not depend on the partition count.
  int64_t appended = 0;
  RowBatch out;
  out.Reset(dst->schema().num_columns());
  for (size_t i = 0; i < new_refs.size(); ++i) {
    if (survives[i] == 0) continue;
    out.AppendRow(*new_refs[i].row);
    ++appended;
    if (out.full()) {
      DKB_RETURN_IF_ERROR(dst->AppendBatch(out));
      out.Reset(dst->schema().num_columns());
    }
  }
  if (!out.empty()) DKB_RETURN_IF_ERROR(dst->AppendBatch(out));
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
