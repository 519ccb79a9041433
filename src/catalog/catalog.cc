#include "catalog/catalog.h"

#include <algorithm>

#include "common/str_util.h"

namespace dkb {

std::string Catalog::Key(const std::string& name) { return AsciiLower(name); }

bool IsSystemTableName(const std::string& name) {
  return StartsWith(AsciiLower(name), "sys.");
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (IsSystemTableName(name)) {
    return Status::InvalidArgument("schema 'sys' is reserved for system views");
  }
  const bool temp = !name.empty() && name[0] == '#';
  // Overlays see the union of their own names and the base's, so a CREATE
  // of an existing base name must collide the same way it did when sessions
  // held a full clone. Checked before taking our lock (never both locks).
  // km-internal idb_<pred> scratch tables are exempt: the base testbed may
  // be transiently mid-query with its own idb_<pred>, and the overlay's copy
  // shadows it (own-first resolution), exactly as a clone's private copy
  // would have.
  const bool km_scratch = StartsWith(Key(name), "idb_");
  if (base_ != nullptr && !temp && !km_scratch && base_->HasTable(name)) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  std::string key = Key(name);
  WriterLock lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  auto table = std::make_shared<Table>(name, std::move(schema));
  // Stored tables stamp commit epochs; '#' temporaries stay unversioned
  // (physical Clear each LFP iteration, no vacuum debt).
  if (epochs_ != nullptr && !temp) table->EnableVersioning(epochs_);
  Table* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  return raw;
}

Status Catalog::DropTable(const std::string& name) {
  {
    WriterLock lock(mu_);
    auto it = tables_.find(Key(name));
    if (it != tables_.end()) {
      // Shared ownership: running plans and overlay pins keep the storage
      // alive; the name is gone immediately.
      tables_.erase(it);
      return Status::OK();
    }
  }
  if (base_ != nullptr && !name.empty() && name[0] != '#' &&
      base_->HasTable(name)) {
    return Status::InvalidArgument("cannot drop base table " + name +
                                   " from a session");
  }
  return Status::NotFound("table " + name + " does not exist");
}

Result<Table*> Catalog::GetSource(const std::string& name) const {
  std::string key = Key(name);
  {
    ReaderLock lock(mu_);
    auto it = tables_.find(key);
    if (it != tables_.end()) return it->second.get();
    auto pit = pinned_bases_.find(key);
    if (pit != pinned_bases_.end()) return pit->second.get();
  }
  if (base_ != nullptr && !name.empty() && name[0] != '#') {
    DKB_ASSIGN_OR_RETURN(std::shared_ptr<Table> src,
                         base_->GetSourceShared(name));
    Table* raw = src.get();
    WriterLock lock(mu_);
    pinned_bases_.emplace(std::move(key), std::move(src));
    return raw;
  }
  return Status::NotFound("table " + name + " does not exist");
}

Result<std::shared_ptr<Table>> Catalog::GetSourceShared(
    const std::string& name) const {
  ReaderLock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " does not exist");
  }
  return it->second;
}

std::vector<std::shared_ptr<Table>> Catalog::SnapshotTables() const {
  ReaderLock lock(mu_);
  std::vector<std::shared_ptr<Table>> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) out.push_back(table);
  return out;
}

void Catalog::ClearPinnedBases() {
  WriterLock lock(mu_);
  pinned_bases_.clear();
}

bool Catalog::HasTable(const std::string& name) const {
  {
    ReaderLock lock(mu_);
    if (tables_.count(Key(name)) > 0) return true;
  }
  return base_ != nullptr && !name.empty() && name[0] != '#' &&
         base_->HasTable(name);
}

Status Catalog::RegisterVirtualTable(const std::string& name, Schema schema,
                                     VirtualTableProvider provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("virtual table " + name +
                                   " needs a provider");
  }
  std::string key = Key(name);
  WriterLock lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  // Re-registration overwrites: a session clone re-registers the same views
  // against the shared data sources after every snapshot refresh.
  virtuals_[key] = VirtualEntry{std::move(schema), std::move(provider)};
  return Status::OK();
}

bool Catalog::HasVirtualTable(const std::string& name) const {
  ReaderLock lock(mu_);
  return virtuals_.count(Key(name)) > 0;
}

std::vector<std::string> Catalog::VirtualTableNames() const {
  ReaderLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(virtuals_.size());
  for (const auto& [key, entry] : virtuals_) names.push_back(key);
  std::sort(names.begin(), names.end());
  return names;
}

Result<Schema> Catalog::VirtualTableSchema(const std::string& name) const {
  ReaderLock lock(mu_);
  auto it = virtuals_.find(Key(name));
  if (it == virtuals_.end()) {
    return Status::NotFound("virtual table " + name + " does not exist");
  }
  return it->second.schema;
}

Result<ResolvedSource> Catalog::ResolveSource(
    const std::string& name) const {
  VirtualTableProvider provider;
  {
    ReaderLock lock(mu_);
    auto it = tables_.find(Key(name));
    if (it != tables_.end()) {
      ResolvedSource source;
      source.source = it->second.get();
      source.owned = it->second;  // survives a concurrent DROP
      source.read_epoch = read_epoch();
      return source;
    }
    auto vit = virtuals_.find(Key(name));
    if (vit != virtuals_.end()) provider = vit->second.provider;
  }
  if (provider != nullptr) {
    // Materialize outside the catalog lock: providers read recorder/session
    // state guarded by their own mutexes. Snapshots are unversioned, so the
    // default kLatestEpoch reads them correctly at any pinned epoch.
    DKB_ASSIGN_OR_RETURN(std::shared_ptr<const Table> snapshot, provider());
    ResolvedSource source;
    source.source = snapshot.get();
    source.owned = std::move(snapshot);
    return source;
  }
  if (base_ != nullptr && !name.empty() && name[0] != '#') {
    DKB_ASSIGN_OR_RETURN(ResolvedSource source,
                         base_->ResolveSource(name));
    // Stored base tables must be read at the session's pinned epoch.
    // (Virtual hits on the base are unversioned snapshots; overriding their
    // epoch is harmless.)
    source.read_epoch = read_epoch();
    return source;
  }
  return Status::NotFound("table " + name + " does not exist");
}

Status Catalog::CreateIndex(const std::string& table_name,
                            const std::string& index_name,
                            const std::vector<std::string>& column_names,
                            bool ordered) {
  DKB_ASSIGN_OR_RETURN(Table * table, GetSource(table_name));
  std::vector<size_t> cols;
  cols.reserve(column_names.size());
  for (const std::string& cname : column_names) {
    auto idx = table->schema().FindColumn(cname);
    if (!idx.has_value()) {
      return Status::NotFound("column " + cname + " not in table " +
                              table_name);
    }
    cols.push_back(*idx);
  }
  return table->AddIndexSpec(index_name, cols, ordered);
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  {
    ReaderLock lock(mu_);
    names.reserve(tables_.size());
    for (const auto& [key, table] : tables_) names.push_back(table->name());
  }
  if (base_ != nullptr) {
    // Overlays see the union: base stored names, minus any shadowed by an
    // overlay-local name ('#' temps never shadow — they can't collide).
    for (std::string& base_name : base_->TableNames()) {
      bool shadowed = false;
      {
        ReaderLock lock(mu_);
        shadowed = tables_.count(Key(base_name)) > 0;
      }
      if (!shadowed) names.push_back(std::move(base_name));
    }
  }
  return names;
}

size_t Catalog::num_tables() const {
  if (base_ != nullptr) return TableNames().size();
  ReaderLock lock(mu_);
  return tables_.size();
}

}  // namespace dkb
