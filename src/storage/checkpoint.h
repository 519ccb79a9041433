#ifndef DKB_STORAGE_CHECKPOINT_H_
#define DKB_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace dkb {

/// Columnar checkpoint files.
///
/// A checkpoint is a point-in-time image of every stored table plus the
/// workspace rule texts, written atomically (tmp + rename) so a crash during
/// checkpointing leaves the previous image intact. Together with the WAL it
/// forms the recovery pair: startup loads the newest checkpoint, then
/// replays WAL records with LSN > the checkpoint's last_lsn.
///
/// Layout (storage/codec.h primitives, all little-endian), CRC-32 trailer
/// over everything after the magic:
///
///   "DKBCKPT2"                       8-byte magic
///   u64 last_lsn                     WAL position the image includes
///   u64 epoch                        committed epoch at write time
///   u32 nrules, nrules x Str         workspace rule/program texts
///   u32 ndict,  ndict  x Str         file-local string dictionary
///   u32 ntables, per table:
///     Str  name
///     Cols schema
///     u16  nindexes x { Str name, u8 ordered, u16 ncols, ncols x u16 }
///     u64  nrows, then column-major values:
///       u8 tag per cell — 0 NULL | 1 i64 follows | 2 u32 dict id follows
///   u32 crc
///
/// Version 1 ("DKBCKPT1") carried a shard count and partition column per
/// table and one row list per shard; it is rejected, not converted.
///
/// Strings are dictionary-coded per file: each distinct VARCHAR is stored
/// once and cells reference it by dense u32 id, mirroring the in-memory
/// interner and keeping string-heavy D/KB images compact.

/// Point-in-time metadata recovered from a checkpoint header.
struct CheckpointInfo {
  uint64_t last_lsn = 0;
  uint64_t epoch = 0;
};

/// Recreates one empty stored table during ReadCheckpoint: the callee
/// registers it (catalog / stored-DKB bookkeeping) and returns the storage
/// to load rows into.
using TableFactory = std::function<Result<Table*>(const std::string& name,
                                                  const Schema& schema)>;

/// Writes a checkpoint of `tables` (rows visible at the latest epoch) and
/// `rules` to `path` via a temp file + atomic rename. The caller must hold
/// the write side of the testbed lock so the image is a consistent cut.
Status WriteCheckpoint(const std::string& path, uint64_t last_lsn,
                       uint64_t epoch, const std::vector<const Table*>& tables,
                       const std::vector<std::string>& rules);

/// Loads the checkpoint at `path`: calls `factory` once per table, appends
/// its rows in their saved order, recreates index definitions, and fills
/// `rules_out` with the saved rule texts. Counts and index key columns
/// read from the file are bounded against the payload and the schema
/// before anything is allocated or indexed, so a CRC-valid but hostile file
/// gets a Status, never a huge allocation or an out-of-range key. Returns
/// header metadata. The target system must be empty; loading into a
/// non-empty catalog is the caller's kFailedPrecondition to enforce.
Result<CheckpointInfo> ReadCheckpoint(const std::string& path,
                                      const TableFactory& factory,
                                      std::vector<std::string>* rules_out);

/// Reads just the header (last_lsn, epoch) without loading any data;
/// validates magic and CRC. Used by sys.checkpoints and tooling.
Result<CheckpointInfo> PeekCheckpoint(const std::string& path);

}  // namespace dkb

#endif  // DKB_STORAGE_CHECKPOINT_H_
