// Aggregate paper-suite runner: runs every bench binary of the suite (the
// list is DKB_PAPER_BENCHES, set from bench/CMakeLists.txt) and gathers the
// BENCH_<name>.json file each one writes into one BENCH_paper.json, where
// every child's file appears once, unchanged, under "benches".
//
// A child's file is deleted before the child runs, so a file left over from
// an earlier run never stands in for this one. The suite fails (exit 1) if
// a child exits non-zero, writes no file, or writes one that does not parse
// or carries another schema_version.
//
// CI runs `bench_paper --smoke` on every push: each child bench shrinks its
// sweeps under --smoke, so the whole suite finishes in seconds and acts as
// a perf-smoke + schema-drift gate rather than a measurement. Without
// --smoke this produces the full paper-scale result file.
//
// --compare OLD.json diffs the freshly written result file against a prior
// run. Rows are matched by bench, table index, and the row's cells in
// non-"us" columns; each "us" cell is compared with the same column of the
// matched row, and the run fails (exit 1) if any cell slowed down by more
// than 25% AND by more than the absolute noise floor (--compare-floor-us,
// default 50000), or if no cell matched at all. CI feeds it a baseline
// produced moments earlier on the same runner (smoke-vs-smoke), so it
// gates catastrophic slowdowns, not microbenchmark jitter.
//
//   bench_paper [--smoke] [--out BENCH_paper.json]
//               [--compare OLD.json] [--compare-floor-us N]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

#ifndef DKB_PAPER_BENCHES
#error "DKB_PAPER_BENCHES (comma-separated bench binaries) must be defined"
#endif

namespace dkb::bench {
namespace {

/// The suite in run order, from bench/CMakeLists.txt.
std::vector<std::string> SuiteBenches() {
  std::vector<std::string> names;
  const std::string list = DKB_PAPER_BENCHES;
  size_t start = 0;
  while (start < list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    names.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return names;
}

std::string ReadFileOrEmpty(const std::string& path) {
  FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return "";
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) text.append(buf, n);
  std::fclose(in);
  return text;
}

/// Parses a BENCH_*.json file and checks that it is of this generation.
bool ParseBenchFile(const std::string& text, JsonValue* root,
                    std::string* error) {
  if (!JsonParser::Parse(text, root) || root->kind != JsonValue::kObject) {
    *error = "does not parse as a JSON object";
    return false;
  }
  const JsonValue* version = root->Find("schema_version");
  if (version == nullptr || version->kind != JsonValue::kNumber ||
      version->number != kBenchJsonSchemaVersion) {
    *error = "schema_version is not " + std::to_string(kBenchJsonSchemaVersion);
    return false;
  }
  return true;
}

int RunSuite(const std::string& self_path, const std::string& out_path) {
  // Children live next to this binary.
  std::string bin_dir = ".";
  size_t slash = self_path.find_last_of('/');
  if (slash != std::string::npos) bin_dir = self_path.substr(0, slash);

  std::string benches;
  int ran = 0;
  for (const std::string& name : SuiteBenches()) {
    const std::string file = BenchFileName(name);
    std::remove(file.c_str());
    std::string command = bin_dir + "/" + name;
    if (SmokeMode()) command += " --smoke";
    // The network bench also measures trace-propagation overhead so the
    // merged JSON always carries the traced-vs-untraced sustain pair.
    if (name == "bench_net") command += " --trace";
    std::printf("[bench_paper] running %s ...\n", name.c_str());
    std::fflush(stdout);
    if (std::system(command.c_str()) != 0) {
      std::fprintf(stderr, "FATAL: %s failed\n", name.c_str());
      return 1;
    }
    std::string text = ReadFileOrEmpty(file);
    JsonValue root;
    std::string error;
    if (text.empty()) {
      error = "wrote no " + file;
    } else if (ParseBenchFile(text, &root, &error)) {
      const JsonValue* bench = root.Find("bench");
      const JsonValue* tables = root.Find("tables");
      if (bench == nullptr || bench->string != BenchName(name)) {
        error = file + " does not name bench " + BenchName(name);
      } else if (tables == nullptr || tables->items.empty()) {
        error = file + " holds no tables";
      }
    }
    if (!error.empty()) {
      std::fprintf(stderr, "FATAL: %s: %s\n", name.c_str(), error.c_str());
      return 1;
    }
    while (!text.empty() && text.back() == '\n') text.pop_back();
    benches += (ran ? ",\n" : "\n") + text;
    ++ran;
  }

  BenchJson json("paper");
  json.Add("benches_run", static_cast<int64_t>(ran));
  json.AddRaw("benches", "[" + benches + "\n]");
  CheckOk(json.WriteFile(out_path), "write merged json");
  std::printf("[bench_paper] %d benches merged into %s (schema_version=%d)\n",
              ran, out_path.c_str(), kBenchJsonSchemaVersion);
  return 0;
}

// ---------------------------------------------------------------------------
// --compare: regression gate against a prior BENCH_paper.json.

/// bench name -> its table objects, read out of a merged BENCH_paper.json.
bool ExtractBenchTables(
    const JsonValue& root,
    std::map<std::string, std::vector<const JsonValue*>>* out,
    std::string* error) {
  const JsonValue* benches = root.Find("benches");
  if (benches == nullptr || benches->kind != JsonValue::kArray) {
    *error = "missing \"benches\" array";
    return false;
  }
  for (const JsonValue& entry : benches->items) {
    const JsonValue* name = entry.Find("bench");
    const JsonValue* tables = entry.Find("tables");
    if (name == nullptr || tables == nullptr) {
      *error = "malformed bench entry";
      return false;
    }
    for (const JsonValue& t : tables->items) {
      const JsonValue* headers = t.Find("headers");
      const JsonValue* units = t.Find("units");
      const JsonValue* rows = t.Find("rows");
      if (headers == nullptr || units == nullptr || rows == nullptr ||
          units->items.size() != headers->items.size()) {
        *error = "malformed table in " + name->string;
        return false;
      }
      for (const JsonValue& row : rows->items) {
        if (row.items.size() != headers->items.size()) {
          *error = "ragged row in " + name->string;
          return false;
        }
      }
      (*out)[name->string].push_back(&t);
    }
  }
  return true;
}

const std::string& ColumnName(const JsonValue& table, size_t c) {
  return table.Find("headers")->items[c].string;
}
const std::string& ColumnUnit(const JsonValue& table, size_t c) {
  return table.Find("units")->items[c].string;
}

/// Identity of a row across runs: its cells in non-"us" columns (sweep
/// parameters, names, counts, ratios, percentages). A row whose measured
/// ratio moved therefore matches nothing and is not compared.
std::string RowKey(const JsonValue& table, const JsonValue& row) {
  std::string key;
  for (size_t c = 0; c < row.items.size(); ++c) {
    if (ColumnUnit(table, c) == "us") continue;
    const JsonValue& cell = row.items[c];
    key += ColumnName(table, c) + "=" +
           (cell.kind == JsonValue::kString   ? cell.string
            : cell.kind == JsonValue::kNumber ? JsonNumber(cell.number)
                                              : "null") +
           "|";
  }
  return key;
}

/// Rows of `table` by key; repeated keys get an occurrence suffix.
std::map<std::string, const JsonValue*> RowsByKey(const JsonValue& table) {
  std::map<std::string, const JsonValue*> rows;
  std::map<std::string, int> seen;
  for (const JsonValue& row : table.Find("rows")->items) {
    std::string key = RowKey(table, row);
    rows[key + "#" + std::to_string(seen[key]++)] = &row;
  }
  return rows;
}

/// Diffs `new_path` (just written by this run) against `old_path`. Returns
/// non-zero if a cell regressed past both gates (25% relative AND
/// `floor_us` absolute, so micro-jitter on sub-millisecond cells never
/// trips the gate) or if no cell matched.
int CompareSuites(const std::string& old_path, const std::string& new_path,
                  int64_t floor_us) {
  JsonValue old_root;
  JsonValue new_root;
  std::map<std::string, std::vector<const JsonValue*>> old_suite, new_suite;
  std::string error;
  const std::string old_text = ReadFileOrEmpty(old_path);
  if (old_text.empty() || !ParseBenchFile(old_text, &old_root, &error) ||
      !ExtractBenchTables(old_root, &old_suite, &error)) {
    std::fprintf(stderr, "FATAL: --compare %s: %s\n", old_path.c_str(),
                 old_text.empty() ? "unreadable or empty" : error.c_str());
    return 1;
  }
  if (!ParseBenchFile(ReadFileOrEmpty(new_path), &new_root, &error) ||
      !ExtractBenchTables(new_root, &new_suite, &error)) {
    std::fprintf(stderr, "FATAL: %s: %s\n", new_path.c_str(), error.c_str());
    return 1;
  }

  int regressions = 0;
  int compared = 0;
  std::printf("\n[bench_paper] comparing against %s "
              "(gate: >25%% slower and >%lld us)\n",
              old_path.c_str(), static_cast<long long>(floor_us));
  for (const auto& [bench, new_tables] : new_suite) {
    auto old_it = old_suite.find(bench);
    if (old_it == old_suite.end()) continue;  // new bench: nothing to diff
    const std::vector<const JsonValue*>& old_tables = old_it->second;
    for (size_t t = 0; t < new_tables.size() && t < old_tables.size(); ++t) {
      const JsonValue& new_table = *new_tables[t];
      const JsonValue& old_table = *old_tables[t];
      // (new, old) index pairs of the "us" columns, matched by name.
      std::vector<std::pair<size_t, size_t>> us_columns;
      const size_t old_width = old_table.Find("headers")->items.size();
      for (size_t c = 0; c < new_table.Find("headers")->items.size(); ++c) {
        for (size_t oc = 0; oc < old_width; ++oc) {
          if (ColumnUnit(new_table, c) == "us" &&
              ColumnUnit(old_table, oc) == "us" &&
              ColumnName(new_table, c) == ColumnName(old_table, oc)) {
            us_columns.emplace_back(c, oc);
          }
        }
      }
      const auto old_rows = RowsByKey(old_table);
      for (const auto& [key, row] : RowsByKey(new_table)) {
        auto match = old_rows.find(key);
        if (match == old_rows.end()) continue;  // new sweep point
        for (const auto& [c, oc] : us_columns) {
          const JsonValue& old_cell = match->second->items[oc];
          const JsonValue& new_cell = row->items[c];
          if (old_cell.kind != JsonValue::kNumber ||
              new_cell.kind != JsonValue::kNumber) {
            continue;
          }
          ++compared;
          const double old_us = old_cell.number;
          const double new_us = new_cell.number;
          if (new_us > old_us * 1.25 && new_us - old_us > floor_us) {
            ++regressions;
            std::fprintf(stderr, "REGRESSION: %s table %zu [%s] %s: %s -> %s\n",
                         bench.c_str(), t, key.c_str(),
                         ColumnName(new_table, c).c_str(),
                         FormatUs(std::llround(old_us)).c_str(),
                         FormatUs(std::llround(new_us)).c_str());
          }
        }
      }
    }
  }
  std::printf("[bench_paper] compared %d timed cell(s): %d regression(s)\n",
              compared, regressions);
  if (compared == 0) {
    std::fprintf(stderr,
                 "FATAL: --compare matched no timed cells; baseline stale?\n");
    return 1;
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  std::string out_path = "BENCH_paper.json";
  std::string compare_path;
  int64_t compare_floor_us = 50000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--compare" && i + 1 < argc) {
      compare_path = argv[++i];
    } else if (arg == "--compare-floor-us" && i + 1 < argc) {
      compare_floor_us = std::atoll(argv[++i]);
    }
  }
  int rc = dkb::bench::RunSuite(argv[0], out_path);
  if (rc != 0) return rc;
  if (!compare_path.empty()) {
    return dkb::bench::CompareSuites(compare_path, out_path,
                                     compare_floor_us);
  }
  return 0;
}
