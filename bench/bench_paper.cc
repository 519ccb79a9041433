// Aggregate paper-suite runner: executes every bench_fig* / bench_table*
// binary (plus the concurrency bench), captures their machine-readable
// "  csv," echo blocks, and merges everything into one BENCH_paper.json.
//
// CI runs `bench_paper --smoke` on every push: each child bench shrinks its
// sweeps under --smoke, so the whole suite finishes in seconds and acts as
// a perf-smoke + schema-drift gate rather than a measurement. Without
// --smoke this produces the full paper-scale result file.
//
// --compare OLD.json diffs the freshly written result file against a prior
// run: every timed cell (FormatUs units: "N us" / "N.NN ms" / "N.NN s") is
// matched by bench, table, and the row's non-time cells, and the run fails
// (exit 1) if any cell slowed down by more than 25% AND by more than the
// absolute noise floor (--compare-floor-us, default 50000). CI feeds it a
// baseline produced moments earlier on the same runner (smoke-vs-smoke), so
// it gates catastrophic slowdowns, not microbenchmark jitter.
//
//   bench_paper [--smoke] [--out BENCH_paper.json]
//               [--compare OLD.json] [--compare-floor-us N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

namespace dkb::bench {
namespace {

/// The paper suite in paper order (Figures 7-15, Tables 4/5/8), then the
/// concurrency and network benches whose BENCH_parallel.json /
/// BENCH_net.json are folded into the merged file. Keep in sync with
/// bench/CMakeLists.txt.
const char* const kPaperBenches[] = {
    "bench_fig07_extract",
    "bench_fig08_extract_rrs",
    "bench_fig09_dict_read",
    "bench_fig10_dict_read_prs",
    "bench_table4_compile_breakdown",
    "bench_fig11_relevant_facts",
    "bench_fig12_naive_vs_seminaive",
    "bench_table5_lfp_breakdown",
    "bench_fig13_magic_crossover",
    "bench_fig14_magic_components",
    "bench_fig15_update",
    "bench_table8_update_breakdown",
    "bench_concurrency",
    "bench_net",
    "bench_scale",
    "bench_wal",
};

struct CsvTable {
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

std::vector<std::string> SplitCsvLine(const std::string& line) {
  // TablePrinter's echo format: "  csv,cell,cell,...". Cells never contain
  // commas (they are numbers, units, and identifiers).
  std::vector<std::string> cells;
  std::string rest = line.substr(std::strlen("  csv,"));
  size_t start = 0;
  while (true) {
    size_t comma = rest.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(rest.substr(start));
      break;
    }
    cells.push_back(rest.substr(start, comma - start));
    start = comma + 1;
  }
  return cells;
}

/// Extracts the csv echo blocks from a bench's stdout. Consecutive csv
/// lines form one table: first line headers, the rest rows.
std::vector<CsvTable> ParseCsvBlocks(const std::string& output) {
  std::vector<CsvTable> tables;
  bool in_block = false;
  size_t pos = 0;
  while (pos <= output.size()) {
    size_t eol = output.find('\n', pos);
    std::string line = output.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    if (line.rfind("  csv,", 0) == 0) {
      if (!in_block) {
        tables.emplace_back();
        tables.back().headers = SplitCsvLine(line);
        in_block = true;
      } else {
        tables.back().rows.push_back(SplitCsvLine(line));
      }
    } else {
      in_block = false;
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return tables;
}

std::string TableToJson(const CsvTable& table) {
  std::string out = "{\"headers\": [";
  for (size_t i = 0; i < table.headers.size(); ++i) {
    out += (i ? ", " : "") + ("\"" + JsonEscape(table.headers[i]) + "\"");
  }
  out += "], \"rows\": [";
  for (size_t r = 0; r < table.rows.size(); ++r) {
    out += r ? ", [" : "[";
    for (size_t c = 0; c < table.rows[r].size(); ++c) {
      out += (c ? ", " : "") + ("\"" + JsonEscape(table.rows[r][c]) + "\"");
    }
    out += "]";
  }
  out += "]}";
  return out;
}

/// Runs one child bench via popen, returns false on non-zero exit.
bool RunChild(const std::string& command, std::string* output) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "FATAL: popen(%s) failed\n", command.c_str());
    return false;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, n);
  }
  int rc = pclose(pipe);
  return rc == 0;
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

int RunSuite(const std::string& self_path, const std::string& out_path) {
  // Children live next to this binary.
  std::string bin_dir = ".";
  size_t slash = self_path.find_last_of('/');
  if (slash != std::string::npos) bin_dir = self_path.substr(0, slash);

  std::string benches_json = "[";
  int ran = 0;
  for (const char* name : kPaperBenches) {
    std::string command = bin_dir + "/" + name;
    if (SmokeMode()) command += " --smoke";
    // The network bench also measures trace-propagation overhead so the
    // merged JSON always carries the traced-vs-untraced sustain pair.
    if (std::string(name) == "bench_net") command += " --trace";
    command += " 2>&1";
    std::printf("[bench_paper] running %s ...\n", name);
    std::fflush(stdout);
    std::string output;
    if (!RunChild(command, &output)) {
      std::fprintf(stderr, "FATAL: %s failed; output follows\n%s\n", name,
                   output.c_str());
      return 1;
    }
    std::vector<CsvTable> tables = ParseCsvBlocks(output);
    if (tables.empty() && std::string(name) != "bench_concurrency") {
      // Every table bench must echo at least one csv block — an empty
      // result means the output format drifted and plots would go dark.
      std::fprintf(stderr, "FATAL: %s emitted no '  csv,' blocks\n", name);
      return 1;
    }
    std::string entry = "{\"bench\": \"" + JsonEscape(name) + "\", ";
    entry += "\"tables\": [";
    for (size_t t = 0; t < tables.size(); ++t) {
      entry += (t ? ", " : "") + TableToJson(tables[t]);
    }
    entry += "]}";
    benches_json += (ran ? ", " : "") + entry;
    ++ran;
  }
  benches_json += "]";

  BenchJson json("paper");
  json.Add("smoke", SmokeMode());
  json.Add("benches_run", static_cast<int64_t>(ran));
  json.AddRaw("benches", benches_json);

  // bench_concurrency writes BENCH_parallel.json into the working
  // directory; fold it in so one artifact carries the whole suite.
  std::string parallel = ReadFileOrEmpty("BENCH_parallel.json");
  if (!parallel.empty()) {
    std::string error;
    if (!JsonValidator::Validate(parallel, &error)) {
      std::fprintf(stderr, "FATAL: BENCH_parallel.json invalid: %s\n",
                   error.c_str());
      return 1;
    }
    json.AddRaw("parallel", parallel);
  }

  // Same for bench_net's latency histograms.
  std::string net = ReadFileOrEmpty("BENCH_net.json");
  if (!net.empty()) {
    std::string error;
    if (!JsonValidator::Validate(net, &error)) {
      std::fprintf(stderr, "FATAL: BENCH_net.json invalid: %s\n",
                   error.c_str());
      return 1;
    }
    json.AddRaw("net", net);
  }

  // And bench_scale's 10x-data fig12/fig13 cells.
  std::string scale = ReadFileOrEmpty("BENCH_scale.json");
  if (!scale.empty()) {
    std::string error;
    if (!JsonValidator::Validate(scale, &error)) {
      std::fprintf(stderr, "FATAL: BENCH_scale.json invalid: %s\n",
                   error.c_str());
      return 1;
    }
    json.AddRaw("scale", scale);
  }

  // And bench_wal's durable-commit latency and session-open costs.
  std::string wal = ReadFileOrEmpty("BENCH_wal.json");
  if (!wal.empty()) {
    std::string error;
    if (!JsonValidator::Validate(wal, &error)) {
      std::fprintf(stderr, "FATAL: BENCH_wal.json invalid: %s\n",
                   error.c_str());
      return 1;
    }
    json.AddRaw("wal", wal);
  }

  // Schema gate: the merged file must parse and carry the current schema
  // version; CI fails on drift before any plotting script sees it.
  std::string rendered = json.Render();
  std::string error;
  if (!JsonValidator::Validate(rendered, &error)) {
    std::fprintf(stderr, "FATAL: merged JSON invalid: %s\n", error.c_str());
    return 1;
  }
  std::string version_field =
      "\"schema_version\": " + std::to_string(kBenchJsonSchemaVersion);
  if (rendered.find(version_field) == std::string::npos) {
    std::fprintf(stderr, "FATAL: merged JSON missing %s\n",
                 version_field.c_str());
    return 1;
  }
  CheckOk(json.WriteFile(out_path), "write merged json");
  std::printf("[bench_paper] %d benches merged into %s (schema_version=%d)\n",
              ran, out_path.c_str(), kBenchJsonSchemaVersion);
  return 0;
}

// ---------------------------------------------------------------------------
// --compare: regression gate against a prior BENCH_paper.json.

/// Minimal JSON value tree for reading BENCH_paper.json back. Only the
/// shapes BenchJson/TableToJson emit are needed; anything else is a parse
/// error.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;   // kObject

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  static bool Parse(const std::string& text, JsonValue* out) {
    JsonParser p(text);
    if (!p.Value(out)) return false;
    p.SkipWs();
    return p.pos_ == text.size();
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u':
          // Bench cells are ASCII; keep a placeholder rather than decoding.
          if (pos_ + 4 > text_.size()) return false;
          pos_ += 4;
          out->push_back('?');
          break;
        default: out->push_back(esc); break;
      }
    }
    return false;
  }
  bool Value(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      out->kind = JsonValue::kObject;
      ++pos_;
      if (Eat('}')) return true;
      while (true) {
        std::string key;
        SkipWs();
        if (!String(&key)) return false;
        if (!Eat(':')) return false;
        JsonValue v;
        if (!Value(&v)) return false;
        out->fields.emplace_back(std::move(key), std::move(v));
        if (Eat('}')) return true;
        if (!Eat(',')) return false;
      }
    }
    if (c == '[') {
      out->kind = JsonValue::kArray;
      ++pos_;
      if (Eat(']')) return true;
      while (true) {
        JsonValue v;
        if (!Value(&v)) return false;
        out->items.push_back(std::move(v));
        if (Eat(']')) return true;
        if (!Eat(',')) return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    char* end = nullptr;
    out->number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out->kind = JsonValue::kNumber;
    pos_ = static_cast<size_t>(end - text_.c_str());
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Parses a FormatUs cell ("123 us", "1.23 ms", "4.56 s") back to micros.
bool ParseTimeCell(const std::string& cell, int64_t* us) {
  char* end = nullptr;
  double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str()) return false;
  std::string unit = end;
  while (!unit.empty() && unit.front() == ' ') unit.erase(unit.begin());
  if (unit == "us") {
    *us = static_cast<int64_t>(v);
  } else if (unit == "ms") {
    *us = static_cast<int64_t>(v * 1e3);
  } else if (unit == "s") {
    *us = static_cast<int64_t>(v * 1e6);
  } else {
    return false;
  }
  return true;
}

/// bench name -> its csv tables, read out of a merged BENCH_paper.json.
bool ExtractBenchTables(const std::string& json_text,
                        std::map<std::string, std::vector<CsvTable>>* out,
                        std::string* error) {
  JsonValue root;
  if (!JsonParser::Parse(json_text, &root) ||
      root.kind != JsonValue::kObject) {
    *error = "not a JSON object";
    return false;
  }
  const JsonValue* benches = root.Find("benches");
  if (benches == nullptr || benches->kind != JsonValue::kArray) {
    *error = "missing \"benches\" array";
    return false;
  }
  for (const JsonValue& entry : benches->items) {
    const JsonValue* name = entry.Find("bench");
    const JsonValue* tables = entry.Find("tables");
    if (name == nullptr || name->kind != JsonValue::kString ||
        tables == nullptr || tables->kind != JsonValue::kArray) {
      *error = "malformed bench entry";
      return false;
    }
    std::vector<CsvTable>& dst = (*out)[name->string];
    for (const JsonValue& t : tables->items) {
      CsvTable table;
      const JsonValue* headers = t.Find("headers");
      const JsonValue* rows = t.Find("rows");
      if (headers == nullptr || rows == nullptr) {
        *error = "malformed table in " + name->string;
        return false;
      }
      for (const JsonValue& h : headers->items) table.headers.push_back(h.string);
      for (const JsonValue& r : rows->items) {
        std::vector<std::string> cells;
        for (const JsonValue& c : r.items) cells.push_back(c.string);
        table.rows.push_back(std::move(cells));
      }
      dst.push_back(std::move(table));
    }
  }
  return true;
}

/// Identity of a row across runs: every cell that is not a timing. Sweep
/// parameters, labels, and counts key the row; timed cells are what we
/// compare. Duplicate keys get an occurrence suffix.
std::string RowKey(const std::vector<std::string>& cells) {
  std::string key;
  int64_t us;
  for (const std::string& cell : cells) {
    if (ParseTimeCell(cell, &us)) continue;
    key += cell;
    key += '|';
  }
  return key;
}

/// Diffs `new_path` (just written by this run) against `old_path`. Returns
/// the number of cells that regressed past both gates; 25% relative AND
/// `floor_us` absolute, so micro-jitter on sub-millisecond cells never
/// trips the gate.
int CompareSuites(const std::string& old_path, const std::string& new_path,
                  int64_t floor_us) {
  const std::string old_text = ReadFileOrEmpty(old_path);
  if (old_text.empty()) {
    std::fprintf(stderr, "FATAL: --compare %s: unreadable or empty\n",
                 old_path.c_str());
    return 1;
  }
  const std::string new_text = ReadFileOrEmpty(new_path);
  std::map<std::string, std::vector<CsvTable>> old_suite, new_suite;
  std::string error;
  if (!ExtractBenchTables(old_text, &old_suite, &error)) {
    std::fprintf(stderr, "FATAL: --compare %s: %s\n", old_path.c_str(),
                 error.c_str());
    return 1;
  }
  if (!ExtractBenchTables(new_text, &new_suite, &error)) {
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
    const std::vector<CsvTable>& old_tables = old_it->second;
    for (size_t t = 0; t < new_tables.size() && t < old_tables.size(); ++t) {
      // Index old rows by their non-time cells (occurrence-disambiguated).
      std::map<std::string, const std::vector<std::string>*> old_rows;
      std::map<std::string, int> seen;
      for (const auto& row : old_tables[t].rows) {
        std::string key = RowKey(row) + "#" + std::to_string(seen[RowKey(row)]++);
        old_rows[key] = &row;
      }
      seen.clear();
      for (const auto& row : new_tables[t].rows) {
        std::string key = RowKey(row) + "#" + std::to_string(seen[RowKey(row)]++);
        auto match = old_rows.find(key);
        if (match == old_rows.end()) continue;  // new sweep point
        const std::vector<std::string>& old_row = *match->second;
        for (size_t c = 0; c < row.size() && c < old_row.size(); ++c) {
          int64_t old_us, new_us;
          if (!ParseTimeCell(old_row[c], &old_us) ||
              !ParseTimeCell(row[c], &new_us)) {
            continue;
          }
          ++compared;
          const bool slow = new_us > old_us + old_us / 4 &&
                            new_us - old_us > floor_us;
          if (slow) {
            ++regressions;
            const std::string col =
                c < new_tables[t].headers.size() ? new_tables[t].headers[c]
                                                 : std::to_string(c);
            std::fprintf(stderr,
                         "REGRESSION: %s table %zu [%s] %s: %s -> %s\n",
                         bench.c_str(), t, RowKey(row).c_str(), col.c_str(),
                         old_row[c].c_str(), row[c].c_str());
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
