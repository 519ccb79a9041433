#ifndef DKB_BENCH_BENCH_UTIL_H_
#define DKB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

#ifndef DKB_GIT_DESCRIBE
#define DKB_GIT_DESCRIBE "unknown"
#endif

namespace dkb::bench {

/// Schema version of BENCH_*.json files. Bump when the header or the shape
/// of bench-specific fields changes incompatibly, so cross-PR comparison
/// scripts can refuse to mix generations.
constexpr int kBenchJsonSchemaVersion = 3;

/// Process-wide smoke switch. Under --smoke every bench shrinks its sweep
/// grids and rep counts so the full paper suite (bench_paper) finishes in
/// seconds — CI runs it on every push to catch bit-rot in the bench code
/// and drift in the BENCH_*.json schema, not to measure anything.
inline bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

/// argv[0] of this bench binary; names its BENCH_<name>.json.
inline std::string& BinaryName() {
  static std::string name;
  return name;
}

/// Parses the flags shared by every bench binary (currently just --smoke)
/// and records the binary's name.
inline void ParseBenchArgs(int argc, char** argv) {
  BinaryName() = argv[0];
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") SmokeMode() = true;
  }
}

/// Rep count: the full number when measuring, a token count under --smoke.
inline int Reps(int full, int smoke = 2) { return SmokeMode() ? smoke : full; }

/// Sweep grid: all points when measuring, the first `keep` under --smoke.
/// Smoke keeps the *small* end of each sweep, so trim-sensitive fixtures
/// (deep trees, large rule bases) never run at full scale in CI.
inline std::vector<int> Sweep(std::vector<int> points, size_t keep = 2) {
  if (SmokeMode() && points.size() > keep) points.resize(keep);
  return points;
}

/// Scale knob (tree depth, rule-base size): `full` when measuring, the
/// explicitly chosen `smoke` value under --smoke.
inline int SmokeSize(int full, int smoke) {
  return SmokeMode() ? smoke : full;
}

/// Aborts the bench with a diagnostic if `status` is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// Unwraps a Result<T>, aborting on error.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Median of `reps` runs of a timed body returning elapsed microseconds.
template <typename F>
int64_t MedianMicros(int reps, F&& body) {
  std::vector<int64_t> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) samples.push_back(body());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Renders microseconds with adaptive units.
inline std::string FormatUs(int64_t us) {
  char buf[64];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2f s", us / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld us", static_cast<long long>(us));
  }
  return buf;
}

inline std::string FormatPct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

inline std::string FormatF(double v, int digits = 2) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Builds a BENCH_*.json object with a schema-versioned header identifying
/// the machine and build, so result files are comparable across PRs. All
/// string values go through JsonEscape — no hand-rolled printf JSON.
/// Tables (TablePrinter::Print) collect under "tables"; other fields keep
/// the order they were added in.
class BenchJson {
 public:
  explicit BenchJson(const std::string& bench_name) {
    Add("schema_version", static_cast<int64_t>(kBenchJsonSchemaVersion));
    Add("bench", bench_name);
    Add("smoke", SmokeMode());
    Add("hardware_threads",
        static_cast<int64_t>(std::thread::hardware_concurrency()));
    Add("pool_threads",
        static_cast<int64_t>(GlobalThreadPool().num_threads()));
    const char* env = std::getenv("DKB_THREADS");
    Add("dkb_threads_env", env == nullptr ? "" : env);
    Add("git_describe", DKB_GIT_DESCRIBE);
  }

  void Add(const std::string& key, const std::string& value) {
    AddRaw(key, "\"" + JsonEscape(value) + "\"");
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const std::string& key, int64_t value) {
    AddRaw(key, std::to_string(value));
  }
  void Add(const std::string& key, double value) {
    AddRaw(key, FormatF(value, 4));
  }
  void Add(const std::string& key, bool value) {
    AddRaw(key, value ? "true" : "false");
  }
  /// Attaches an already-rendered JSON value (object/array/number).
  void AddRaw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  /// Appends a rendered table object to the "tables" array.
  void AddTable(std::string json) { tables_.push_back(std::move(json)); }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ",\n  \"" : "\n  \"") + JsonEscape(fields_[i].first) +
             "\": " + fields_[i].second;
    }
    if (!tables_.empty()) {
      out += ",\n  \"tables\": [";
      for (size_t i = 0; i < tables_.size(); ++i) {
        out += (i ? ",\n    " : "\n    ") + tables_[i];
      }
      out += "\n  ]";
    }
    return out + "\n}\n";
  }

  Status WriteFile(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return Status::Internal("cannot open " + path + " for writing");
    }
    std::string text = Render();
    size_t written = std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    if (written != text.size()) {
      return Status::Internal("short write to " + path);
    }
    return Status::OK();
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::string> tables_;
};

/// Bench name of a binary: its file name without the "bench_" prefix.
inline std::string BenchName(const std::string& binary) {
  std::string name = binary.substr(binary.find_last_of('/') + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name;
}

/// The result file a bench binary writes into the working directory:
/// BENCH_<name>.json for binary bench_<name>.
inline std::string BenchFileName(const std::string& binary) {
  return "BENCH_" + BenchName(binary) + ".json";
}

/// This binary's result object (named by ParseBenchArgs from argv[0]).
/// Scalar fields added to it are written by the next TablePrinter::Print.
inline BenchJson& BenchOutput() {
  if (BinaryName().empty()) {
    std::fprintf(stderr, "FATAL: ParseBenchArgs was not called\n");
    std::exit(1);
  }
  static BenchJson json(BenchName(BinaryName()));
  return json;
}

/// A table cell: what the console shows and the raw number BENCH JSON
/// keeps. Build cells with Label/Count/Us/Ratio/Pct below; every cell of a
/// column must be of one kind, which becomes the column's unit.
enum class CellKind { kLabel, kCount, kUs, kRatio, kPct };

inline const char* UnitName(CellKind kind) {
  switch (kind) {
    case CellKind::kLabel: return "label";
    case CellKind::kCount: return "count";
    case CellKind::kUs: return "us";
    case CellKind::kRatio: return "ratio";
    case CellKind::kPct: return "pct";
  }
  return "?";
}

struct Cell {
  CellKind kind;
  std::string text;  // console rendering
  double value = 0;  // raw number; labels have none
};

inline Cell Label(std::string text) {
  return {CellKind::kLabel, std::move(text)};
}
inline Cell Count(int64_t n) {
  return {CellKind::kCount, std::to_string(n), static_cast<double>(n)};
}
/// Microseconds, shown with adaptive units (FormatUs).
inline Cell Us(int64_t us) {
  return {CellKind::kUs, FormatUs(us), static_cast<double>(us)};
}
/// Fractional microseconds, shown as a plain number (the header names the
/// unit).
inline Cell Us(double us, int digits) {
  return {CellKind::kUs, FormatF(us, digits), us};
}
inline Cell Ratio(double v, int digits = 2) {
  return {CellKind::kRatio, FormatF(v, digits), v};
}
/// A fraction, shown and stored as a percentage.
inline Cell Pct(double fraction) {
  return {CellKind::kPct, FormatPct(fraction), fraction * 100.0};
}

/// JSON number for a cell value; non-finite values (a ratio over a zero
/// time) become null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[48];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

/// Column-aligned ASCII table. Print() shows it and adds it, as raw
/// numbers with a unit per column, to this binary's BENCH_<name>.json.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<Cell> cells) {
    if (cells.size() != headers_.size() ||
        (!rows_.empty() && !SameKinds(rows_.front(), cells))) {
      std::fprintf(stderr, "FATAL: row does not fit table [%s ...]\n",
                   headers_.front().c_str());
      std::exit(1);
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].text.size());
      }
    }
    auto print_row = [&](auto text_of) {
      for (size_t c = 0; c < headers_.size(); ++c) {
        std::printf("  %-*s", static_cast<int>(widths[c]), text_of(c).c_str());
      }
      std::printf("\n");
    };
    print_row([&](size_t c) { return headers_[c]; });
    std::string rule;
    for (size_t c = 0; c < headers_.size(); ++c) {
      rule += std::string(widths[c], '-') + "  ";
    }
    std::printf("  %s\n", rule.c_str());
    for (const auto& row : rows_) {
      print_row([&](size_t c) { return row[c].text; });
    }
    BenchOutput().AddTable(ToJson());
    const std::string path = BenchFileName(BinaryName());
    CheckOk(BenchOutput().WriteFile(path), path.c_str());
  }

 private:
  static bool SameKinds(const std::vector<Cell>& a,
                        const std::vector<Cell>& b) {
    for (size_t c = 0; c < a.size(); ++c) {
      if (a[c].kind != b[c].kind) return false;
    }
    return true;
  }

  std::string ToJson() const {
    std::string headers;
    std::string units;
    for (size_t c = 0; c < headers_.size(); ++c) {
      headers += (c ? ", \"" : "\"") + JsonEscape(headers_[c]) + "\"";
      units += c ? ", \"" : "\"";
      units += rows_.empty() ? "label" : UnitName(rows_.front()[c].kind);
      units += "\"";
    }
    std::string out = "{\"headers\": [" + headers + "], \"units\": [" +
                      units + "], \"rows\": [";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out += r ? ", [" : "[";
      for (size_t c = 0; c < rows_[r].size(); ++c) {
        const Cell& cell = rows_[r][c];
        if (c) out += ", ";
        out += cell.kind == CellKind::kLabel
                   ? "\"" + JsonEscape(cell.text) + "\""
                   : JsonNumber(cell.value);
      }
      out += "]";
    }
    return out + "]}";
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

/// Minimal JSON value tree, for reading BENCH_*.json files back.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// The one JSON reader of the bench suite: a file is valid when it parses.
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
      if (static_cast<unsigned char>(c) < 0x20) return false;
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
        case '"': case '\\': case '/': out->push_back(esc); break;
        case 'u':
          // Bench cells are ASCII; keep a placeholder rather than decoding.
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
          out->push_back('?');
          break;
        default: return false;
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
    if (c != '-' && !std::isdigit(static_cast<unsigned char>(c))) return false;
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

/// Section banner matching the paper's test numbering.
inline void Banner(const char* title, const char* paper_ref,
                   const char* expectation) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("Paper-shape expectation: %s\n", expectation);
  std::printf("=============================================================\n\n");
}

}  // namespace dkb::bench

#endif  // DKB_BENCH_BENCH_UTIL_H_
