// perfbench: the testbed's end-to-end benchmark program.
//
// Runs one workload for a fixed wall-clock window against the testbed's
// public API (Testbed, Testbed::CompileOnly, lfp::ExecuteProgram,
// net::Server, RemoteClient, metrics::GlobalMetrics), checks every answer
// against a closed-form expectation derived from the generator, and prints
// one JSON result line last on stdout.
//
//   perfbench --workload closure_tree --seed 1 --seconds 30 --trace 0
//             --out DIR [--git DESCRIBE] [--tiny]
//
// --trace 0 reports the end-to-end metrics; --trace 1 interleaves traced
// and untraced requests and reports the per-layer metrics, writing the
// benchmark's own spans to DIR/spans.json at exit. perfbench/README.md
// describes the workloads and the metric map.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "client/remote_client.h"
#include "common/metrics.h"
#include "common/parallelism.h"
#include "km/naming.h"
#include "lfp/evaluator.h"
#include "net/server.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"
#include "workload/rule_gen.h"

namespace perfbench {
namespace {

using dkb::DataType;
using dkb::Tuple;
using dkb::Value;
using dkb::testbed::QueryOptions;
using dkb::testbed::Testbed;
using dkb::testbed::TestbedOptions;
using Clock = std::chrono::steady_clock;

// Every kWriteEvery-th operation of a client is a write pair (AddFacts of
// an edge no read can reach, then a DELETE of it), so the request mix is
// fixed by count and the live data size never changes.
constexpr int64_t kWriteEvery = 20;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const dkb::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Take(dkb::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  in >> one;
  return one.empty() ? "unknown" : one;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans: one per call into a layer's public function,
// kept in memory (one log per client thread) and written out at exit.

struct Span {
  uint64_t request = 0;  // shared by every span of one request
  int32_t parent = -1;   // index into the same log; -1 = request root
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  int32_t Begin(uint64_t request, int32_t parent, const char* name) {
    spans_.push_back(Span{request, parent, name, Clock::now(), {}});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[index].end = Clock::now(); }
  double DurationUs(int32_t index) const {
    return Micros(spans_[index].end - spans_[index].start);
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of it covered by
/// its children's intervals (clipped to the parent, overlaps merged).
std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{};
    Clock::time_point cursor = spans[i].start;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, spans[i].end);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = Micros(spans[i].end - spans[i].start - covered);
  }
  return self;
}

// ---------------------------------------------------------------------------
// Per-run accounting.

/// What one client thread observed. Reads and writes are timed from request
/// sent to answer checked.
struct ClientLog {
  std::vector<double> read_us;         // untraced reads in the timed window
  std::vector<double> traced_read_us;  // traced reads (trace mode only)
  std::vector<double> write_us;        // each AddFacts of a write pair
  std::vector<double> delete_us;       // each compensating SQL DELETE
  std::vector<double> compile_us;      // t_c reported with the answer
  std::vector<double> exec_us;         // t_e reported with the answer
  int64_t user_bytes = 0;  // value bytes of the facts the writes added
  int64_t attempted = 0;
  int64_t failed = 0;
  SpanLog spans;
};

/// Per-goal layer readings taken from an untraced QueryReport.
struct QuerySample {
  dkb::km::CompilationStats compile;
  dkb::lfp::ExecutionStats exec;
  dkb::exec::ExecStatsSnapshot db;
  int64_t total_us = 0;
  int64_t answers = 0;
  int64_t delta_tuples = 0;
};

/// Readings of the data load, one entry per set-up repetition.
struct LoadSample {
  double setup_s = 0;
  double consult_us = 0;
  double load_us = 0;  // DefineBase + AddFacts
  int64_t load_rows = 0;
  dkb::km::UpdateStats update;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir;
  std::string git = "unknown";
};

double WarmupSeconds(const RunConfig& cfg) {
  return std::min(2.0, 0.2 * cfg.seconds);
}

/// Medians of the load readings across set-up repetitions.
void AddLoadMetrics(const std::vector<LoadSample>& loads,
                    std::vector<Metric>* out) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const LoadSample& l : loads) v.push_back(field(l));
    return Median(v);
  };
  const double load_us = med([](const LoadSample& l) { return l.load_us; });
  const double rows = med(
      [](const LoadSample& l) { return static_cast<double>(l.load_rows); });
  out->push_back({"datalog.consult_us",
                  med([](const LoadSample& l) { return l.consult_us; }), "us"});
  out->push_back({"testbed.load_us", load_us, "us"});
  out->push_back({"testbed.load_rows_per_s", Ratio(rows, load_us / 1e6), "1/s"});
  auto upd = [&](auto field) {
    return med([&](const LoadSample& l) {
      return static_cast<double>(field(l.update));
    });
  };
  using U = dkb::km::UpdateStats;
  out->push_back({"km.update_us", upd([](const U& u) { return u.total_us(); }),
                  "us"});
  out->push_back({"km.update.t_extract_us",
                  upd([](const U& u) { return u.t_extract_us; }), "us"});
  out->push_back(
      {"km.update.t_tc_us", upd([](const U& u) { return u.t_tc_us; }), "us"});
  out->push_back({"km.update.t_typecheck_us",
                  upd([](const U& u) { return u.t_typecheck_us; }), "us"});
  out->push_back({"km.update.t_dict_us",
                  upd([](const U& u) { return u.t_dict_us; }), "us"});
  out->push_back({"km.update.t_store_us",
                  upd([](const U& u) { return u.t_store_us; }), "us"});
}

/// Median self time per request of each span name the workloads record.
struct SpanSummary {
  double bench_self = 0, km_self = 0, lfp_self = 0, client_self = 0,
         testbed_self = 0;
  int64_t spans = 0;
};

SpanSummary SummarizeSpans(const std::vector<const SpanLog*>& logs) {
  std::vector<double> bench, km, lfp, client, testbed;
  SpanSummary s;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    const std::vector<double> self = SelfTimes(spans);
    s.spans += static_cast<int64_t>(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string_view name = spans[i].name;
      if (name == "read") {
        bench.push_back(self[i]);
      } else if (name == "km") {
        km.push_back(self[i]);
      } else if (name == "lfp") {
        lfp.push_back(self[i]);
      } else if (name == "client") {
        if (std::string_view(spans[spans[i].parent].name) == "read") {
          client.push_back(self[i]);
        }
      } else if (name == "testbed") {
        testbed.push_back(self[i]);
      }
    }
  }
  s.bench_self = Median(bench);
  s.km_self = Median(km);
  s.lfp_self = Median(lfp);
  s.client_self = Median(client);
  s.testbed_self = Median(testbed);
  return s;
}

void WriteSpans(const RunConfig& cfg, const std::vector<const SpanLog*>& logs,
                Clock::time_point epoch) {
  const std::string path = cfg.out_dir + "/spans.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed));
  bool first = true;
  int64_t base = 0;  // span ids are unique across the merged logs
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    const std::vector<double> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(
          f,
          "%s{\"id\": %lld, \"parent\": %lld, \"request\": %llu, "
          "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
          "\"self_us\": %.3f}",
          first ? "" : ",\n", static_cast<long long>(base + i),
          s.parent < 0 ? -1LL : static_cast<long long>(base + s.parent),
          static_cast<unsigned long long>(s.request), s.name,
          Micros(s.start - epoch), Micros(s.end - epoch), self[i]);
      first = false;
    }
    base += static_cast<int64_t>(spans.size());
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("spans: %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// In-process workloads: closure_tree and rulebase_compile. One client (the
// main thread) in a closed loop against Testbed::Query.

struct InProcessSpec {
  /// Builds a loaded testbed; timed by the caller as setup_s.
  std::function<std::unique_ptr<Testbed>(LoadSample*)> setup;
  std::vector<dkb::datalog::Atom> goals;  // cycled in a seeded order
  std::vector<int64_t> expected_rows;     // per goal, from the generator
  /// When set, every answer row must end with this value.
  std::optional<Value> expected_last;
  QueryOptions options;
  std::string write_pred;                 // unread by every goal
  Tuple write_row;
  std::string delete_sql;
};

TestbedOptions InProcessOptions() {
  TestbedOptions o;
  // No background reclaimer: the traced path calls lfp::ExecuteProgram on
  // the testbed's database without the testbed lock, which is only safe
  // with no other thread touching it. The write pairs leave one dead row
  // version each in a relation the goals never read.
  o.vacuum_interval_ms = 0;
  return o;
}

/// Loads the ancestor program and `rows` of `parent` into a new testbed.
std::unique_ptr<Testbed> SetUpAncestor(const TestbedOptions& options,
                                       const std::vector<Tuple>& rows,
                                       LoadSample* load) {
  const auto t0 = Clock::now();
  auto tb = Take(Testbed::Create(options), "Testbed::Create");
  const auto t1 = Clock::now();
  Check(tb->Consult(dkb::workload::AncestorRules()), "Consult");
  const auto t2 = Clock::now();
  Check(tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar}),
        "DefineBase");
  Check(tb->AddFacts("parent", rows), "AddFacts");
  const auto t3 = Clock::now();
  load->consult_us = Micros(t2 - t1);
  load->load_us = Micros(t3 - t2);
  load->load_rows = static_cast<int64_t>(rows.size());
  load->setup_s = std::chrono::duration<double>(t3 - t0).count();
  return tb;
}

InProcessSpec ClosureTreeSpec(const RunConfig& cfg) {
  // A forest of full binary trees; every goal is bound at a tree root, so
  // the whole tree is relevant and a magic rewrite could not prune it (the
  // workload runs without one).
  const int trees = 2;
  const int depth = cfg.tiny ? 6 : 9;
  InProcessSpec spec;
  spec.setup = [rows = dkb::workload::MakeFullBinaryTrees(trees, depth)
                           .ToTuples()](LoadSample* load) {
    return SetUpAncestor(InProcessOptions(), rows, load);
  };
  for (int t = 0; t < trees; ++t) {
    spec.goals.push_back(
        dkb::workload::AncestorQuery(dkb::workload::TreeNodeName(t, 0)));
    spec.expected_rows.push_back((int64_t{1} << depth) - 2);
  }
  spec.options = QueryOptions::SemiNaive();
  spec.write_pred = "parent";
  spec.write_row = {Value("w_a"), Value("w_b")};
  spec.delete_sql = "DELETE FROM " + dkb::km::EdbTableName("parent") +
                    " WHERE c0 = 'w_a' AND c1 = 'w_b'";
  return spec;
}

InProcessSpec RuleBaseSpec(const RunConfig& cfg) {
  const int total_rules = cfg.tiny ? 60 : 1000;
  const int relevant_rules = cfg.tiny ? 5 : 20;
  const dkb::workload::GeneratedRuleBase rb =
      dkb::workload::MakeRuleBase(total_rules, relevant_rules);
  // Every base relation holds one seeded row; the chain's only base
  // relation decides the answer.
  std::mt19937_64 rng(cfg.seed);
  std::vector<std::pair<std::string, Tuple>> facts;
  for (const std::string& base : rb.base_preds) {
    facts.push_back({base,
                     {Value("k" + std::to_string(rng() % 100000)),
                      Value("v" + std::to_string(rng() % 100000))}});
  }
  const std::string chain_base =
      "q_b" + std::to_string(relevant_rules - 1) + "_0";
  Tuple expected;
  std::string filler;
  for (const auto& [pred, row] : facts) {
    if (pred == chain_base) expected = row;
    if (filler.empty() && pred[0] == 'f') filler = pred;
  }
  if (expected.empty() || filler.empty()) Die("rule base has no chain end");
  std::string program;
  for (const dkb::datalog::Rule& rule : rb.rules) {
    program += rule.ToString() + "\n";
  }

  InProcessSpec spec;
  spec.setup = [facts, program](LoadSample* load) {
    TestbedOptions o = InProcessOptions();
    o.stored.compiled_rule_storage = true;
    const auto t0 = Clock::now();
    auto tb = Take(Testbed::Create(o), "Testbed::Create");
    const auto t1 = Clock::now();
    for (const auto& [pred, row] : facts) {
      Check(tb->DefineBase(pred, {DataType::kVarchar, DataType::kVarchar}),
            "DefineBase");
      Check(tb->AddFacts(pred, {row}), "AddFacts");
    }
    const auto t2 = Clock::now();
    Check(tb->Consult(program), "Consult");
    const auto t3 = Clock::now();
    load->update = Take(tb->UpdateStoredDkb(), "UpdateStoredDkb");
    tb->ClearWorkspace();
    const auto t4 = Clock::now();
    load->load_us = Micros(t2 - t1);
    load->load_rows = static_cast<int64_t>(facts.size());
    load->consult_us = Micros(t3 - t2);
    load->setup_s = std::chrono::duration<double>(t4 - t0).count();
    return tb;
  };
  dkb::datalog::Atom goal;
  goal.predicate = rb.query_pred;
  goal.args = {dkb::datalog::Term::Constant(expected[0]),
               dkb::datalog::Term::Variable("W")};
  spec.goals.push_back(goal);
  spec.expected_rows.push_back(1);
  spec.options = QueryOptions{};
  spec.write_pred = filler;
  spec.write_row = {Value("w_a"), Value("w_b")};
  spec.delete_sql = "DELETE FROM " + dkb::km::EdbTableName(filler) +
                    " WHERE c0 = 'w_a' AND c1 = 'w_b'";
  spec.expected_last = expected[1];
  return spec;
}

/// Sets up a fresh testbed repeatedly, keeping the last one: at least five
/// times and until two seconds of set-up time have accumulated (at most
/// 2000 times), so setup_s is a median over loads spread over a stretch of
/// time longer than the machine's slow spells. Each earlier testbed is
/// destroyed before the next set-up starts, outside the timed part.
std::unique_ptr<Testbed> RepeatSetUp(
    const RunConfig& cfg,
    const std::function<std::unique_ptr<Testbed>(LoadSample*)>& once,
    std::vector<LoadSample>* loads) {
  const int min_reps = cfg.tiny ? 2 : 5;
  const int max_reps = cfg.tiny ? 2 : 2000;
  std::unique_ptr<Testbed> tb;
  double spent_s = 0;
  for (int rep = 0; rep < max_reps && (rep < min_reps || spent_s < 2.0);
       ++rep) {
    tb.reset();
    LoadSample load;
    tb = once(&load);
    spent_s += load.setup_s;
    loads->push_back(load);
  }
  return tb;
}

class InProcessRunner {
 public:
  InProcessRunner(const RunConfig& cfg, InProcessSpec spec)
      : cfg_(cfg), spec_(std::move(spec)), rng_(cfg.seed ^ 0x9e3779b9) {}

  void SetUp() {
    tb_ = RepeatSetUp(cfg_, spec_.setup, &loads_);
  }

  /// Runs the closed loop until `until`. With `record`, latencies and
  /// layer readings are kept; with `trace`, odd reads take the traced path.
  void Loop(Clock::time_point until, bool record, bool trace) {
    while (Clock::now() < until) {
      const int64_t i = op_++;
      if (i % kWriteEvery == kWriteEvery - 1) {
        WritePair(record, trace);
        continue;
      }
      const size_t g = rng_() % spec_.goals.size();
      if (trace && (i & 1)) {
        TracedRead(g, record);
      } else {
        Read(g, record, /*sample=*/trace);
      }
    }
  }

  ClientLog& log() { return log_; }
  const std::vector<LoadSample>& loads() const { return loads_; }
  const std::vector<QuerySample>& samples() const { return samples_; }
  /// Per traced read: how much of the km (lfp) span lies outside the
  /// reported compile (execute) phases.
  const std::vector<double>& km_outside_us() const { return km_outside_us_; }
  const std::vector<double>& lfp_outside_us() const {
    return lfp_outside_us_;
  }

 private:
  bool CheckRead(const dkb::QueryResult& result, size_t g) {
    if (static_cast<int64_t>(result.rows.size()) != spec_.expected_rows[g]) {
      return false;
    }
    if (!spec_.expected_last.has_value()) return true;
    for (const Tuple& row : result.rows) {
      if (row.empty() || !(row.back() == *spec_.expected_last)) return false;
    }
    return true;
  }

  void Read(size_t g, bool record, bool sample) {
    const auto t0 = Clock::now();
    auto outcome = tb_->Query(spec_.goals[g], spec_.options);
    const bool ok = outcome.ok() && CheckRead(outcome->result, g);
    const auto t1 = Clock::now();
    Count(ok);
    if (!record) return;
    log_.read_us.push_back(Micros(t1 - t0));
    if (!sample || !outcome.ok()) return;
    const dkb::testbed::QueryReport& r = outcome->report;
    QuerySample s;
    s.compile = r.compile;
    s.exec = r.exec;
    s.db = r.db_delta;
    s.total_us = r.total_us;
    s.answers = static_cast<int64_t>(outcome->result.rows.size());
    for (const dkb::lfp::NodeStats& n : r.exec.nodes) {
      for (int64_t d : n.delta_sizes) s.delta_tuples += d;
    }
    s.exec.nodes.clear();
    samples_.push_back(std::move(s));
  }

  /// The traced path: the goal split into its compile (km) and execute
  /// (lfp) calls, each wrapped in a span under the request's root span.
  void TracedRead(size_t g, bool record) {
    SpanLog& spans = log_.spans;
    const uint64_t req = ++request_;
    const auto t0 = Clock::now();
    const int32_t root = spans.Begin(req, -1, "read");
    bool ok = false;
    dkb::km::CompilationStats cstats;
    const int32_t km = spans.Begin(req, root, "km");
    auto compiled = tb_->CompileOnly(spec_.goals[g], spec_.options, &cstats);
    spans.End(km);
    if (compiled.ok()) {
      dkb::lfp::EvalOptions eopts;
      eopts.strategy = spec_.options.strategy;
      eopts.parallelism = spec_.options.EffectivePolicy().lfp_parallelism;
      dkb::lfp::ExecutionStats estats;
      const int32_t lfp = spans.Begin(req, root, "lfp");
      auto result = dkb::lfp::ExecuteProgram(&tb_->db(), compiled->program,
                                             eopts, &estats);
      spans.End(lfp);
      ok = result.ok() && CheckRead(*result, g);
      if (record) {
        km_outside_us_.push_back(spans.DurationUs(km) -
                                 static_cast<double>(cstats.total_us()));
        lfp_outside_us_.push_back(spans.DurationUs(lfp) -
                                  static_cast<double>(estats.t_total_us));
      }
    }
    spans.End(root);
    const auto t1 = Clock::now();
    Count(ok);
    if (record) log_.traced_read_us.push_back(Micros(t1 - t0));
  }

  void WritePair(bool record, bool trace) {
    Write(record, trace, &log_.write_us, [&] {
      return tb_->AddFacts(spec_.write_pred, {spec_.write_row}).ok();
    });
    Write(record, trace, &log_.delete_us, [&] {
      auto r = tb_->ExecuteSql(spec_.delete_sql);
      return r.ok() && r->rows_affected == 1;
    });
  }

  template <typename F>
  void Write(bool record, bool trace, std::vector<double>* latencies,
             F&& call) {
    SpanLog& spans = log_.spans;
    const uint64_t req = ++request_;
    int32_t root = -1, inner = -1;
    const auto t0 = Clock::now();
    if (trace) {
      root = spans.Begin(req, -1, "write");
      inner = spans.Begin(req, root, "testbed");
    }
    const bool ok = call();
    if (trace) {
      spans.End(inner);
      spans.End(root);
    }
    const auto t1 = Clock::now();
    Count(ok);
    if (record) latencies->push_back(Micros(t1 - t0));
  }

  void Count(bool ok) {
    ++log_.attempted;
    if (!ok) ++log_.failed;
  }

  const RunConfig& cfg_;
  InProcessSpec spec_;
  std::mt19937_64 rng_;
  std::unique_ptr<Testbed> tb_;
  std::vector<LoadSample> loads_;
  std::vector<QuerySample> samples_;
  std::vector<double> km_outside_us_;
  std::vector<double> lfp_outside_us_;
  ClientLog log_;
  int64_t op_ = 0;
  uint64_t request_ = 0;
};

void AddQueryLayerMetrics(const std::vector<QuerySample>& samples,
                          std::vector<Metric>* out) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const QuerySample& s : samples) {
      v.push_back(static_cast<double>(field(s)));
    }
    return Median(v);
  };
  auto sum = [&](auto field) {
    double total = 0;
    for (const QuerySample& s : samples) {
      total += static_cast<double>(field(s));
    }
    return total;
  };
  using S = QuerySample;
  out->push_back(
      {"km.compile_us", med([](const S& s) { return s.compile.total_us(); }),
       "us"});
  out->push_back({"km.t_setup_us",
                  med([](const S& s) { return s.compile.t_setup_us; }), "us"});
  out->push_back({"km.t_extract_us",
                  med([](const S& s) { return s.compile.t_extract_us; }),
                  "us"});
  out->push_back({"km.t_read_us",
                  med([](const S& s) { return s.compile.t_read_us; }), "us"});
  out->push_back({"km.t_analyze_us",
                  med([](const S& s) { return s.compile.t_analyze_us; }),
                  "us"});
  out->push_back(
      {"km.t_eol_us", med([](const S& s) { return s.compile.t_eol_us; }),
       "us"});
  out->push_back(
      {"km.t_sem_us", med([](const S& s) { return s.compile.t_sem_us; }),
       "us"});
  out->push_back(
      {"km.t_gen_us", med([](const S& s) { return s.compile.t_gen_us; }),
       "us"});
  out->push_back({"km.t_comp_us",
                  med([](const S& s) { return s.compile.t_comp_us; }), "us"});
  out->push_back({"km.rules_relevant",
                  med([](const S& s) { return s.compile.rules_relevant; }),
                  "count"});
  out->push_back(
      {"magic.t_opt_us", med([](const S& s) { return s.compile.t_opt_us; }),
       "us"});
  out->push_back({"lfp.exec_us",
                  med([](const S& s) { return s.exec.t_total_us; }), "us"});
  out->push_back({"lfp.t_temp_us",
                  med([](const S& s) { return s.exec.t_temp_us; }), "us"});
  out->push_back(
      {"lfp.t_rhs_us", med([](const S& s) { return s.exec.t_rhs_us; }), "us"});
  out->push_back({"lfp.t_term_us",
                  med([](const S& s) { return s.exec.t_term_us; }), "us"});
  out->push_back({"lfp.t_final_us",
                  med([](const S& s) { return s.exec.t_final_us; }), "us"});
  out->push_back({"lfp.iterations",
                  med([](const S& s) { return s.exec.iterations; }), "count"});
  out->push_back({"lfp.delta_tuples",
                  med([](const S& s) { return s.delta_tuples; }), "count"});
  const double n = static_cast<double>(samples.size());
  const double statements = sum([](const S& s) { return s.db.statements; });
  const double scanned = sum([](const S& s) { return s.db.rows_scanned; });
  out->push_back({"exec.statements_per_query", Ratio(statements, n), "count"});
  out->push_back({"exec.rows_scanned_per_answer",
                  Ratio(scanned, sum([](const S& s) { return s.answers; })),
                  "ratio"});
  out->push_back(
      {"exec.index_probes_per_query",
       Ratio(sum([](const S& s) { return s.db.index_probes; }), n), "count"});
  out->push_back(
      {"exec.join_rows_per_query",
       Ratio(sum([](const S& s) { return s.db.join_output_rows; }), n),
       "count"});
  out->push_back({"exec.rows_per_batch",
                  Ratio(scanned, sum([](const S& s) { return s.db.batches; })),
                  "ratio"});
  out->push_back(
      {"rdbms.statement_cache_hit_ratio",
       Ratio(sum([](const S& s) { return s.db.statement_cache_hits; }),
             statements),
       "ratio"});
  out->push_back({"testbed.unattributed_us", med([](const S& s) {
                    return s.total_us - s.compile.total_us() -
                           s.exec.t_total_us;
                  }),
                  "us"});
}

/// Metrics every per-layer report carries; the workload-specific emitters
/// fill the ones on their path and this fills the rest with 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"km.compile_us", "us"},
      {"km.t_setup_us", "us"},
      {"km.t_extract_us", "us"},
      {"km.t_read_us", "us"},
      {"km.t_analyze_us", "us"},
      {"km.t_eol_us", "us"},
      {"km.t_sem_us", "us"},
      {"km.t_gen_us", "us"},
      {"km.t_comp_us", "us"},
      {"km.rules_relevant", "count"},
      {"magic.t_opt_us", "us"},
      {"km.update_us", "us"},
      {"km.update.t_extract_us", "us"},
      {"km.update.t_tc_us", "us"},
      {"km.update.t_typecheck_us", "us"},
      {"km.update.t_dict_us", "us"},
      {"km.update.t_store_us", "us"},
      {"datalog.consult_us", "us"},
      {"testbed.load_us", "us"},
      {"testbed.load_rows_per_s", "1/s"},
      {"lfp.exec_us", "us"},
      {"lfp.t_temp_us", "us"},
      {"lfp.t_rhs_us", "us"},
      {"lfp.t_term_us", "us"},
      {"lfp.t_final_us", "us"},
      {"lfp.iterations", "count"},
      {"lfp.delta_tuples", "count"},
      {"exec.statements_per_query", "count"},
      {"exec.rows_scanned_per_answer", "ratio"},
      {"exec.index_probes_per_query", "count"},
      {"exec.join_rows_per_query", "count"},
      {"exec.rows_per_batch", "ratio"},
      {"rdbms.statement_cache_hit_ratio", "ratio"},
      {"testbed.unattributed_us", "us"},
      {"storage.wal_appends_per_write", "count"},
      {"storage.wal_bytes_per_user_byte", "ratio"},
      {"storage.wal_fsyncs", "count"},
      {"storage.vacuumed_rows", "count"},
      {"net.request_us", "us"},
      {"net.queue_us", "us"},
      {"net.decode_us", "us"},
      {"net.execute_us", "us"},
      {"net.encode_us", "us"},
      {"net.bytes_out_per_read", "B"},
      {"net.server_start_us", "us"},
      {"client.transport_us", "us"},
      {"client.connect_us", "us"},
      {"common.interner_size", "count"},
      {"span.bench.self_us", "us"},
      {"span.km.self_us", "us"},
      {"span.lfp.self_us", "us"},
      {"span.client.self_us", "us"},
      {"span.testbed.self_us", "us"},
      {"span.km.outside_phases_us", "us"},
      {"span.lfp.outside_phases_us", "us"},
      {"trace.spans", "count"},
      {"trace.untraced_p50_us", "us"},
      {"trace.traced_p50_us", "us"},
      {"trace.overhead_us", "us"},
      {"trace.accounted_us", "us"},
      {"trace.residual_us", "us"},
  };
  return names;
}

/// Orders `found` by PerLayerNames() and fills the missing ones with 0.
std::vector<Metric> CompletePerLayer(const std::vector<Metric>& found) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerNames()) {
    Metric m{name, 0.0, unit};
    for (const Metric& f : found) {
      if (f.name == name) m.value = f.value;
    }
    out.push_back(m);
  }
  return out;
}

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> info;  // printed as comments, not in the JSON line
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// The end-to-end metrics of a timed window: the ones BENCHMARK.json bounds,
/// and in `info` figures that are printed but not bounded, because on a
/// shared host they moved with the neighbours' load far more than the
/// bounded ones did (README.md, "End-to-end metrics").
std::vector<Metric> EndToEnd(const std::vector<const ClientLog*>& logs,
                             double setup_s, double window_s, double cpu_s,
                             std::vector<Metric>* info) {
  std::vector<double> reads, writes, deletes;
  for (const ClientLog* log : logs) {
    reads.insert(reads.end(), log->read_us.begin(), log->read_us.end());
    writes.insert(writes.end(), log->write_us.begin(), log->write_us.end());
    deletes.insert(deletes.end(), log->delete_us.begin(),
                   log->delete_us.end());
  }
  const double ops =
      static_cast<double>(reads.size() + writes.size() + deletes.size());
  *info = {
      {"query_p50_us", Median(reads), "us"},
      {"queries_per_s", Ratio(static_cast<double>(reads.size()), window_s),
       "1/s"},
      {"write_p50_us", Median(writes), "us"},
      {"delete_p50_us", Median(deletes), "us"},
      {"delete_p90_us", Quantile(deletes, 0.9), "us"},
      {"cpu_us_per_op", Ratio(cpu_s * 1e6, ops), "us"},
  };
  return {
      {"setup_s", setup_s, "s"},
      {"query_p90_us", Quantile(reads, 0.9), "us"},
      {"write_p90_us", Quantile(writes, 0.9), "us"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

double MedianSetup(const std::vector<LoadSample>& loads) {
  std::vector<double> v;
  for (const LoadSample& l : loads) v.push_back(l.setup_s);
  return Median(v);
}

Outcome RunInProcess(const RunConfig& cfg, InProcessSpec spec) {
  InProcessRunner runner(cfg, std::move(spec));
  runner.SetUp();
  const auto epoch = Clock::now();
  runner.Loop(epoch + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(WarmupSeconds(cfg))),
              /*record=*/false, cfg.trace);
  runner.log().spans.Clear();  // keep the timed window's spans only
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  runner.Loop(start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(cfg.seconds)),
              /*record=*/true, cfg.trace);
  const double window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu_s = CpuSeconds() - cpu0;

  Outcome out;
  const ClientLog& log = runner.log();
  out.attempted = log.attempted;
  out.failed = log.failed;
  if (!cfg.trace) {
    out.metrics = EndToEnd({&log}, MedianSetup(runner.loads()), window_s,
                           cpu_s, &out.info);
    return out;
  }
  std::vector<Metric> found;
  AddLoadMetrics(runner.loads(), &found);
  AddQueryLayerMetrics(runner.samples(), &found);
  const SpanSummary spans = SummarizeSpans({&log.spans});
  const double untraced = Median(log.read_us);
  const double traced = Median(log.traced_read_us);
  double unattributed = 0;
  for (const Metric& m : found) {
    if (m.name == "testbed.unattributed_us") unattributed = m.value;
  }
  const double accounted =
      spans.bench_self + spans.km_self + spans.lfp_self + unattributed;
  found.push_back({"span.bench.self_us", spans.bench_self, "us"});
  found.push_back({"span.km.self_us", spans.km_self, "us"});
  found.push_back({"span.lfp.self_us", spans.lfp_self, "us"});
  found.push_back({"span.testbed.self_us", spans.testbed_self, "us"});
  found.push_back(
      {"span.km.outside_phases_us", Median(runner.km_outside_us()), "us"});
  found.push_back(
      {"span.lfp.outside_phases_us", Median(runner.lfp_outside_us()), "us"});
  found.push_back({"trace.spans", static_cast<double>(spans.spans), "count"});
  found.push_back({"trace.untraced_p50_us", untraced, "us"});
  found.push_back({"trace.traced_p50_us", traced, "us"});
  found.push_back({"trace.overhead_us", traced - untraced, "us"});
  found.push_back({"trace.accounted_us", accounted, "us"});
  found.push_back({"trace.residual_us", untraced - accounted, "us"});
  found.push_back({"common.interner_size",
                   static_cast<double>(dkb::metrics::GlobalMetrics()
                                           .gauge("dkb.common.interner_size")
                                           .value()),
                   "count"});
  WriteSpans(cfg, {&log.spans}, epoch);
  out.metrics = CompletePerLayer(found);
  return out;
}

// ---------------------------------------------------------------------------
// served_readwrite: net::Server on loopback in this process, kClients
// RemoteClient connections, each a closed loop of magic-set reads with a
// write pair every kWriteEvery-th operation.

constexpr int kClients = 2;

struct ServedShape {
  int depth;          // the tree
  int subtree_depth;  // every read is bound at the root of one of these
};

ServedShape ServedShapeFor(const RunConfig& cfg) {
  return cfg.tiny ? ServedShape{7, 3} : ServedShape{12, 4};
}

std::string WalDir(const RunConfig& cfg) { return cfg.out_dir + "/wal"; }

std::unique_ptr<Testbed> SetUpServed(const RunConfig& cfg,
                                     const std::vector<Tuple>& rows,
                                     LoadSample* load) {
  // The previous repetition's testbed is closed: start from an empty log.
  std::filesystem::remove_all(WalDir(cfg));
  std::filesystem::create_directories(WalDir(cfg));
  TestbedOptions o;
  // Stated flush policy: WAL on, group commit on, no fsync.
  o.WithWalDir(WalDir(cfg)).WithWalFsync(false).WithWalGroupCommit(true);
  return SetUpAncestor(o, rows, load);
}

/// One served client's closed loop.
class ServedClient {
 public:
  ServedClient(const RunConfig& cfg, int index, std::string host_port)
      : index_(index),
        rng_(cfg.seed * 1000003 + static_cast<uint64_t>(index)),
        host_port_(std::move(host_port)) {
    const ServedShape shape = ServedShapeFor(cfg);
    const int level = shape.depth - shape.subtree_depth;
    first_node_ = (int64_t{1} << level) - 1;
    nodes_ = int64_t{1} << level;
    expected_rows_ = (int64_t{1} << shape.subtree_depth) - 2;
    const std::string a = "w" + std::to_string(index) + "_a";
    const std::string b = "w" + std::to_string(index) + "_b";
    write_row_ = {Value(a), Value(b)};
    delete_sql_ = "DELETE FROM " + dkb::km::EdbTableName("parent") +
                  " WHERE c0 = '" + a + "' AND c1 = '" + b + "'";
  }

  double Connect() {
    const auto t0 = Clock::now();
    client_ = Take(dkb::RemoteClient::Connect(host_port_), "Connect");
    return Micros(Clock::now() - t0);
  }

  void Loop(Clock::time_point until, bool record, bool trace) {
    while (Clock::now() < until) {
      const int64_t i = op_++;
      if (i % kWriteEvery == kWriteEvery - 1) {
        Write(record, trace, &log_.write_us, [&] {
          return client_->AddFacts("parent", {write_row_}).ok();
        });
        if (record) {
          for (const Value& v : write_row_) {
            log_.user_bytes += static_cast<int64_t>(v.as_string().size());
          }
        }
        Write(record, trace, &log_.delete_us, [&] {
          auto r = client_->ExecuteSql(delete_sql_);
          return r.ok() && r->rows_affected == 1;
        });
        continue;
      }
      Read(record, trace && (i & 1));
    }
  }

  void Disconnect() { client_.reset(); }
  ClientLog& log() { return log_; }

 private:
  void Read(bool record, bool traced) {
    const int64_t node = first_node_ + static_cast<int64_t>(rng_() % nodes_);
    const std::string goal =
        dkb::workload::AncestorQuery(dkb::workload::TreeNodeName(0, node))
            .ToString();
    const uint64_t req = NextRequest();
    int32_t root = -1, inner = -1;
    const auto t0 = Clock::now();
    if (traced) {
      root = log_.spans.Begin(req, -1, "read");
      inner = log_.spans.Begin(req, root, "client");
    }
    auto rs = client_->Query(goal, QueryOptions::Magic(),
                             dkb::net::kReportNone);
    if (traced) log_.spans.End(inner);
    const bool ok =
        rs.ok() && static_cast<int64_t>(rs->rows.size()) == expected_rows_;
    if (traced) log_.spans.End(root);
    const auto t1 = Clock::now();
    Count(ok);
    if (!record) return;
    (traced ? log_.traced_read_us : log_.read_us).push_back(Micros(t1 - t0));
    if (rs.ok()) {
      log_.compile_us.push_back(static_cast<double>(rs->compile_us));
      log_.exec_us.push_back(static_cast<double>(rs->exec_us));
    }
  }

  template <typename F>
  void Write(bool record, bool trace, std::vector<double>* latencies,
             F&& call) {
    const uint64_t req = NextRequest();
    int32_t root = -1, inner = -1;
    const auto t0 = Clock::now();
    if (trace) {
      root = log_.spans.Begin(req, -1, "write");
      inner = log_.spans.Begin(req, root, "client");
    }
    const bool ok = call();
    if (trace) {
      log_.spans.End(inner);
      log_.spans.End(root);
    }
    const auto t1 = Clock::now();
    Count(ok);
    if (record) latencies->push_back(Micros(t1 - t0));
  }

  uint64_t NextRequest() {
    return (static_cast<uint64_t>(index_ + 1) << 40) | ++request_;
  }

  void Count(bool ok) {
    ++log_.attempted;
    if (!ok) ++log_.failed;
  }

  int index_;
  std::mt19937_64 rng_;
  std::string host_port_;
  int64_t first_node_ = 0;
  int64_t nodes_ = 1;
  int64_t expected_rows_ = 0;
  Tuple write_row_;
  std::string delete_sql_;
  std::unique_ptr<dkb::RemoteClient> client_;
  ClientLog log_;
  int64_t op_ = 0;
  uint64_t request_ = 0;
};

/// Exact registry readings (sum/count, never the pow2 quantiles).
struct RegistryReading {
  int64_t count[5] = {};
  int64_t sum[5] = {};
  int64_t wal_bytes = 0;

  static constexpr const char* kNames[5] = {
      "dkb.server.request_us", "dkb.server.queue_us", "dkb.server.decode_us",
      "dkb.server.execute_us", "dkb.server.encode_us"};

  static RegistryReading Take() {
    dkb::metrics::MetricsRegistry& reg = dkb::metrics::GlobalMetrics();
    RegistryReading r;
    for (int i = 0; i < 5; ++i) {
      const dkb::metrics::Histogram& h = reg.histogram(kNames[i]);
      r.count[i] = h.count();
      r.sum[i] = h.sum();
    }
    r.wal_bytes = reg.counter("dkb.wal.bytes").value();
    return r;
  }

  double MeanSince(const RegistryReading& before, int i) const {
    return Ratio(static_cast<double>(sum[i] - before.sum[i]),
                 static_cast<double>(count[i] - before.count[i]));
  }
};

/// Runs every client's Loop on its own thread until `until`.
void RunClients(std::vector<std::unique_ptr<ServedClient>>& clients,
                Clock::time_point until, bool record, bool trace) {
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back(
        [&c, until, record, trace] { c->Loop(until, record, trace); });
  }
  for (std::thread& t : threads) t.join();
}

Outcome RunServed(const RunConfig& cfg) {
  const std::vector<Tuple> rows =
      dkb::workload::MakeFullBinaryTrees(1, ServedShapeFor(cfg).depth)
          .ToTuples();
  std::vector<LoadSample> loads;
  std::unique_ptr<Testbed> tb = RepeatSetUp(
      cfg, [&](LoadSample* load) { return SetUpServed(cfg, rows, load); },
      &loads);

  // Server start and connection handshakes stay out of setup_s.
  dkb::net::Server server;
  const auto s0 = Clock::now();
  Check(server.Start(tb.get()), "Server::Start");
  const double server_start_us = Micros(Clock::now() - s0);
  const std::string host_port = "127.0.0.1:" + std::to_string(server.port());
  std::vector<std::unique_ptr<ServedClient>> clients;
  std::vector<double> connect_us;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<ServedClient>(cfg, i, host_port));
    connect_us.push_back(clients.back()->Connect());
  }

  const auto epoch = Clock::now();
  RunClients(clients,
             epoch + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(WarmupSeconds(cfg))),
             /*record=*/false, cfg.trace);
  for (auto& c : clients) c->log().spans.Clear();
  const RegistryReading reg0 = RegistryReading::Take();
  const Testbed::WalInfo wal0 = tb->WalSnapshot();
  const int64_t vacuumed0 = tb->vacuumed_rows();
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  RunClients(clients,
             start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds)),
             /*record=*/true, cfg.trace);
  const double window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu_s = CpuSeconds() - cpu0;
  const RegistryReading reg1 = RegistryReading::Take();
  const Testbed::WalInfo wal1 = tb->WalSnapshot();
  const int64_t vacuumed1 = tb->vacuumed_rows();
  const std::vector<dkb::testbed::QueryLogEntry> entries =
      tb->recorder().Snapshot();

  for (auto& c : clients) c->Disconnect();
  server.Stop();

  Outcome out;
  std::vector<const ClientLog*> logs;
  std::vector<const SpanLog*> span_logs;
  for (auto& c : clients) {
    logs.push_back(&c->log());
    span_logs.push_back(&c->log().spans);
    out.attempted += c->log().attempted;
    out.failed += c->log().failed;
  }
  tb.reset();
  std::filesystem::remove_all(WalDir(cfg));
  if (!cfg.trace) {
    out.metrics =
        EndToEnd(logs, MedianSetup(loads), window_s, cpu_s, &out.info);
    return out;
  }

  std::vector<Metric> found;
  AddLoadMetrics(loads, &found);
  std::vector<double> untraced, traced, compile, exec, all_requests;
  int64_t writes = 0;
  int64_t user_bytes = 0;
  for (const ClientLog* log : logs) {
    untraced.insert(untraced.end(), log->read_us.begin(), log->read_us.end());
    traced.insert(traced.end(), log->traced_read_us.begin(),
                  log->traced_read_us.end());
    compile.insert(compile.end(), log->compile_us.begin(),
                   log->compile_us.end());
    exec.insert(exec.end(), log->exec_us.begin(), log->exec_us.end());
    for (const auto* v : {&log->read_us, &log->traced_read_us,
                          &log->write_us, &log->delete_us}) {
      all_requests.insert(all_requests.end(), v->begin(), v->end());
    }
    writes += static_cast<int64_t>(log->write_us.size() +
                                   log->delete_us.size());
    user_bytes += log->user_bytes;
  }
  // Per-phase compile/execute timings of the last reads the flight recorder
  // kept (its ring holds the most recent queries).
  std::vector<double> phase_sum[16];
  const char* phase_names[] = {"t_setup", "t_extract", "t_read", "t_analyze",
                               "t_opt",   "t_eol",     "t_sem",  "t_gen",
                               "t_comp",  "t_temp",    "t_rhs",  "t_term",
                               "t_final"};
  constexpr int kPhases = 13;
  std::vector<double> iterations, deltas, unattributed, bytes_out;
  for (const dkb::testbed::QueryLogEntry& e : entries) {
    if (!e.executed || e.session_id == 0) continue;
    double phases_total = 0;
    for (int p = 0; p < kPhases; ++p) {
      double v = 0;
      for (const dkb::testbed::PhaseTiming& t : e.phases) {
        if (t.name == phase_names[p]) v = static_cast<double>(t.micros);
      }
      phase_sum[p].push_back(v);
      phases_total += v;
    }
    iterations.push_back(static_cast<double>(e.iterations));
    double d = 0;
    for (const auto& it : e.lfp_iterations) d += static_cast<double>(it.delta_rows);
    deltas.push_back(d);
    unattributed.push_back(static_cast<double>(e.total_us) - phases_total);
    if (e.bytes_sent > 0) bytes_out.push_back(static_cast<double>(e.bytes_sent));
  }
  const char* km_names[] = {"km.t_setup_us", "km.t_extract_us",
                            "km.t_read_us",  "km.t_analyze_us",
                            "magic.t_opt_us", "km.t_eol_us",
                            "km.t_sem_us",   "km.t_gen_us",
                            "km.t_comp_us",  "lfp.t_temp_us",
                            "lfp.t_rhs_us",  "lfp.t_term_us",
                            "lfp.t_final_us"};
  for (int p = 0; p < kPhases; ++p) {
    found.push_back({km_names[p], Median(phase_sum[p]), "us"});
  }
  found.push_back({"km.compile_us", Median(compile), "us"});
  found.push_back({"lfp.exec_us", Median(exec), "us"});
  found.push_back({"lfp.iterations", Median(iterations), "count"});
  found.push_back({"lfp.delta_tuples", Median(deltas), "count"});
  found.push_back({"testbed.unattributed_us", Median(unattributed), "us"});
  found.push_back({"net.bytes_out_per_read", Median(bytes_out), "B"});

  const char* net_names[] = {"net.request_us", "net.queue_us", "net.decode_us",
                             "net.execute_us", "net.encode_us"};
  for (int i = 0; i < 5; ++i) {
    found.push_back({net_names[i], reg1.MeanSince(reg0, i), "us"});
  }
  double client_mean = 0;
  for (double v : all_requests) client_mean += v;
  client_mean = Ratio(client_mean, static_cast<double>(all_requests.size()));
  const double request_mean = reg1.MeanSince(reg0, 0);
  found.push_back({"client.transport_us", client_mean - request_mean, "us"});
  found.push_back({"client.connect_us", Median(connect_us), "us"});
  found.push_back({"net.server_start_us", server_start_us, "us"});

  found.push_back({"storage.wal_appends_per_write",
                   Ratio(static_cast<double>(wal1.appends - wal0.appends),
                         static_cast<double>(writes)),
                   "count"});
  found.push_back(
      {"storage.wal_bytes_per_user_byte",
       Ratio(static_cast<double>(reg1.wal_bytes - reg0.wal_bytes),
             static_cast<double>(user_bytes)),
       "ratio"});
  found.push_back({"storage.wal_fsyncs",
                   static_cast<double>(wal1.fsyncs - wal0.fsyncs), "count"});
  found.push_back({"storage.vacuumed_rows",
                   static_cast<double>(vacuumed1 - vacuumed0), "count"});

  const SpanSummary spans = SummarizeSpans(span_logs);
  const double untraced_p50 = Median(untraced);
  const double traced_p50 = Median(traced);
  const double accounted =
      spans.bench_self + (client_mean - request_mean) + request_mean;
  found.push_back({"span.bench.self_us", spans.bench_self, "us"});
  found.push_back({"span.client.self_us", spans.client_self, "us"});
  found.push_back({"trace.spans", static_cast<double>(spans.spans), "count"});
  found.push_back({"trace.untraced_p50_us", untraced_p50, "us"});
  found.push_back({"trace.traced_p50_us", traced_p50, "us"});
  found.push_back({"trace.overhead_us", traced_p50 - untraced_p50, "us"});
  found.push_back({"trace.accounted_us", accounted, "us"});
  found.push_back({"trace.residual_us", untraced_p50 - accounted, "us"});
  found.push_back({"common.interner_size",
                   static_cast<double>(dkb::metrics::GlobalMetrics()
                                           .gauge("dkb.common.interner_size")
                                           .value()),
                   "count"});
  WriteSpans(cfg, span_logs, epoch);
  out.metrics = CompletePerLayer(found);
  return out;
}

// ---------------------------------------------------------------------------
// One vCPU at a time. On a shared host the hypervisor steals more of a
// guest's time the more of its vCPUs are busy, and a request that hands off
// between threads on two vCPUs stalls whenever either is descheduled. So
// every thread of the run (the testbed's and the server's included) shares
// one vCPU; to average over the neighbours each vCPU has, that vCPU moves to
// the next allowed one every kRotateMs.

constexpr int kRotateMs = 500;

class CpuRotator {
 public:
  CpuRotator() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
      }
    }
    if (cpus_.empty()) return;
    // Before any other thread exists, so every later thread inherits it.
    PinThread(0, cpus_[0]);
    if (cpus_.size() > 1) thread_ = std::thread([this] { Run(); });
  }

  ~CpuRotator() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  int cpus() const { return static_cast<int>(cpus_.size()); }

 private:
  static void PinThread(pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof(one), &one);  // a thread may have exited
  }

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t next = 1;; ++next) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(kRotateMs),
                       [this] { return stop_; })) {
        return;
      }
      const int cpu = cpus_[next % cpus_.size()];
      std::error_code ec;
      for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
           !ec && it != end; it.increment(ec)) {
        PinThread(static_cast<pid_t>(std::strtol(
                      it->path().filename().c_str(), nullptr, 10)),
                  cpu);
      }
    }
  }

  std::vector<int> cpus_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// ---------------------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else if (arg == "--git") {
      cfg.git = value();
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (cfg.out_dir.empty()) Die("--out DIR is required");
  if (!(cfg.seconds > 0)) Die("--seconds must be positive");
  return cfg;
}

int Main(int argc, char** argv) {
  const RunConfig cfg = ParseArgs(argc, argv);
  CpuRotator rotator;
  std::filesystem::create_directories(cfg.out_dir);
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%s trace=%d tiny=%d "
      "nproc=%u vcpus=%d rotate_ms=%d pool_threads=%zu build=%s git=%s "
      "loadavg_start=%s\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      Number(cfg.seconds).c_str(), cfg.trace ? 1 : 0, cfg.tiny ? 1 : 0,
      std::thread::hardware_concurrency(), rotator.cpus(), kRotateMs,
      dkb::GlobalParallelismPolicy().ResolvedThreads(), PERFBENCH_BUILD_TYPE,
      cfg.git.c_str(), LoadAvg().c_str());

  Outcome outcome;
  if (cfg.workload == "closure_tree") {
    outcome = RunInProcess(cfg, ClosureTreeSpec(cfg));
  } else if (cfg.workload == "rulebase_compile") {
    outcome = RunInProcess(cfg, RuleBaseSpec(cfg));
  } else if (cfg.workload == "served_readwrite") {
    outcome = RunServed(cfg);
  } else {
    Die("unknown workload '" + cfg.workload + "'");
  }

  std::printf("# loadavg_end=%s\n", LoadAvg().c_str());
  for (const Metric& m : outcome.info) {
    std::printf("# %-32s %16.3f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : outcome.metrics) {
    std::printf("%-34s %16.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %16.6f %s\n", "error_rate",
              Ratio(static_cast<double>(outcome.failed),
                    static_cast<double>(outcome.attempted)),
              "ratio");
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
