// Test 8 / Figure 15: Stored-DKB update time t_u versus the total number of
// stored rules R_s, with and without compiled rule-storage structures.

#include <chrono>

#include "bench_setup.h"

namespace dkb::bench {
namespace {

/// Average time of one single-rule update, measured over a batch. Each
/// UpdateStoredDkb call is timed here with a nanosecond clock: a source-only
/// update's phases are each under a microsecond, so the whole-microsecond
/// phase timings of its UpdateStats add up to 0.
double AvgSingleRuleUpdateUs(bool compiled, int rs) {
  StoredRuleBaseFixture fx =
      MakeStoredRuleBase(rs, /*relevant_rules=*/3, /*rules_per_pred=*/1,
                         compiled);
  const int kBatch = Reps(40, 5);
  // Pre-define the base predicates outside the timed region.
  for (int i = 0; i < kBatch; ++i) {
    CheckOk(fx.tb->DefineBase("b_upd" + std::to_string(i),
                              {DataType::kVarchar, DataType::kVarchar}),
            "DefineBase");
  }
  std::chrono::steady_clock::duration total{};
  for (int i = 0; i < kBatch; ++i) {
    std::string pred = "upd" + std::to_string(i);
    CheckOk(fx.tb->AddRule(pred + "(X,Y) :- b_" + pred + "(X,Y)."),
            "AddRule");
    const auto start = std::chrono::steady_clock::now();
    Unwrap(fx.tb->UpdateStoredDkb(), "UpdateStoredDkb");
    total += std::chrono::steady_clock::now() - start;
    fx.tb->ClearWorkspace();
  }
  return std::chrono::duration<double, std::micro>(total).count() / kBatch;
}

void Run() {
  Banner("Test 8 / Figure 15 - t_u vs R_s, with/without compiled storage",
         "SIGMOD'88 D/KB testbed, Section 5.3.2 Test 8, Figure 15",
         "updates are roughly an order of magnitude faster without compiled "
         "rule storage; t_u is insensitive to R_s in both modes");

  TablePrinter table({"R_s", "t_u_compiled_us", "t_u_source_only_us",
                      "ratio"});
  for (int rs : Sweep({9, 25, 50, 100, 189, 400})) {
    double tc = AvgSingleRuleUpdateUs(/*compiled=*/true, rs);
    double ts = AvgSingleRuleUpdateUs(/*compiled=*/false, rs);
    table.AddRow({Count(rs), Us(tc, 1), Us(ts, 1), Ratio(tc / ts, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
