// Test 9 / Table 8: breakdown of the Stored-DKB update time into its
// components for a large (R_ws = 36) and a minimal (R_ws = 1) workspace,
// against a stored rule base of R_s = 189 rules.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void RunCase(int r_ws, TablePrinter* table) {
  const int kRs = SmokeSize(189, 50);
  // The stored rule base; the workspace rules chain onto its relevant
  // family so the update extraction has real work to do.
  StoredRuleBaseFixture fx = MakeStoredRuleBase(kRs, 12);
  // Bushy workspace (short chains of 3 hanging onto the stored family),
  // keeping the composite closure near the paper's R_c = 137 scale rather
  // than the O(n^2) closure a single long chain would produce.
  for (int i = 0; i < r_ws; ++i) {
    std::string pred = "w" + std::to_string(i);
    std::string body = (i % 3 != 0 && i + 1 < r_ws)
                           ? "w" + std::to_string(i + 1)
                           : fx.rulebase.query_pred;
    CheckOk(fx.tb->AddRule(pred + "(X,Y) :- " + body + "(X,Y)."), "AddRule");
  }
  auto stats = Unwrap(fx.tb->UpdateStoredDkb(), "UpdateStoredDkb");
  double total = static_cast<double>(std::max<int64_t>(1, stats.total_us()));
  table->AddRow({Count(r_ws), Count(kRs), Count(stats.closure_edges),
                 Pct(stats.t_extract_us / total), Pct(stats.t_tc_us / total),
                 Pct(stats.t_typecheck_us / total),
                 Pct(stats.t_dict_us / total), Pct(stats.t_store_us / total),
                 Us(stats.total_us())});
}

void Run() {
  Banner("Test 9 / Table 8 - update time breakdown",
         "SIGMOD'88 D/KB testbed, Section 5.3.2 Test 9, Table 8",
         "extraction of relevant rules dominates small updates (81% at "
         "R_ws=1 vs 42% at R_ws=36 in the paper); storing the source form "
         "is a small share");

  TablePrinter table({"R_ws", "R_s", "closure_edges", "extract", "tc",
                      "typecheck", "dict", "store", "total"});
  RunCase(SmokeSize(36, 6), &table);
  RunCase(1, &table);
  table.Print();
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
