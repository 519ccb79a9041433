// Section 5.2 supplement: the paper characterizes base relations by their
// directed-graph shape (lists, full binary trees, DAGs, cyclic graphs) and
// notes that "the results will obviously be different for other queries and
// data types". This bench runs the same ancestor query across all four data
// types at comparable tuple counts.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

struct DataCase {
  std::string name;
  workload::EdgeSet edges;
  std::string root;
};

void Run() {
  Banner("Section 5.2 - D/KB data characterization",
         "SIGMOD'88 D/KB testbed, Section 5.2 (relation types table)",
         "t_e and iteration counts are shaped by path length and fan-out: "
         "lists iterate longest, trees/DAGs fan out, cycles still terminate");

  const int list_length = SmokeSize(64, 16);
  const int tree_depth = SmokeSize(9, 6);
  const int levels = SmokeSize(16, 6);
  const int kReps = Reps(3, 1);
  std::vector<DataCase> cases;
  cases.push_back({"lists (8 x " + std::to_string(list_length) + ")",
                   workload::MakeLists(8, list_length), "l0_0"});
  cases.push_back({"binary tree (depth " + std::to_string(tree_depth) + ")",
                   workload::MakeFullBinaryTrees(1, tree_depth), "t0_0"});
  cases.push_back({"dag (" + std::to_string(levels) + " levels x 32)",
                   workload::MakeDag(levels, 32, 1, 7), "g0_0"});
  cases.push_back({"cyclic (dag + 8 cycles)",
                   workload::MakeCyclicGraph(levels, 32, 1, 8, 4, 7),
                   "g0_0"});

  TablePrinter table({"data_type", "tuples", "answers", "iterations",
                      "t_e_seminaive", "t_e_magic"});
  for (DataCase& dc : cases) {
    auto tb = Unwrap(testbed::Testbed::Create(), "create");
    CheckOk(tb->Consult(workload::AncestorRules()), "consult");
    CheckOk(tb->DefineBase("parent",
                           {DataType::kVarchar, DataType::kVarchar}),
            "define");
    CheckOk(tb->AddFacts("parent", dc.edges.ToTuples()), "facts");
    datalog::Atom goal = workload::AncestorQuery(dc.root);

    testbed::QueryOptions semi = testbed::QueryOptions::SemiNaive();
    testbed::QueryOptions magic = testbed::QueryOptions::Magic();
    size_t answers = 0;
    int64_t iterations = 0;
    int64_t t_semi = MedianMicros(kReps, [&]() {
      auto outcome = Unwrap(tb->Query(goal, semi), "query");
      answers = outcome.result.rows.size();
      iterations = outcome.report.exec.iterations;
      return outcome.report.exec.t_total_us;
    });
    int64_t t_magic = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, magic), "magic query").report.exec.t_total_us;
    });
    table.AddRow({Label(dc.name),
                  Count(static_cast<int64_t>(dc.edges.num_tuples())),
                  Count(static_cast<int64_t>(answers)), Count(iterations),
                  Us(t_semi), Us(t_magic)});
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
