// E5: Tesseract vs. a conventional out-of-order multicore on the five
// graph workloads (paper: 13.8x average speedup, 87% average energy
// reduction), plus prefetcher and partitioning ablations. Results are
// also written to BENCH_tesseract.json for cross-commit tracking.
#include <iostream>

#include "common/config.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "common/table.h"
#include "tesseract/baseline.h"
#include "tesseract/sim.h"

int main(int argc, char** argv) {
  using namespace pim;
  const config cfg = config::from_args({argv + 1, argv + argc});
  const int scale = static_cast<int>(cfg.get_int("scale", 18));
  const int degree = static_cast<int>(cfg.get_int("degree", 8));

  rng gen(42);
  const auto g = graph::rmat(scale, degree, gen, /*weighted=*/true,
                             0.45, 0.22, 0.22);
  std::cout << "=== E5: Tesseract vs conventional (R-MAT scale " << scale
            << ", V=" << g.num_vertices() << ", E=" << g.num_edges()
            << ") ===\n\n";

  // The conventional host is scaled with the graph: vertex state must
  // exceed the LLC, as in the paper's full-size setup. With a graph that
  // fits, the baseline runs from cache and the comparison would price
  // cache hits instead of the memory bandwidth the paper is about.
  cpu::system_config base_cfg = tesseract::conventional_graph_system();
  base_cfg.llc = cpu::cache_config{"LLC", 2 * mib, 16, 64};

  json_writer json;
  json.begin_object();
  json.key("bench").value("tesseract");
  json.key("scale").value(scale);
  json.key("degree").value(degree);

  tesseract::tesseract_system tess;
  table t({"workload", "conventional (ms)", "Tesseract (ms)", "speedup",
           "energy reduction", "imbalance"});
  double speedup_sum = 0;
  double energy_sum = 0;
  int count = 0;
  json.key("workloads").begin_array();
  for (auto& w : graph::tesseract_suite()) {
    const auto tr = tess.run(*w, g);
    const auto br = tesseract::run_baseline(*w, g, base_cfg);
    const double speedup =
        static_cast<double>(br.run.time) / static_cast<double>(tr.time);
    const double reduction = 1.0 - tr.energy.total() / br.run.energy.total();
    t.row()
        .cell(w->name())
        .cell(static_cast<double>(br.run.time) / 1e9)
        .cell(static_cast<double>(tr.time) / 1e9, 3)
        .cell(speedup, 1)
        .cell(format_double(reduction * 100.0, 1) + "%")
        .cell(tr.imbalance);
    json.begin_object();
    json.key("workload").value(w->name());
    json.key("conventional_ms").value(static_cast<double>(br.run.time) / 1e9);
    json.key("tesseract_ms").value(static_cast<double>(tr.time) / 1e9);
    json.key("speedup").value(speedup);
    json.key("energy_reduction").value(reduction);
    json.key("imbalance").value(tr.imbalance);
    json.end_object();
    speedup_sum += speedup;
    energy_sum += reduction;
    ++count;
  }
  json.end_array();
  json.key("avg_speedup").value(speedup_sum / count);
  json.key("avg_energy_reduction").value(energy_sum / count);
  t.print(std::cout);
  std::cout << "average speedup: "
            << format_double(speedup_sum / count, 1)
            << "x   (paper: 13.8x)\n";
  std::cout << "average energy reduction: "
            << format_double(energy_sum / count * 100.0, 1)
            << "%   (paper: 87%)\n\n";

  std::cout << "=== Ablation: prefetchers (list + message-triggered) ===\n\n";
  table t2({"workload", "no prefetch (ms)", "with prefetch (ms)", "gain"});
  tesseract::tesseract_config no_pf;
  no_pf.prefetch = false;
  tesseract::tesseract_system tess_no_pf(no_pf);
  for (auto& w : graph::tesseract_suite()) {
    const auto without = tess_no_pf.run(*w, g);
    const auto with = tess.run(*w, g);
    t2.row()
        .cell(w->name())
        .cell(static_cast<double>(without.time) / 1e9, 3)
        .cell(static_cast<double>(with.time) / 1e9, 3)
        .cell(static_cast<double>(without.time) /
                  static_cast<double>(with.time),
              2);
  }
  t2.print(std::cout);

  std::cout << "=== Ablation: vertex partitioning (data mapping) ===\n\n";
  table t3({"partitioning", "PR time (ms)", "imbalance"});
  for (auto policy : {graph::partition::policy::hash,
                      graph::partition::policy::range}) {
    tesseract::tesseract_config pcfg;
    pcfg.partition_policy = policy;
    graph::pagerank pr(10);
    const auto r = tesseract::tesseract_system(pcfg).run(pr, g);
    t3.row()
        .cell(policy == graph::partition::policy::hash ? "hash" : "range")
        .cell(static_cast<double>(r.time) / 1e9, 3)
        .cell(r.imbalance);
  }
  t3.print(std::cout);

  std::cout << "=== Scaling: cubes (memory capacity = compute) ===\n\n";
  table t4({"cubes", "vaults", "PR time (ms)", "speedup vs conventional"});
  graph::pagerank pr_base(10);
  const auto base = tesseract::run_baseline(pr_base, g, base_cfg);
  json.key("cube_scaling").begin_array();
  for (int cubes : {2, 4, 8, 16}) {
    tesseract::tesseract_config scfg;
    scfg.cubes = cubes;
    graph::pagerank pr(10);
    const auto r = tesseract::tesseract_system(scfg).run(pr, g);
    const double speedup =
        static_cast<double>(base.run.time) / static_cast<double>(r.time);
    t4.row()
        .cell(cubes)
        .cell(cubes * 32)
        .cell(static_cast<double>(r.time) / 1e9, 3)
        .cell(speedup, 1);
    json.begin_object();
    json.key("cubes").value(cubes);
    json.key("pagerank_ms").value(static_cast<double>(r.time) / 1e9);
    json.key("speedup_vs_conventional").value(speedup);
    json.end_object();
  }
  json.end_array();
  t4.print(std::cout);

  json.end_object();
  json.write_file("BENCH_tesseract.json");
  std::cout << "\nwrote BENCH_tesseract.json\n";
  return 0;
}
