// Graph analytics near memory: run PageRank on the Tesseract PIM
// system and on a conventional multicore, and report the ranks plus
// the performance/energy comparison.
//
//   $ ./examples/graph_pagerank [scale=16] [degree=8]
#include <algorithm>
#include <iostream>

#include "common/config.h"
#include "common/table.h"
#include "tesseract/baseline.h"
#include "tesseract/sim.h"

int main(int argc, char** argv) {
  using namespace pim;
  const config cfg = config::from_args({argv + 1, argv + argc});
  const int scale = static_cast<int>(cfg.get_int("scale", 18));
  const int degree = static_cast<int>(cfg.get_int("degree", 8));

  rng gen(123);
  const auto g =
      graph::rmat(scale, degree, gen, /*weighted=*/false, 0.45, 0.22, 0.22);
  std::cout << "R-MAT graph: " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges\n\n";

  // Run the real algorithm on the Tesseract model.
  graph::pagerank pr(10);
  tesseract::tesseract_system tess;
  const auto tr = tess.run(pr, g);

  // The five highest-ranked vertices.
  std::vector<graph::vertex_id> order(g.num_vertices());
  for (graph::vertex_id v = 0; v < g.num_vertices(); ++v) order[v] = v;
  std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                    [&](graph::vertex_id x, graph::vertex_id y) {
                      return pr.ranks()[x] > pr.ranks()[y];
                    });
  std::cout << "top vertices by rank:\n";
  for (int i = 0; i < 5; ++i) {
    std::cout << "  v" << order[static_cast<std::size_t>(i)] << "  rank "
              << pr.ranks()[order[static_cast<std::size_t>(i)]] << "\n";
  }

  // Conventional baseline. Its LLC is scaled down with the graph so the
  // vertex state still overflows it, as at the paper's full size.
  cpu::system_config base_cfg = tesseract::conventional_graph_system();
  base_cfg.llc = cpu::cache_config{"LLC", 1 * mib, 16, 64};
  graph::pagerank pr2(10);
  const auto br = tesseract::run_baseline(pr2, g, base_cfg);

  std::cout << "\nconventional multicore: "
            << static_cast<double>(br.run.time) / 1e9 << " ms,  "
            << br.run.energy.total() / 1e9 << " mJ\n";
  std::cout << "Tesseract (512 cores):  "
            << static_cast<double>(tr.time) / 1e9 << " ms,  "
            << tr.energy.total() / 1e9 << " mJ\n";
  std::cout << "speedup: "
            << format_double(static_cast<double>(br.run.time) /
                                 static_cast<double>(tr.time),
                             1)
            << "x,  energy reduction: "
            << format_double(
                   (1.0 - tr.energy.total() / br.run.energy.total()) * 100.0,
                   1)
            << "%\n";
  std::cout << "vault load imbalance: " << format_double(tr.imbalance, 2)
            << "x,  cross-cube messages: " << tr.cross_cube_calls << "\n";
  return 0;
}
