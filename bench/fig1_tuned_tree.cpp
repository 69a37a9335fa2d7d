// Reproduces paper Figure 1: the model-tuned reduction tree for 64 cores
// on KNL in cache mode (one thread per core -> 32 tile leaders in the
// inter-tile tree, flat stage inside each tile). Prints the tree, its
// per-level fanouts, and the model prediction; also prints the broadcast
// tree for comparison.
#include <iostream>

#include "bench_common.hpp"
#include "model/fit.hpp"
#include "model/tree_opt.hpp"

using namespace capmem;
using namespace capmem::sim;
using namespace capmem::model;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  obs::Session obs(cli, argc, argv);
  const int iters =
      static_cast<int>(cli.get_int("iters", 31, "suite iterations"));
  const std::string mode_s =
      cli.get_string("mode", "QUAD", "cluster mode (paper fig: cache mode)");
  const int jobs = cli.get_jobs();
  cli.finish();

  MachineConfig cfg =
      knl7210(cluster_mode_from_string(mode_s), MemoryMode::kCache);
  cfg.scale_memory(64);
  benchbin::observe(obs, cfg);
  obs.set_config("knl7210 " + mode_s + "/cache");
  obs.set_seed(cfg.seed);
  obs.set_jobs(jobs);
  obs.phase("fit");
  bench::SuiteOptions opts;
  opts.run.iters = iters;
  opts.jobs = jobs;
  const CapabilityModel m = fit_cache_model(cfg, opts);

  std::cout << "Fitted model: R_L=" << fmt_num(m.r_local, 1)
            << " R_tile=" << fmt_num(m.r_tile, 0)
            << " R_R=" << fmt_num(m.r_remote, 0)
            << " R_I=" << fmt_num(m.r_mem_dram, 0) << " T_C(N)="
            << fmt_num(m.contention.alpha, 0) << "+"
            << fmt_num(m.contention.beta, 1) << "*N\n\n";

  obs.phase("tune");
  const int tiles = cfg.active_tiles;  // 64 cores, 1 thread/core, 2/tile
  for (TreeKind kind : {TreeKind::kReduce, TreeKind::kBroadcast}) {
    const TunedTree t = optimize_tree(m, tiles, kind, MemKind::kDDR);
    std::cout << "== Model-tuned "
              << (kind == TreeKind::kReduce ? "REDUCE" : "BROADCAST")
              << " tree over " << tiles << " tiles ("
              << to_string(cfg.cluster) << "-cache) ==\n";
    std::cout << "predicted inter-tile cost: " << fmt_num(t.predicted_ns, 0)
              << " ns, depth " << tree_depth(t.root) << ", root fanout "
              << t.root.fanout() << "\n";
    std::cout << render_tree(t.root) << "\n";
  }

  // Fanout profile per subtree size — shows the non-triviality the paper
  // highlights (no regular k-ary/binomial tree matches this).
  Table prof("optimal root fanout vs subtree size (reduce)");
  prof.set_header({"tiles", "fanout", "depth", "predicted ns"});
  for (int n : {2, 4, 8, 12, 16, 20, 24, 28, 32, 38}) {
    const TunedTree t = optimize_tree(m, n, TreeKind::kReduce, MemKind::kDDR);
    prof.add_row({fmt_num(n, 0), fmt_num(t.root.fanout(), 0),
                  fmt_num(tree_depth(t.root), 0),
                  fmt_num(t.predicted_ns, 0)});
  }
  benchbin::emit(prof);
  return 0;
}
