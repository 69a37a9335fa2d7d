// The three workloads and their `sim` layer probes (see README.md for the
// make-up of each and why it was chosen).
#include <cstdio>
#include <stdexcept>

#include "capbench.hpp"
#include "checks.hpp"
#include "coll/harness.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exec/seed.hpp"
#include "model/dissemination_opt.hpp"
#include "model/fit.hpp"
#include "model/tree_opt.hpp"
#include "sim/machine.hpp"
#include "sort/parallel_sort.hpp"

namespace capbench {

namespace sim = capmem::sim;
namespace model = capmem::model;
namespace coll = capmem::coll;
using capmem::KiB;
using capmem::MiB;
using capmem::bench::StreamConfig;
using capmem::exec::derive_seed;
using sim::ClusterMode;
using sim::Schedule;

void Tally::mix_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    digest_ = (digest_ ^ b[i]) * 1099511628211ull;
  }
}
void Tally::mix(double v) { mix_bytes(&v, sizeof v); }
void Tally::mix(const std::string& s) { mix_bytes(s.data(), s.size()); }

void Tally::failed_op(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "capbench: operation failed: %s\n", why.c_str());
}

void Tally::check(const std::string& why) {
  if (why.empty()) return;
  if (wrong_++ < 10) std::fprintf(stderr, "capbench: WRONG: %s\n", why.c_str());
}

namespace {

// --- sim layer probes: machines built here through the public Ctx
// kernels (the perf_sim shapes), timed around Machine::run. ---

using Builder = void (*)(sim::Machine&);

void build_triad(sim::Machine& m) {
  // The shape of a paper_streams cell (fig9's 256 KiB arrays, 5 timed
  // iterations, a pool of 4 array sets, caches flushed before each
  // iteration): 16 NT triad threads filling tiles, half on DDR and half on
  // MCDRAM.
  constexpr int kThreads = 16, kPool = 4, kIters = 5;
  constexpr std::uint64_t kBytes = KiB(256);
  const auto slots =
      sim::make_schedule(m.config(), Schedule::kFillTiles, kThreads);
  for (int i = 0; i < kThreads; ++i) {
    const sim::Placement place{i % 2 ? sim::MemKind::kMCDRAM
                                     : sim::MemKind::kDDR,
                               std::nullopt};
    std::vector<sim::Addr> arr;
    for (int k = 0; k < 3 * kPool; ++k) {
      arr.push_back(m.alloc("t" + std::to_string(i) + "." + std::to_string(k),
                            kBytes, place, false));
    }
    m.add_thread(slots[static_cast<std::size_t>(i)],
                 [=](sim::Ctx& ctx) -> sim::Task {
                   for (int it = 0; it < kIters; ++it) {
                     co_await ctx.sync();
                     const std::size_t s = 3 * static_cast<std::size_t>(
                                                   (i + it) % kPool);
                     for (std::size_t k = s; k < s + 3; ++k) {
                       ctx.machine().flush_buffer(arr[k], kBytes, false);
                     }
                     co_await ctx.triad(arr[s], arr[s + 1], arr[s + 2],
                                        kBytes, {.nt = true});
                     co_await ctx.sync();
                   }
                 });
  }
}

void build_barrier(sim::Machine& m) {
  // Dissemination-barrier rounds over per-(thread, stage) flag lines:
  // park/wake and directory transitions.
  constexpr int kThreads = 64, kStages = 6, kIters = 60;
  const sim::Addr flags = m.alloc(
      "flags", std::uint64_t{kThreads} * kStages * capmem::kLineBytes, {},
      true);
  auto flag = [=](int tid, int stage) {
    return flags + (static_cast<std::uint64_t>(tid) * kStages + stage) *
                       capmem::kLineBytes;
  };
  for (int i = 0; i < kThreads; ++i) {
    m.add_thread({.core = i, .smt = 0}, [=](sim::Ctx& ctx) -> sim::Task {
      for (int it = 1; it <= kIters; ++it) {
        for (int k = 0; k < kStages; ++k) {
          co_await ctx.write_u64(flag((i + (1 << k)) % kThreads, k),
                                 static_cast<std::uint64_t>(it));
          co_await ctx.wait_eq(flag(i, k), static_cast<std::uint64_t>(it));
        }
      }
    });
  }
}

void build_mixed(sim::Machine& m) {
  // Random single-line loads, stores and fetch-adds on one shared buffer:
  // the shape of the daemon's simulate cells.
  constexpr std::uint64_t kLines = 4096;
  const sim::Addr buf = m.alloc("shared", kLines * capmem::kLineBytes, {},
                                true);
  for (int i = 0; i < 32; ++i) {
    m.add_thread({.core = i, .smt = 0}, [=](sim::Ctx& ctx) -> sim::Task {
      capmem::Rng rng(0x5bf0315ull * (i + 1));
      for (int op = 0; op < 1500; ++op) {
        const sim::Addr a = buf + rng.next_below(kLines) * capmem::kLineBytes;
        const std::uint64_t kind = rng.next_below(100);
        if (kind < 70) {
          co_await ctx.read_u64(a);
        } else if (kind < 95) {
          co_await ctx.write_u64(a, rng.next_u64());
        } else {
          co_await ctx.fetch_add_u64(a, 1);
        }
      }
    });
  }
}

/// Runs the probe once with a registry attached (for its counts) and three
/// times without, reporting the median host time of Machine::run.
void run_probe(sim::MachineConfig cfg, Builder build, LayerValues& out,
               capmem::obs::Registry& reg) {
  std::vector<double> host;
  std::uint64_t steps = 0;
  for (int rep = 0; rep < 4; ++rep) {
    cfg.metrics = rep == 0 ? &reg : nullptr;
    sim::Machine m(cfg);
    build(m);
    const Clock::time_point t0 = Clock::now();
    m.run();
    if (rep > 0) host.push_back(seconds_since(t0));
    if (rep > 0 && m.engine().steps() != steps) {
      throw std::runtime_error("sim probe is not deterministic");
    }
    steps = m.engine().steps();
  }
  const double s = capmem::median(host);
  out["sim.run.host_s"] = s;
  out["sim.run.steps"] = static_cast<double>(steps);
  out["sim.ns_per_step"] = s * 1e9 / static_cast<double>(steps);
  out["sim.ns_per_line"] = s * 1e9 / reg.counter("sim.mem.line_ops");
}

// --- paper_streams ---

// fig9's array size and iteration count, and table2's cache-mode memory
// scale: the host cost of a simulated line grows with a cell's footprint
// and length, so smaller cells would weigh the simulator differently (see
// README.md, "Cell sizes").
constexpr std::uint64_t kStreamBuffer = KiB(256);
constexpr int kStreamIters = 5;
constexpr std::uint64_t kCacheScale = 64;

const char* stream_span(capmem::bench::StreamOp op) {
  switch (op) {
    case StreamOp::kCopy: return "bench.stream.copy";
    case StreamOp::kRead: return "bench.stream.read";
    case StreamOp::kWrite: return "bench.stream.write";
    case StreamOp::kTriad: return "bench.stream.triad";
  }
  return "bench.stream";
}

class PaperStreams : public Workload {
 public:
  PaperStreams(std::uint64_t seed, const std::string& dir, Tracer* tracer)
      : seed_(seed) {
    serve_ = std::make_unique<ServeSession>(dir, seed, ServeMix{}, tracer);
  }

  void round(const RoundCtx& rc, Tally& t) override {
    sim::MachineConfig flat =
        sim::knl7210(ClusterMode::kSNC4, sim::MemoryMode::kFlat);
    flat.seed = derive_seed(seed_, 10, 0);
    flat.metrics = rc.sim_reg;
    sim::MachineConfig cache =
        sim::knl7210(ClusterMode::kQuadrant, sim::MemoryMode::kCache);
    cache.scale_memory(kCacheScale);
    cache.seed = derive_seed(seed_, 10, 1);
    cache.metrics = rc.sim_reg;
    stream_gb_ = 0;
    for (StreamOp op : {StreamOp::kCopy, StreamOp::kRead, StreamOp::kWrite,
                        StreamOp::kTriad}) {
      {
        Scope span(rc.tracer, stream_span(op));
        for (MemKind kind : {MemKind::kDDR, MemKind::kMCDRAM}) {
          sweep(flat, op, kind, {1, 16}, t);
        }
      }
      rc.lap();
    }
    {
      // MCDRAM needs every core to reach its peak (fig9); DDR saturates
      // from 8 threads.
      Scope span(rc.tracer, "bench.stream.triad");
      sweep(flat, StreamOp::kTriad, MemKind::kMCDRAM, {64}, t);
    }
    rc.lap();
    Scope span(rc.tracer, "bench.stream.cache_mode");
    sweep(cache, StreamOp::kTriad, MemKind::kDDR, {16}, t);
  }

  void layer_values(const Tracer& tr, std::size_t from,
                    LayerValues& out) const override {
    double host = 0;
    for (const char* name :
         {"bench.stream.copy", "bench.stream.read", "bench.stream.write",
          "bench.stream.triad", "bench.stream.cache_mode"}) {
      out[std::string(name) + ".host_s"] = tr.total(name, from);
      host += tr.total(name, from);
    }
    out["bench.stream.sim_gb_per_host_s"] = stream_gb_ / host;
  }

  void sim_probe(LayerValues& out, capmem::obs::Registry& reg) const override {
    run_probe(sim::knl7210(ClusterMode::kSNC4, sim::MemoryMode::kFlat),
              build_triad, out, reg);
  }

 private:
  void sweep(const sim::MachineConfig& cfg, StreamOp op, MemKind kind,
             const std::vector<int>& threads, Tally& t) {
    StreamConfig sc;
    sc.kind = kind;
    sc.sched = Schedule::kFillTiles;
    sc.nt = true;
    sc.run.iters = kStreamIters;
    sc.run.seed = derive_seed(seed_, 11, static_cast<int>(op));
    sc.buffer_bytes = kStreamBuffer;
    const capmem::bench::Series s =
        capmem::bench::stream_thread_sweep(cfg, op, sc, threads, 1);
    for (std::size_t i = 0; i < threads.size(); ++i) {
      t.op();
      const double peak = s.ys[i].max;
      t.mix(s.ys[i].median);
      t.mix(peak);
      t.check(check_channel_peak(cfg, op, kind, threads[i], kStreamBuffer,
                                 peak));
      if (threads[i] == 1) t.check(check_single_thread(cfg, op, kind, peak));
      stream_gb_ += capmem::bench::stream_bytes_factor(op) * kStreamBuffer *
                    threads[i] * kStreamIters / 1e9;
    }
  }

  std::uint64_t seed_;
  double stream_gb_ = 0;
};

// --- model_pipeline ---

constexpr int kCollIters = 51;
constexpr int kFitsPerRound = 3;
constexpr std::uint64_t kSortBytes = MiB(1);

class ModelPipeline : public Workload {
 public:
  ModelPipeline(std::uint64_t seed, const std::string& dir, Tracer* tracer)
      : seed_(seed) {
    serve_ = std::make_unique<ServeSession>(dir, seed, ServeMix{}, tracer);
  }

  void round(const RoundCtx& rc, Tally& t) override {
    auto config = [&](ClusterMode cm) {
      sim::MachineConfig cfg = sim::knl7210(cm, sim::MemoryMode::kFlat);
      cfg.seed = derive_seed(seed_, 20, static_cast<int>(cm));
      cfg.metrics = rc.sim_reg;
      return cfg;
    };
    const sim::MachineConfig quad = config(ClusterMode::kQuadrant);
    model::CapabilityModel m;
    for (ClusterMode cm :
         {ClusterMode::kQuadrant, ClusterMode::kSNC4, ClusterMode::kA2A}) {
      const sim::MachineConfig cfg = config(cm);
      capmem::bench::SuiteOptions so;
      so.streams = false;
      so.jobs = 1;
      so.run.seed = derive_seed(seed_, 21, static_cast<int>(cm));
      model::CapabilityModel fitted;
      {
        Scope span(rc.tracer, "model.fit_cache_model");
        fitted = model::fit_cache_model(cfg, so);
      }
      rc.lap();
      t.op();
      t.check(check_fit(cfg, fitted));
      for (double v : {fitted.r_local, fitted.r_tile, fitted.r_remote,
                       fitted.r_mem_dram, fitted.r_mem_mcdram,
                       fitted.contention.beta}) {
        t.mix(v);
      }
      if (cm == ClusterMode::kQuadrant) m = fitted;
    }
    optimize(rc, m, t);
    rc.lap();
    collectives(rc, quad, m, t);

    std::vector<capmem::sort::SortRun> sorts;
    {
      Scope span(rc.tracer, "sort.parallel_merge_sort");
      for (int n : {4, 16, 64}) {
        capmem::sort::SortOptions so;
        so.seed = derive_seed(seed_, 23, n);
        sorts.push_back(capmem::sort::parallel_merge_sort(quad, kSortBytes,
                                                          n, so));
      }
    }
    sort_ns_ = 0;
    const double peak = quad.dram_channels() * quad.bw.dram_channel_gbps;
    for (const capmem::sort::SortRun& s : sorts) {
      t.op();
      t.check(check_sort(s.sorted_ok, s.checksum_ok != 0, s.total_ns, kSortBytes,
                         peak));
      t.mix(s.total_ns);
      sort_ns_ += s.total_ns;
    }
  }

  void layer_values(const Tracer& tr, std::size_t from,
                    LayerValues& out) const override {
    out["model.fit_cache_model.host_s"] =
        tr.total("model.fit_cache_model", from) / kFitsPerRound;
    out["model.optimize_tree.host_us"] =
        tr.total("model.optimize_tree", from) * 1e6;
    out["model.optimize_dissemination.host_us"] =
        tr.total("model.optimize_dissemination", from) * 1e6;
    for (const char* fam : {"tuned", "omp", "mpi"}) {
      out[std::string("coll.") + fam + ".host_s"] =
          tr.total(std::string("coll.") + fam, from);
    }
    out["coll.sim_median_ns"] = coll_ns_;
    out["sort.parallel_merge_sort.host_s"] =
        tr.total("sort.parallel_merge_sort", from);
    out["sort.sim_total_ns"] = sort_ns_;
  }

  void sim_probe(LayerValues& out, capmem::obs::Registry& reg) const override {
    run_probe(sim::knl7210(), build_barrier, out, reg);
  }

 private:
  void optimize(const RoundCtx& rc, const model::CapabilityModel& m,
                Tally& t) {
    struct TreeCase {
      int tiles;
      model::TreeKind kind;
      MemKind buffer;
      model::TunedTree tuned;
    };
    std::vector<TreeCase> trees;
    for (int tiles = 2; tiles <= 32; ++tiles) {
      for (model::TreeKind kind :
           {model::TreeKind::kBroadcast, model::TreeKind::kReduce}) {
        for (MemKind buffer : {MemKind::kDDR, MemKind::kMCDRAM}) {
          trees.push_back({tiles, kind, buffer, {}});
        }
      }
    }
    {
      Scope span(rc.tracer, "model.optimize_tree");
      for (TreeCase& c : trees) {
        c.tuned = model::optimize_tree(m, c.tiles, c.kind, c.buffer);
      }
    }
    for (const TreeCase& c : trees) {
      t.op();
      t.check(check_tree(m, c.tiles, c.kind, c.buffer, c.tuned));
      t.mix(c.tuned.predicted_ns);
    }
    std::vector<std::pair<int, MemKind>> dis_cases;
    for (int n = 2; n <= 256; ++n) {
      dis_cases.push_back({n, MemKind::kDDR});
      dis_cases.push_back({n, MemKind::kMCDRAM});
    }
    std::vector<model::TunedDissemination> dis;
    {
      Scope span(rc.tracer, "model.optimize_dissemination");
      for (const auto& [n, buffer] : dis_cases) {
        dis.push_back(model::optimize_dissemination(m, n, buffer));
      }
    }
    for (std::size_t i = 0; i < dis.size(); ++i) {
      t.op();
      t.check(check_dissemination(m, dis_cases[i].first, dis_cases[i].second,
                                  dis[i].rounds, dis[i].m,
                                  dis[i].predicted_ns));
      t.mix(dis[i].predicted_ns);
    }
  }

  void collectives(const RoundCtx& rc, const sim::MachineConfig& cfg,
                   const model::CapabilityModel& m, Tally& t) {
    using coll::Algo;
    const struct {
      const char* span;
      Algo algos[3];
    } families[] = {
        {"coll.tuned",
         {Algo::kTunedBarrier, Algo::kTunedBroadcast, Algo::kTunedReduce}},
        {"coll.omp", {Algo::kOmpBarrier, Algo::kOmpBroadcast, Algo::kOmpReduce}},
        {"coll.mpi", {Algo::kMpiBarrier, Algo::kMpiBroadcast, Algo::kMpiReduce}},
    };
    coll_ns_ = 0;
    for (const auto& fam : families) {
      std::vector<coll::CollResult> results;
      {
        Scope span(rc.tracer, fam.span);
        for (Algo a : fam.algos) {
          for (int n : {16, 64, 256}) {
            coll::HarnessOptions ho;
            ho.iters = kCollIters;
            ho.seed = derive_seed(seed_, 22, static_cast<int>(a) * 1000 + n);
            results.push_back(coll::run_collective(cfg, a, n, &m, ho));
          }
        }
      }
      for (const coll::CollResult& r : results) {
        t.op();
        t.check(check_collective(r, fam.span == families[0].span));
        t.mix(r.per_iter_max.median);
        coll_ns_ += r.per_iter_max.median;
      }
      rc.lap();
    }
  }

  std::uint64_t seed_;
  double coll_ns_ = 0, sort_ns_ = 0;
};

// --- serve_queries ---

class ServeQueries : public Workload {
 public:
  ServeQueries(std::uint64_t seed, const std::string& dir, Tracer* tracer) {
    serve_ = std::make_unique<ServeSession>(
        dir, seed,
        ServeMix{.simulate = 16, .predict = 16, .fit = 16,
                 .replay_passes = 1000},
        tracer);
  }
  void round(const RoundCtx& rc, Tally& t) override { serve_->round(rc, t); }
  bool rounds_repeat() const override { return false; }
  bool side_serve() const override { return false; }
  void layer_values(const Tracer&, std::size_t, LayerValues&) const override {}
  void sim_probe(LayerValues& out, capmem::obs::Registry& reg) const override {
    run_probe(sim::knl7210(), build_mixed, out, reg);
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& dir,
                                        Tracer* tracer) {
  if (name == "paper_streams") {
    return std::make_unique<PaperStreams>(seed, dir, tracer);
  }
  if (name == "model_pipeline") {
    return std::make_unique<ModelPipeline>(seed, dir, tracer);
  }
  if (name == "serve_queries") {
    return std::make_unique<ServeQueries>(seed, dir, tracer);
  }
  return nullptr;
}

}  // namespace capbench
