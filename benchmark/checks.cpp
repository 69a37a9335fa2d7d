#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "model/collective_model.hpp"
#include "model/dissemination_opt.hpp"

namespace capbench {

namespace model = capmem::model;
using capmem::serve::Json;

namespace {

constexpr double kLine = 64.0;

std::string fmt(const char* what, double got, double limit) {
  std::ostringstream os;
  os.precision(10);
  os << what << ": got " << got << ", limit " << limit;
  return os.str();
}

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(a) + std::fabs(b));
}

double channel_peak(const MachineConfig& cfg, MemKind kind) {
  const double ddr = cfg.dram_channels() * cfg.bw.dram_channel_gbps;
  const double mc = cfg.mcdram_controllers * cfg.bw.mcdram_channel_gbps;
  if (cfg.memory == capmem::sim::MemoryMode::kCache) return ddr + mc;
  return kind == MemKind::kDDR ? ddr : mc;
}

int channel_count(const MachineConfig& cfg, MemKind kind) {
  if (cfg.memory == capmem::sim::MemoryMode::kCache) {
    return cfg.dram_channels() + cfg.mcdram_controllers;
  }
  return kind == MemKind::kDDR ? cfg.dram_channels()
                               : cfg.mcdram_controllers;
}

int read_streams(StreamOp op) {
  switch (op) {
    case StreamOp::kCopy:
    case StreamOp::kRead: return 1;
    case StreamOp::kTriad: return 2;
    case StreamOp::kWrite: return 0;
  }
  return 0;
}

// Exact minimum of Eq. 1 by recursion over every fanout, without the
// optimizer's memo table.
double brute_tree(const model::CapabilityModel& m, int n,
                  model::TreeKind kind, MemKind buffer) {
  if (n <= 1) return 0.0;
  double best = -1;
  for (int k = 1; k <= n - 1; ++k) {
    const int largest = (n - 1 + k - 1) / k;
    const double c = model::level_cost(m, kind, k, buffer) +
                     brute_tree(m, largest, kind, buffer);
    if (best < 0 || c < best) best = c;
  }
  return best;
}

std::string reply_result(const std::string& reply, Json* result) {
  Json doc;
  try {
    doc = Json::parse(reply);
  } catch (const std::exception& e) {
    return std::string("reply is not JSON: ") + e.what();
  }
  const Json* ok = doc.is_object() ? doc.find("ok") : nullptr;
  const Json* res = doc.is_object() ? doc.find("result") : nullptr;
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || res == nullptr ||
      !res->is_object()) {
    return "reply is not ok: " + reply;
  }
  *result = *res;
  return "";
}

double number(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
}

}  // namespace

std::string check_channel_peak(const MachineConfig& cfg, StreamOp op,
                               MemKind kind, int nthreads,
                               std::uint64_t buffer_bytes, double gbps) {
  const double peak = channel_peak(cfg, kind);
  const double lead_bytes =
      channel_count(cfg, kind) * cfg.bw.channel_queue_lines * kLine;
  const double bytes = capmem::bench::stream_bytes_factor(op) *
                       static_cast<double>(buffer_bytes) * nthreads;
  if (bytes <= lead_bytes) return "";  // the queues alone could hold it
  // bytes <= peak * T + lead_bytes with T = bytes / gbps.
  const double limit = peak * bytes / (bytes - lead_bytes);
  return gbps <= limit ? "" : fmt("aggregate GB/s above channel peak", gbps,
                                  limit);
}

std::string check_single_thread(const MachineConfig& cfg, StreamOp op,
                                MemKind kind, double gbps) {
  const int r = read_streams(op);
  if (r == 0 || cfg.memory != capmem::sim::MemoryMode::kFlat) return "";
  const double lat = kind == MemKind::kDDR ? cfg.lat.dram_service
                                           : cfg.lat.mcdram_service;
  const double limit = capmem::bench::stream_bytes_factor(op) * kLine *
                       cfg.bw.mlp_mem_vector / (r * lat);
  return gbps <= limit ? "" : fmt("single-thread GB/s above 64B*mlp/lat",
                                  gbps, limit);
}

std::string check_fit(const MachineConfig& cfg,
                      const model::CapabilityModel& m) {
  struct Term {
    const char* name;
    double got, want, tol;
  };
  std::vector<Term> terms{
      {"r_local", m.r_local, cfg.lat.l1_hit, 0.5},
      {"r_tile", m.r_tile, cfg.lat.l2_tile_m, 2.0},
      {"r_l2", m.r_l2, cfg.lat.l2_tile_e, 2.0},
      {"r_remote", m.r_remote, cfg.lat.remote_base + 20, 15.0},
      {"r_mem_dram", m.r_mem_dram, cfg.lat.dram_service + 13, 12.0}};
  if (cfg.memory == capmem::sim::MemoryMode::kFlat) {
    terms.push_back(
        {"r_mem_mcdram", m.r_mem_mcdram, cfg.lat.mcdram_service + 13, 12.0});
  }
  for (const Term& t : terms) {
    if (!(std::fabs(t.got - t.want) <= t.tol)) {
      return fmt((std::string(t.name) + " off its ground truth").c_str(),
                 t.got, t.want);
    }
  }
  return "";
}

std::string check_tree(const model::CapabilityModel& m, int tiles,
                       model::TreeKind kind, MemKind buffer,
                       const model::TunedTree& tuned) {
  const double brute = brute_tree(m, tiles, kind, buffer);
  if (!near(tuned.predicted_ns, brute)) {
    return fmt("optimize_tree differs from brute force", tuned.predicted_ns,
               brute);
  }
  const double cost = model::tree_cost(m, tuned.root, kind, buffer);
  if (!near(cost, tuned.predicted_ns)) {
    return fmt("optimize_tree's tree costs differ from its prediction", cost,
               tuned.predicted_ns);
  }
  if (model::tree_nodes(tuned.root) != tiles) return "tree node count wrong";
  return "";
}

std::string check_dissemination(const model::CapabilityModel& m, int n,
                                MemKind buffer, int rounds, int peers,
                                double predicted_ns) {
  double best = -1;
  for (int k = 1; k <= std::max(1, n - 1); ++k) {
    const double c = model::dissemination_cost(m, n, k, buffer);
    if (best < 0 || c < best) best = c;
  }
  if (!near(predicted_ns, best)) {
    return fmt("optimize_dissemination differs from brute force",
               predicted_ns, best);
  }
  if (!near(model::dissemination_cost(m, n, peers, buffer), predicted_ns) ||
      model::dissemination_rounds(n, peers) != rounds) {
    return "optimize_dissemination's (rounds, m) do not give its cost";
  }
  return "";
}

std::string check_collective(const capmem::coll::CollResult& r, bool tuned) {
  if (r.errors != 0) return fmt("collective data errors", r.errors, 0);
  if (!tuned) return "";
  if (!r.has_band) return "tuned collective has no model band";
  const double med = r.per_iter_max.median;
  if (!(med >= 0.5 * r.band.best_ns && med <= 2.0 * r.band.worst_ns)) {
    std::ostringstream os;
    os << "tuned median " << med << " ns outside [0.5*" << r.band.best_ns
       << ", 2*" << r.band.worst_ns << "]";
    return os.str();
  }
  return "";
}

std::string check_sort(bool sorted_ok, bool checksum_ok, double total_ns,
                       std::uint64_t bytes, double peak_gbps) {
  if (!sorted_ok) return "sort output not sorted";
  if (!checksum_ok) return "sort output is not a permutation of its input";
  int levels = 0;
  while ((64ull << levels) < bytes) ++levels;
  const double bound = levels * 2.0 * static_cast<double>(bytes) / peak_gbps;
  return total_ns >= bound ? "" : fmt("sort faster than the channel bound",
                                      total_ns, bound);
}

std::string check_fit_reply(const std::vector<double>& xs,
                            const std::vector<double>& ys,
                            const Json& result) {
  const double n = static_cast<double>(xs.size());
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i] / n;
    my += ys[i] / n;
  }
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  const double beta = sxy / sxx;
  const double alpha = my - beta * mx;
  const double r2 = syy > 0 ? sxy * sxy / (sxx * syy) : 1.0;
  const double want[3] = {alpha, beta, r2};
  const char* keys[3] = {"alpha", "beta", "r2"};
  for (int i = 0; i < 3; ++i) {
    const double got = number(result, keys[i]);
    if (!(std::fabs(got - want[i]) <= 1e-9 * (1.0 + std::fabs(want[i])))) {
      return fmt((std::string("fit ") + keys[i] + " differs from OLS").c_str(),
                 got, want[i]);
    }
  }
  return "";
}

std::string check_predict_reply(const model::CapabilityModel& m,
                                const MachineConfig& cfg,
                                const std::string& collective, int threads,
                                bool scatter, MemKind buffer,
                                const Json& result) {
  const model::ThreadLayout lay = model::layout_for(
      threads, cfg.active_tiles, cfg.cores_per_tile * cfg.threads_per_core,
      scatter);
  model::CostBand band;
  if (collective == "broadcast") {
    band = model::broadcast_band(m, lay, buffer);
  } else if (collective == "reduce") {
    band = model::reduce_band(m, lay, buffer);
  } else if (collective == "barrier") {
    band = model::barrier_band(m, lay, buffer);
  } else {
    band = model::allreduce_band(m, lay, buffer);
  }
  if (number(result, "best_ns") != band.best_ns ||
      number(result, "worst_ns") != band.worst_ns ||
      number(result, "tiles") != lay.tiles ||
      number(result, "threads_per_tile") != lay.threads_per_tile) {
    return "predict reply differs from " + collective + "_band: " +
           result.dump();
  }
  return "";
}

std::string check_one_reply(const std::string& replies) {
  std::size_t lines = 0;
  for (char c : replies) lines += c == '\n';
  if (lines != 1) return fmt("replies for one request", lines, 1);
  Json result;
  return reply_result(replies.substr(0, replies.size() - 1), &result);
}

std::string check_hit_identical(const std::string& cold,
                                const std::string& hit) {
  return cold == hit ? "" : "cache-hit reply differs from cold reply: " + hit;
}

int run_self_test() {
  const MachineConfig cfg = capmem::sim::knl7210();
  // A model holding the ground truth itself: what a perfect fit returns.
  model::CapabilityModel m;
  m.r_local = cfg.lat.l1_hit;
  m.r_l2 = cfg.lat.l2_tile_e;
  m.r_tile = cfg.lat.l2_tile_m;
  m.r_remote = cfg.lat.remote_base + 20;
  m.r_mem_dram = cfg.lat.dram_service + 13;
  m.r_mem_mcdram = cfg.lat.mcdram_service + 13;
  m.contention = {60.0, 34.0, 0.99};
  const auto tree =
      model::optimize_tree(m, 32, model::TreeKind::kBroadcast, MemKind::kDDR);
  model::TunedTree forged_tree = tree;
  forged_tree.predicted_ns *= 1.01;
  const auto dis = model::optimize_dissemination(m, 64, MemKind::kMCDRAM);
  capmem::coll::CollResult coll;
  coll.has_band = true;
  coll.band = {1000.0, 3000.0};
  coll.per_iter_max.median = 2000.0;
  capmem::coll::CollResult coll_bad = coll;
  coll_bad.per_iter_max.median = 7000.0;
  capmem::coll::CollResult coll_err = coll;
  coll_err.errors = 1;
  model::CapabilityModel m_bad = m;
  m_bad.r_remote += 40;

  const std::vector<double> xs{0, 1, 2, 3}, ys{1, 3, 5, 7};  // y = 1 + 2x
  Json fit = Json::object();
  fit.set("alpha", 1.0);
  fit.set("beta", 2.0);
  fit.set("r2", 1.0);
  Json fit_bad = fit;
  fit_bad.set("alpha", 2.0);
  const capmem::sim::MachineConfig tiny = capmem::sim::tiny_machine();
  const model::ThreadLayout lay = model::layout_for(
      8, tiny.active_tiles, tiny.cores_per_tile * tiny.threads_per_core,
      true);
  const model::CostBand band = model::barrier_band(m, lay, MemKind::kDDR);
  Json pred = Json::object();
  pred.set("best_ns", band.best_ns);
  pred.set("worst_ns", band.worst_ns);
  pred.set("tiles", lay.tiles);
  pred.set("threads_per_tile", lay.threads_per_tile);
  Json pred_bad = pred;
  pred_bad.set("best_ns", band.best_ns + 1.0);
  const std::string reply = "{\"id\":1,\"ok\":true,\"result\":{}}\n";

  struct Case {
    const char* name;
    std::function<std::string()> genuine, forged;
  };
  const std::vector<Case> cases{
      {"channel peak",
       [&] { return check_channel_peak(cfg, StreamOp::kTriad, MemKind::kDDR,
                                       64, 16384, 75.0); },
       [&] { return check_channel_peak(cfg, StreamOp::kTriad, MemKind::kDDR,
                                       64, 16384, 90.0); }},
      {"single thread",
       [&] { return check_single_thread(cfg, StreamOp::kRead, MemKind::kDDR,
                                        8.0); },
       [&] { return check_single_thread(cfg, StreamOp::kRead, MemKind::kDDR,
                                        8.2); }},
      {"fit ground truth", [&] { return check_fit(cfg, m); },
       [&] { return check_fit(cfg, m_bad); }},
      {"tree brute force",
       [&] { return check_tree(m, 32, model::TreeKind::kBroadcast,
                               MemKind::kDDR, tree); },
       [&] { return check_tree(m, 32, model::TreeKind::kBroadcast,
                               MemKind::kDDR, forged_tree); }},
      {"dissemination brute force",
       [&] { return check_dissemination(m, 64, MemKind::kMCDRAM, dis.rounds,
                                        dis.m, dis.predicted_ns); },
       [&] { return check_dissemination(m, 64, MemKind::kMCDRAM, dis.rounds,
                                        dis.m, dis.predicted_ns + 1.0); }},
      {"collective band", [&] { return check_collective(coll, true); },
       [&] { return check_collective(coll_bad, true); }},
      {"collective errors", [&] { return check_collective(coll, false); },
       [&] { return check_collective(coll_err, false); }},
      {"sort verified",
       [&] { return check_sort(true, true, 1e6, 1 << 20, 76.8); },
       [&] { return check_sort(false, true, 1e6, 1 << 20, 76.8); }},
      {"sort checksum",
       [&] { return check_sort(true, true, 1e6, 1 << 20, 76.8); },
       [&] { return check_sort(true, false, 1e6, 1 << 20, 76.8); }},
      {"sort channel bound",
       [&] { return check_sort(true, true, 1e6, 1 << 20, 76.8); },
       [&] { return check_sort(true, true, 1e5, 1 << 20, 76.8); }},
      {"fit reply OLS", [&] { return check_fit_reply(xs, ys, fit); },
       [&] { return check_fit_reply(xs, ys, fit_bad); }},
      {"predict reply band",
       [&] { return check_predict_reply(m, tiny, "barrier", 8, true,
                                        MemKind::kDDR, pred); },
       [&] { return check_predict_reply(m, tiny, "barrier", 8, true,
                                        MemKind::kDDR, pred_bad); }},
      {"one reply", [&] { return check_one_reply(reply); },
       [&] { return check_one_reply(reply + reply); }},
      {"hit identical", [&] { return check_hit_identical(reply, reply); },
       [&] { return check_hit_identical(reply, reply + " "); }},
  };
  int bad = 0;
  for (const Case& c : cases) {
    const std::string g = c.genuine();
    const std::string f = c.forged();
    const bool ok = g.empty() && !f.empty();
    bad += ok ? 0 : 1;
    std::printf("self-test %-26s %s%s%s\n", c.name, ok ? "ok" : "FAIL",
                g.empty() ? "" : " (genuine rejected: ",
                g.empty() ? "" : (g + ")").c_str());
    if (ok) std::printf("  forged value rejected: %s\n", f.c_str());
  }
  std::printf("self-test: %zu checks, %d failed\n", cases.size(), bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace capbench
