// capbench: the capmem benchmark driver (see README.md).
//
//   capbench --workload NAME --seed N --seconds S --trace 0|1
//   capbench --self-test
//
// Sets up the workload (timed as setup_s from process start), then runs
// whole rounds of it for S seconds: at least two, and no round that would
// end after S seconds once two have run. The last line of stdout is
// one JSON object: correct, attempted, failed and the metrics, end-to-end
// ones with --trace 0 and per-layer ones with --trace 1. A traced run
// alternates untraced and traced rounds, so it also reports its own tracing
// overhead, and writes its spans to .bench_out/.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "capbench.hpp"
#include "checks.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"

namespace {

using capbench::Clock;
using capbench::LayerValues;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"serve_hit_p50_us", "us"},
    {"serve_hit_p99_us", "us"},
};

const Metric kPerLayer[] = {
    {"sim.run.host_s", "s"},
    {"sim.run.steps", "count"},
    {"sim.ns_per_step", "ns"},
    {"sim.ns_per_line", "ns"},
    {"sim.mem.line_ops", "count"},
    {"sim.mem.dram_lines", "count"},
    {"sim.mem.mcdram_lines", "count"},
    {"sim.mem.mc_cache_hits", "count"},
    {"sim.mem.mc_cache_misses", "count"},
    {"sim.mem.invalidations", "count"},
    {"sim.mem.writebacks", "count"},
    {"sim.mem.remote_hits", "count"},
    {"sim.noc.hops", "count"},
    {"sim.mem.queue_delay_ns", "sim_ns"},
    {"sim.elapsed_ns", "sim_ns"},
    {"bench.stream.copy.host_s", "s"},
    {"bench.stream.read.host_s", "s"},
    {"bench.stream.write.host_s", "s"},
    {"bench.stream.triad.host_s", "s"},
    {"bench.stream.cache_mode.host_s", "s"},
    {"bench.stream.sim_gb_per_host_s", "GB/s"},
    {"model.fit_cache_model.host_s", "s"},
    {"model.optimize_tree.host_us", "us"},
    {"model.optimize_dissemination.host_us", "us"},
    {"coll.tuned.host_s", "s"},
    {"coll.omp.host_s", "s"},
    {"coll.mpi.host_s", "s"},
    {"coll.sim_median_ns", "sim_ns"},
    {"sort.parallel_merge_sort.host_s", "s"},
    {"sort.sim_total_ns", "sim_ns"},
    {"serve.json.parse_us", "us"},
    {"serve.cache.get_us", "us"},
    {"serve.cache.put_us", "us"},
    {"serve.cache.hit", "count"},
    {"serve.cache.miss", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.simulate_p50_ms", "ms"},
    {"serve.inline_p50_us", "us"},
    {"exec.job_queue_wait_us", "us"},
    {"exec.job_wall_us", "us"},
    {"exec.worker_util", "ratio"},
    {"trace.overhead_s", "s"},
    {"host.calib_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  bool self_test = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "capbench: %s\nusage: capbench --workload "
               "paper_streams|model_pipeline|serve_queries --seed N "
               "--seconds S --trace 0|1\n       capbench --self-test\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      have_seconds = a->seconds > 0;
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (a->trace != 0 && a->trace != 1) return false;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) return false;
  }
  return a->self_test || (have_workload && have_seconds);
}

// The host's speed drifts by up to 2x over minutes (other tenants), which
// no run length averages away. Each round is therefore followed by this
// fixed piece of host work, which is no code under test: dependent
// multiplies, xorshifts and random reads and writes of a 1 MiB table. Over
// four minutes of drift its time tracked the time of stream cells and
// model fits with correlation 0.99 (5 s blocks), and dividing by it cut
// their coefficient of variation from 0.23-0.26 to 0.05-0.08.
double calibrate() {
  static std::vector<std::uint64_t> table(1u << 17, 1);
  const Clock::time_point t0 = Clock::now();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 6000000; ++i) {
    a = a * 6364136223846793005ull + table[(b >> 20) & 0x1ffff];
    b ^= b << 13;
    b ^= b >> 7;
    b ^= b << 17;
    c = (c + a) * 0x9e3779b97f4a7c15ull;
    d += (c >> 32) ^ (a & 0xffff);
    if ((d & 7) == 3) table[d & 0x1ffff] += c;
  }
  volatile std::uint64_t sink = a + b + c + d;
  (void)sink;
  return capbench::seconds_since(t0);
}

/// Calibration time that defines the reference host speed: round and
/// request times are reported as if every calibration had taken this long
/// (about the fast phase of the development host).
constexpr double kCalibReferenceS = 0.040;

}  // namespace

void capbench::Stopwatch::lap() {
  const double seg = seconds_since(last_);
  const double calib = calibrate();
  calib_.push_back(calib);
  raw_ += seg;
  scaled_ += seg * kCalibReferenceS / calib;
  last_ = Clock::now();
}

namespace {

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Simulated statistics of one registry, under their per-layer names.
void sim_counts(const capmem::obs::Registry& reg, LayerValues& out) {
  for (const char* name :
       {"sim.mem.line_ops", "sim.mem.dram_lines", "sim.mem.mcdram_lines",
        "sim.mem.mc_cache_hits", "sim.mem.mc_cache_misses",
        "sim.mem.invalidations", "sim.mem.writebacks", "sim.mem.remote_hits",
        "sim.noc.hops", "sim.elapsed_ns"}) {
    out[name] = reg.counter(name);
  }
  out["sim.mem.queue_delay_ns"] = reg.hist("sim.mem.queue_delay_ns").sum;
}

LayerValues median_by_key(const std::vector<LayerValues>& rounds) {
  std::map<std::string, std::vector<double>> all;
  for (const LayerValues& lv : rounds) {
    for (const auto& [k, v] : lv) all[k].push_back(v);
  }
  LayerValues out;
  for (const auto& [k, vs] : all) out[k] = capmem::median(vs);
  return out;
}

void print_result(const capbench::Tally& t, const Metric* metrics,
                  std::size_t n, const LayerValues& values) {
  bool correct = t.correct();
  std::string body;
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(metrics[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "capbench: metric %s is not finite\n",
                   metrics[i].name);
      correct = false;
      v = 0;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name, v, metrics[i].unit);
    body += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted()),
              static_cast<unsigned long long>(t.failed()), body.c_str());
}

int run(const Args& a, Clock::time_point process_start) {
  const std::string out_dir = ".bench_out";
  std::filesystem::create_directories(out_dir);
  // The serve session's cache lives here for this process only.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } serve_dir{out_dir + "/serve-" + std::to_string(getpid())};
  capbench::Tracer tracer;
  capbench::Tracer* tr = a.trace ? &tracer : nullptr;
  std::unique_ptr<capbench::Workload> w =
      capbench::make_workload(a.workload, a.seed, serve_dir.dir, tr);
  if (!w) return usage("unknown workload");
  // One cold set-up, reported at the run's host speed (the median of all
  // its calibrations): a single calibration right after the set-up tracked
  // it worse than the run's median did.
  const double setup_raw = capbench::seconds_since(process_start);
  w->serve().fit_reference(tr);

  capbench::Tally t;
  capmem::obs::Registry sim_reg, exec_reg;
  // Round times at the reference host speed and raw round times.
  std::vector<double> wall_untraced, wall_traced, wall_raw;
  capbench::Stopwatch watch;
  std::vector<LayerValues> layers;
  LayerValues first_sim;
  std::uint64_t digest0 = 0;
  const Clock::time_point t0 = Clock::now();
  // Two rounds at least, so that a traced run has a traced round (round 1)
  // and an untraced run has the same round to compare it with. Then a round
  // starts only if a round of the mean length so far still ends in time.
  constexpr int kMinRounds = 2;
  for (int r = 0;
       r < kMinRounds || capbench::seconds_since(t0) * (r + 1) / r <= a.seconds;
       ++r) {
    const bool traced = a.trace && r % 2 == 1;
    sim_reg.clear();
    exec_reg.clear();
    const capbench::RoundCtx rc{r, traced ? tr : nullptr,
                                traced ? &sim_reg : nullptr,
                                traced ? &exec_reg : nullptr, &watch};
    const std::size_t from = tracer.spans().size();
    const std::size_t hits_before = w->serve().hit_us.size();
    t.start_round();
    watch.start();
    {
      capbench::Scope span(rc.tracer, "capbench.round");
      w->round(rc, t);
    }
    watch.lap();
    wall_raw.push_back(watch.raw());
    (traced ? wall_traced : wall_untraced).push_back(watch.scaled());
    const std::uint64_t digest = t.digest();
    capbench::RoundCtx untimed = rc;
    untimed.watch = nullptr;
    if (w->side_serve()) w->serve().round(untimed, t);
    if (traced) w->serve().probe(untimed, t);
    // Hit latencies are scaled by one calibration after the serve session.
    const double speed = kCalibReferenceS / calibrate();
    std::vector<double>& hits = w->serve().hit_us;
    for (std::size_t i = hits_before; i < hits.size(); ++i) hits[i] *= speed;
    std::fprintf(stderr,
                 "capbench: round %d traced %d simulated-output digest "
                 "%016llx, %.4f s raw, %.4f s scaled\n",
                 r, traced ? 1 : 0, static_cast<unsigned long long>(digest),
                 watch.raw(), watch.scaled());
    if (r == 0) {
      digest0 = digest;
    } else if (w->rounds_repeat() && digest != digest0) {
      t.check("simulated outputs differ between rounds " + std::to_string(r) +
              " and 0 (traced: " + std::to_string(traced) + ")");
    }
    if (!traced) continue;

    LayerValues lv;
    w->layer_values(tracer, from, lv);
    w->serve().layer_values(tracer, from, lv);
    lv["exec.job_queue_wait_us"] =
        exec_reg.hist("exec.job_queue_wait_us").mean();
    lv["exec.job_wall_us"] = exec_reg.hist("exec.job_wall_us").mean();
    lv["exec.worker_util"] = exec_reg.hist("exec.worker_util").mean();
    if (sim_reg.counter("sim.machines") > 0) {
      LayerValues sims;
      sim_counts(sim_reg, sims);
      if (first_sim.empty()) first_sim = sims;
      if (sims != first_sim) {
        t.check("simulated statistics differ between traced rounds");
      }
      lv.insert(sims.begin(), sims.end());
    }
    layers.push_back(std::move(lv));
  }

  if (!a.trace) {
    auto& s = w->serve();
    // Host noise only ever slows a round down, so the first quartile of
    // the round times is the run's steadiest estimate of a round.
    const double calib = capmem::median(watch.calibrations());
    const LayerValues e2e{
        {"setup_s", setup_raw * kCalibReferenceS / calib},
        {"wall_s", capmem::quantile(wall_untraced, 0.25)},
        {"peak_rss_mib", peak_rss_mib()},
        {"serve_hit_p50_us", capmem::median(s.hit_us)},
        {"serve_hit_p99_us", capmem::quantile(s.hit_us, 0.99)},
    };
    std::fprintf(stderr, "capbench: %zu rounds, %zu hits, %zu simulates, "
                 "%zu inline; raw set-up %.4f s, raw round q25 %.4f s, "
                 "calibration median %.4f s\n",
                 wall_untraced.size(), s.hit_us.size(), s.simulate_ms.size(),
                 s.inline_us.size(), setup_raw,
                 capmem::quantile(wall_raw, 0.25), calib);
    print_result(t, kEndToEnd, std::size(kEndToEnd), e2e);
    return 0;
  }

  LayerValues per_layer = median_by_key(layers);
  // Fits inside rounds are timed per call (model_pipeline); otherwise the
  // reference fit of the daemon's model (serve_queries), or none.
  if (per_layer.count("model.fit_cache_model.host_s") == 0) {
    per_layer["model.fit_cache_model.host_s"] =
        tracer.total("model.fit_cache_model");
  }
  capmem::obs::Registry probe_reg;
  {
    capbench::Scope span(tr, "sim.probe");
    w->sim_probe(per_layer, probe_reg);
  }
  if (per_layer.count("sim.mem.line_ops") == 0) sim_counts(probe_reg, per_layer);
  // Miss-path latencies, over every round of the traced run.
  per_layer["serve.simulate_p50_ms"] = capmem::median(w->serve().simulate_ms);
  per_layer["serve.inline_p50_us"] = capmem::median(w->serve().inline_us);
  const double overhead = capmem::quantile(wall_traced, 0.25) -
                          capmem::quantile(wall_untraced, 0.25);
  per_layer["trace.overhead_s"] = overhead;
  per_layer["host.calib_ms"] = capmem::median(watch.calibrations()) * 1e3;

  const std::string spans_path = out_dir + "/spans-" + a.workload + "-seed" +
                                 std::to_string(a.seed) + ".json";
  if (!tracer.write_json(spans_path)) {
    std::fprintf(stderr, "capbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("per-layer self time over %zu traced rounds, set-up and the "
              "sim probe (spans: %s)\n",
              wall_traced.size(), spans_path.c_str());
  const auto self = tracer.self_time_by_layer();
  double total = 0;
  for (const auto& [layer, s] : self) total += s;
  for (const auto& [layer, s] : self) {
    std::printf("  %-10s %10.4f s  %5.1f%%\n", layer.c_str(), s,
                100.0 * s / total);
  }
  std::printf("tracing overhead: traced wall_s %.4f - untraced wall_s %.4f "
              "= %.4f s\n",
              capmem::quantile(wall_traced, 0.25),
              capmem::quantile(wall_untraced, 0.25), overhead);
  print_result(t, kPerLayer, std::size(kPerLayer), per_layer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args a;
  if (!parse_args(argc, argv, &a)) return usage("bad arguments");
  capmem::set_log_level(capmem::LogLevel::kError);
  if (a.self_test) return capbench::run_self_test();
  try {
    return run(a, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capbench: run aborted: %s\n", e.what());
    return 1;
  }
}
