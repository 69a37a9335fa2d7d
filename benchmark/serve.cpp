// The serve session: an in-process serve::Server driven in a closed loop by
// one client with one request in flight. Each round sends cache-miss
// simulate requests with distinct seeds, cache-miss predict and fit
// requests (answered inline on the warm model), then replays every line of
// the round, each replay a cache hit. The per-layer probes run apart from
// the round, on its lines, after the round's time is taken.
#include <filesystem>
#include <sstream>

#include "capbench.hpp"
#include "check/workload.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "exec/seed.hpp"
#include "model/fit.hpp"
#include "serve/daemon.hpp"

namespace capbench {

namespace serve = capmem::serve;
namespace sim = capmem::sim;
using serve::Json;

namespace {

// Requests name the paper's machine; the daemon fits its model once.
constexpr const char* kMachine = "knl_38t";
constexpr int kSimThreads = 8;
constexpr int kSimOps = 64;
// Distinct predict bodies: 4 collectives x 255 thread counts x 2 schedules
// x 2 buffers. A run must not exhaust them, or predicts would hit. The
// warm-up predict uses the one thread count left out (256).
constexpr int kPredictThreads = 255;
constexpr int kPredictSpace = 4 * kPredictThreads * 2 * 2;
// Repetitions of the parse and lookup probes, for timer resolution.
constexpr int kProbeReps = 20;
// Replay passes per timed segment of a round (RoundCtx::lap).
constexpr int kPassesPerLap = 250;

const char* const kCollectives[] = {"broadcast", "reduce", "barrier",
                                    "allreduce"};

struct Line {
  enum Kind { kSimulate, kPredict, kFit } kind = kFit;
  std::int64_t id = 0;
  std::string text;
  // predict
  std::string collective;
  int threads = 1;
  bool scatter = true;
  sim::MemKind buffer = sim::MemKind::kDDR;
  // fit
  std::vector<double> xs, ys;
  // simulate
  std::uint64_t seed = 0;
};

}  // namespace

struct ServeSession::Impl {
  ServeMix mix;
  std::uint64_t seed = 0;
  std::string dir;
  sim::MachineConfig cfg;
  capmem::model::CapabilityModel model;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::ResultCache> probe_cache;
  int predict_offset = 0;
  // The last round's lines, cold replies and counters, for probe().
  std::vector<Line> lines;
  std::vector<std::string> cold;
  serve::ServeCounters start, end;
  // Item counts of the last traced round's probes.
  std::size_t parse_items = 0, get_items = 0, put_items = 0;
  double hits = 0, misses = 0;

  std::vector<Line> make_lines(int round) const;
  std::string call(const std::string& text, Tracer* tr, std::int64_t id,
                   double* us);
};

std::vector<Line> ServeSession::Impl::make_lines(int round) const {
  if ((round + 1) * mix.predict > kPredictSpace) {
    throw std::runtime_error("serve session ran out of distinct predicts");
  }
  capmem::Rng rng(capmem::exec::derive_seed(seed, 7, round));
  std::vector<Line> out;
  std::int64_t id = static_cast<std::int64_t>(round) * 1000;
  for (int i = 0; i < mix.simulate; ++i) {
    Line l;
    l.kind = Line::kSimulate;
    l.id = id++;
    l.seed = capmem::exec::derive_seed(seed, 1, round * 1000 + i);
    Json r = Json::object();
    r.set("id", l.id);
    r.set("type", "simulate");
    r.set("machine", kMachine);
    r.set("threads", kSimThreads);
    r.set("ops", kSimOps);
    r.set("seed", l.seed);
    l.text = r.dump();
    out.push_back(std::move(l));
  }
  for (int i = 0; i < mix.predict; ++i) {
    const int k = (predict_offset + round * mix.predict + i) % kPredictSpace;
    Line l;
    l.kind = Line::kPredict;
    l.id = id++;
    l.collective = kCollectives[k % 4];
    l.threads = 1 + (k / 4) % kPredictThreads;
    l.scatter = (k / (4 * kPredictThreads)) % 2 == 0;
    l.buffer = (k / (8 * kPredictThreads)) % 2 == 0 ? sim::MemKind::kDDR
                                                    : sim::MemKind::kMCDRAM;
    Json r = Json::object();
    r.set("id", l.id);
    r.set("type", "predict");
    r.set("machine", kMachine);
    r.set("collective", l.collective);
    r.set("threads", l.threads);
    r.set("schedule", l.scatter ? "scatter" : "compact");
    r.set("buffer", l.buffer == sim::MemKind::kDDR ? "DRAM" : "MCDRAM");
    l.text = r.dump();
    out.push_back(std::move(l));
  }
  for (int i = 0; i < mix.fit; ++i) {
    Line l;
    l.kind = Line::kFit;
    l.id = id++;
    const double a = 50.0 + rng.next_double() * 100.0;
    const double b = 10.0 + rng.next_double() * 40.0;
    Json xs = Json::array(), ys = Json::array();
    for (int x = 1; x <= 16; ++x) {
      l.xs.push_back(x);
      l.ys.push_back(a + b * x + (rng.next_double() - 0.5) * b);
      xs.push(l.xs.back());
      ys.push(l.ys.back());
    }
    Json r = Json::object();
    r.set("id", l.id);
    r.set("type", "fit");
    r.set("xs", std::move(xs));
    r.set("ys", std::move(ys));
    l.text = r.dump();
    out.push_back(std::move(l));
  }
  return out;
}

std::string ServeSession::Impl::call(const std::string& text, Tracer* tr,
                                     std::int64_t id, double* us) {
  Scope span(tr, "serve.request", id);
  std::ostringstream os;
  const Clock::time_point t0 = Clock::now();
  server->submit(text);
  server->drain(os);  // one request in flight: waits for exactly its reply
  *us = seconds_since(t0) * 1e6;
  return os.str();
}

ServeSession::ServeSession(const std::string& dir, std::uint64_t seed,
                           ServeMix mix, Tracer* tracer)
    : impl_(std::make_unique<Impl>()) {
  Impl& I = *impl_;
  I.mix = mix;
  I.seed = seed;
  I.dir = dir;
  I.predict_offset = static_cast<int>(
      capmem::exec::derive_seed(seed, 2, 0) % kPredictSpace);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::ServerOptions so;
  so.cache_dir = dir + "/cache";
  so.workers = 2;
  I.server = std::make_unique<serve::Server>(so);
  I.probe_cache = std::make_unique<serve::ResultCache>(dir + "/probe");

  // Warm the daemon's model with a predict outside the rounds' request
  // space, so every round's predicts are answered inline. The daemon fits
  // the model here, inside this request.
  double us = 0;
  const std::string reply = I.call(
      "{\"id\":\"warm\",\"type\":\"predict\",\"machine\":\"" +
          std::string(kMachine) + "\",\"threads\":256}",
      tracer, -1, &us);
  const std::string why = check_one_reply(reply);
  if (!why.empty()) throw std::runtime_error("serve warm-up: " + why);
}

ServeSession::~ServeSession() = default;

void ServeSession::fit_reference(Tracer* tracer) {
  Impl& I = *impl_;
  // The model the daemon fits for predict (same options as
  // Server::model_for), fitted here as the reference for predict replies.
  I.cfg = sim::machine_preset(kMachine);
  Scope span(tracer, "model.fit_cache_model");
  capmem::bench::SuiteOptions fo;
  fo.fast = true;
  fo.streams = false;
  fo.jobs = 1;
  I.model = capmem::model::fit_cache_model(I.cfg, fo);
}

void ServeSession::round(const RoundCtx& rc, Tally& t) {
  Impl& I = *impl_;
  I.lines = I.make_lines(rc.round);
  I.start = I.server->counters();
  const std::vector<Line>& lines = I.lines;
  std::vector<std::string>& cold = I.cold;
  cold.assign(lines.size(), "");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Line& l = lines[i];
    t.op();
    const std::uint64_t misses = I.server->counters().cache_miss;
    double us = 0;
    cold[i] = I.call(l.text, rc.tracer, l.id, &us);
    if (l.kind == Line::kSimulate) {
      simulate_ms.push_back(us / 1000.0);
    } else {
      inline_us.push_back(us);
    }
    const std::string why = check_one_reply(cold[i]);
    if (!why.empty()) {
      t.failed_op(why);
      continue;
    }
    t.mix(cold[i]);
    if (I.server->counters().cache_miss != misses + 1) {
      t.check("request expected to miss the cache: " + l.text);
    }
    const Json result = *Json::parse(cold[i]).find("result");
    switch (l.kind) {
      case Line::kSimulate: {
        const Json* c = result.find("consistent");
        t.check(c != nullptr && c->is_bool() && c->as_bool()
                    ? ""
                    : "simulate reply not consistent: " + cold[i]);
        break;
      }
      case Line::kPredict:
        t.check(check_predict_reply(I.model, I.cfg, l.collective, l.threads,
                                    l.scatter, l.buffer, result));
        break;
      case Line::kFit: t.check(check_fit_reply(l.xs, l.ys, result)); break;
    }
  }
  rc.lap();
  for (int pass = 0; pass < I.mix.replay_passes; ++pass) {
    if (pass > 0 && pass % kPassesPerLap == 0) rc.lap();
    // Request spans for the first replay, one span per later replay: the
    // span file of a traced run stays small.
    Scope pass_span(pass > 0 ? rc.tracer : nullptr, "serve.replay_pass");
    Tracer* request_tracer = pass == 0 ? rc.tracer : nullptr;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      t.op();
      double us = 0;
      const std::string reply =
          I.call(lines[i].text, request_tracer, lines[i].id, &us);
      hit_us.push_back(us);
      t.check(check_hit_identical(cold[i], reply));
    }
  }
  I.end = I.server->counters();
  const std::uint64_t want_hits =
      static_cast<std::uint64_t>(I.mix.replay_passes) * lines.size();
  if (I.end.cache_hit - I.start.cache_hit != want_hits) {
    t.check("replayed requests did not all hit the cache");
  }
}

void ServeSession::probe(const RoundCtx& rc, Tally& t) {
  Impl& I = *impl_;
  const std::vector<Line>& lines = I.lines;
  const std::vector<std::string>& cold = I.cold;
  I.hits = static_cast<double>(I.end.cache_hit - I.start.cache_hit);
  I.misses = static_cast<double>(I.end.cache_miss - I.start.cache_miss);
  {
    Scope span(rc.tracer, "serve.json.parse");
    for (int rep = 0; rep < kProbeReps; ++rep) {
      for (const Line& l : lines) (void)Json::parse(l.text);
    }
  }
  I.parse_items = kProbeReps * lines.size();
  std::vector<std::uint64_t> keys;
  for (const Line& l : lines) {
    keys.push_back(serve::cache_key(serve::parse_request(l.text)));
  }
  bool all_found = true;
  {
    Scope span(rc.tracer, "serve.cache.get");
    std::string result, reason;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      for (std::uint64_t k : keys) {
        all_found &= I.server->cache().lookup(k, &result, &reason);
      }
    }
  }
  t.check(all_found ? "" : "cache lookup probe missed a stored entry");
  I.get_items = kProbeReps * keys.size();
  {
    Scope span(rc.tracer, "serve.cache.put");
    for (std::size_t i = 0; i < keys.size(); ++i) {
      I.probe_cache->store(keys[i], cold[i]);
    }
  }
  I.put_items = keys.size();

  // The exec pool on this round's simulate cells, with the daemon's worker
  // count: run_jobs records queue wait, job wall time and utilization into
  // the process registry while it is installed.
  std::vector<std::function<void()>> jobs;
  std::vector<int> ran(lines.size(), 0);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].kind != Line::kSimulate) continue;
    jobs.push_back([&, i] {
      capmem::check::WorkloadSpec spec;
      spec.threads = kSimThreads;
      spec.ops_per_thread = kSimOps;
      spec.seed = lines[i].seed;
      spec.machine = kMachine;
      ran[i] = capmem::check::run_workload(spec, nullptr).ran ? 1 : 2;
    });
  }
  capmem::obs::set_process_registry(rc.exec_reg);
  {
    Scope span(rc.tracer, "exec.run_jobs");
    capmem::exec::run_jobs_collect(std::move(jobs), 2);
  }
  capmem::obs::set_process_registry(nullptr);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].kind == Line::kSimulate && ran[i] != 1) {
      t.check("exec probe cell did not run: " + lines[i].text);
    }
  }
}

void ServeSession::layer_values(const Tracer& tr, std::size_t from,
                                LayerValues& out) const {
  const Impl& I = *impl_;
  out["serve.json.parse_us"] =
      tr.total("serve.json.parse", from) * 1e6 / I.parse_items;
  out["serve.cache.get_us"] =
      tr.total("serve.cache.get", from) * 1e6 / I.get_items;
  out["serve.cache.put_us"] =
      tr.total("serve.cache.put", from) * 1e6 / I.put_items;
  out["serve.cache.hit"] = I.hits;
  out["serve.cache.miss"] = I.misses;
  out["serve.hit_ratio"] = I.hits / (I.hits + I.misses);
}

}  // namespace capbench
