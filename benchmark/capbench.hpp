// Shared types of the capmem benchmark driver (see README.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace.hpp"

namespace capbench {

/// Times a round in segments. lap() closes the current segment and runs a
/// fixed calibration (no code under test, see main.cpp), then adds the
/// segment's host time both as measured and scaled to the reference host
/// speed by that calibration. The calibration's own time is in neither.
class Stopwatch {
 public:
  void start() {
    raw_ = scaled_ = 0;
    last_ = Clock::now();
  }
  void lap();
  double raw() const { return raw_; }
  double scaled() const { return scaled_; }
  /// Every calibration time so far (s).
  const std::vector<double>& calibrations() const { return calib_; }

 private:
  Clock::time_point last_;
  double raw_ = 0, scaled_ = 0;
  std::vector<double> calib_;
};

/// What one round may use. Untraced rounds get null observers, so the same
/// code runs with and without observation.
struct RoundCtx {
  int round = 0;
  Tracer* tracer = nullptr;
  capmem::obs::Registry* sim_reg = nullptr;   ///< MachineConfig::metrics
  capmem::obs::Registry* exec_reg = nullptr;  ///< exec process registry
  Stopwatch* watch = nullptr;
  /// Ends a timed segment of the round; called outside every span, so the
  /// calibration never counts in a layer's time.
  void lap() const {
    if (watch != nullptr) watch->lap();
  }
};

/// Operation counts, correctness verdicts and the digest of the simulated
/// outputs of the current round.
class Tally {
 public:
  void op() { ++attempted_; }
  void failed_op(const std::string& why);
  /// Records a correctness check; an empty `why` is a pass.
  void check(const std::string& why);
  void mix(double v);
  void mix(const std::string& s);

  void start_round() { digest_ = 1469598103934665603ull; }
  std::uint64_t digest() const { return digest_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return wrong_ == 0; }

 private:
  void mix_bytes(const void* p, std::size_t n);
  std::uint64_t attempted_ = 0, failed_ = 0, wrong_ = 0;
  std::uint64_t digest_ = 1469598103934665603ull;
};

/// Request counts of the serve session that runs inside every workload
/// (the default is the small side session of the paper workloads).
struct ServeMix {
  int simulate = 2;
  int predict = 4;
  int fit = 4;
  int replay_passes = 100;  ///< replays of the round's lines, all hits
};

/// Per-layer values of one traced round, by metric name.
using LayerValues = std::map<std::string, double>;

class ServeSession;

/// One benchmark workload: its setup runs in the constructor, and round()
/// runs one fixed set of operations (whole rounds are what a run repeats).
class Workload {
 public:
  virtual ~Workload() = default;
  /// The workload's own operations; their host time is `wall_s`.
  virtual void round(const RoundCtx& rc, Tally& t) = 0;
  /// True when every round runs the same inputs, so every round's
  /// simulated outputs must be identical.
  virtual bool rounds_repeat() const { return true; }
  /// True when the serve session runs beside the workload's own operations
  /// in every round (false when the serve session is the workload).
  virtual bool side_serve() const { return true; }
  /// Workload-specific per-layer values of a traced round.
  virtual void layer_values(const Tracer& tr, std::size_t from,
                            LayerValues& out) const = 0;
  /// Builds and times the machine of the `sim` layer probe; its counts go
  /// into `reg`.
  virtual void sim_probe(LayerValues& out,
                         capmem::obs::Registry& reg) const = 0;

  ServeSession& serve() { return *serve_; }

 protected:
  std::unique_ptr<ServeSession> serve_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir,
                                        Tracer* tracer);

/// The serve session's end-to-end samples and per-layer values.
class ServeSession {
 public:
  /// Starts an in-process serve::Server with a fresh cache under `dir` and
  /// warms the daemon's model for the session's machine (part of set-up).
  ServeSession(const std::string& dir, std::uint64_t seed, ServeMix mix,
               Tracer* tracer);
  ~ServeSession();
  /// Fits the benchmark's own reference model for checking predict replies
  /// (after set-up is timed: it is checking work, not the daemon's set-up).
  void fit_reference(Tracer* tracer);
  void round(const RoundCtx& rc, Tally& t);
  /// Per-layer probes on the last round's lines (parse, cache lookup and
  /// store, exec pool); run after the round's time is taken.
  void probe(const RoundCtx& rc, Tally& t);
  void layer_values(const Tracer& tr, std::size_t from,
                    LayerValues& out) const;

  std::vector<double> hit_us, simulate_ms, inline_us;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace capbench
