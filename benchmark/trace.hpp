// Host-time spans for the benchmark's traced runs.
//
// Spans are recorded only by the benchmark's own files, around its calls
// into each capmem module's public functions: name, start, end, the
// enclosing span and (for serve requests) the request id. They stay in
// memory until the run ends and are then written to one Chrome-trace JSON
// file. A span's layer is its name up to the first '.', and its self time
// is its duration minus the time covered by its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace capbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;  ///< relative to the tracer's origin
    double end_s = 0;
    int parent = -1;
    std::int64_t request = -1;  ///< serve request id, -1 when none
  };

  Tracer() : origin_(Clock::now()) {}

  int begin(std::string name, std::int64_t request = -1) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(
        {std::move(name), seconds_since(origin_), 0, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span named `name` that starts at or after
  /// span index `from`.
  double total(const std::string& name, std::size_t from = 0) const;
  /// Self time per layer over all spans.
  std::map<std::string, double> self_time_by_layer() const;
  /// Writes every span as a Chrome-trace "X" event; false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span; a null tracer makes it a no-op, which is how untraced runs
/// execute the same code.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::int64_t request = -1)
      : t_(t), id_(t ? t->begin(name, request) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace capbench
