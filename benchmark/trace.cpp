#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace capbench {

double Tracer::total(const std::string& name, std::size_t from) const {
  double sum = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) sum += spans_[i].end_s - spans_[i].start_s;
  }
  return sum;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  // Children of one span never overlap (the benchmark is single-threaded
  // and spans nest), so the covered part is the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name.substr(0, s.name.find('.'))] +=
        (s.end_s - s.start_s) - child[i];
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os.flush());
}

}  // namespace capbench
