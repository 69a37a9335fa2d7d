#include "common/cli.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "common/check.hpp"

namespace capmem {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    CAPMEM_CHECK_MSG(arg.rfind("--", 0) == 0,
                     "options must start with --, got '" << arg << "'");
    arg = arg.substr(2);
    if (arg == "help") {
      help_requested_ = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

std::string Cli::get_string(const std::string& name, std::string def,
                            const std::string& help) {
  declared_[name] = {help, def};
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          const std::string& help) {
  declared_[name] = {help, std::to_string(def)};
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& s = it->second;
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) {
    throw CheckError("option --" + name + " expects an integer, got '" + s +
                     "'");
  }
  return v;
}

double Cli::get_double(const std::string& name, double def,
                       const std::string& help) {
  declared_[name] = {help, std::to_string(def)};
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || errno != 0 || end != s.c_str() + s.size()) {
    throw CheckError("option --" + name + " expects a number, got '" + s +
                     "'");
  }
  return v;
}

bool Cli::get_flag(const std::string& name, bool def,
                   const std::string& help) {
  declared_[name] = {help, def ? "true" : "false"};
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

int Cli::get_jobs(int def) {
  const std::int64_t v = get_int(
      "jobs", def,
      "parallel experiment jobs (0 = all hardware threads); results are "
      "identical for every value");
  if (v <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return static_cast<int>(v);
}

LogLevel Cli::get_log_level() {
  const std::string s = get_string(
      "log-level", "",
      "stderr log verbosity: error, warn, info, debug (default: $CAPMEM_LOG "
      "or info)");
  if (s.empty()) return log_level();
  const LogLevel level = log_level_from_string(s);
  set_log_level(level);
  return level;
}

void Cli::finish() {
  if (help_requested_) {
    std::cout << "usage: " << program_ << " [options]\n";
    for (const auto& [name, decl] : declared_) {
      std::cout << "  --" << name << " (default: " << decl.def << ")";
      if (!decl.help.empty()) std::cout << "  " << decl.help;
      std::cout << '\n';
    }
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    CAPMEM_CHECK_MSG(declared_.count(name) != 0,
                     "unknown option --" << name);
  }
}

}  // namespace capmem
