#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <set>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so a
  // program started by a larger parent (run.py's Python) would report the
  // parent's peak until its own exceeded it.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::size_t cpu_turn = 0;  // CpuRotation's turn, kept across rotations

bool set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() >= 2) set_cpus(cpus_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  set_cpus({cpus_[cpu_turn++ % cpus_.size()]});
}

Percentile tail_percentile(std::span<const double> v, double wanted) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  const double n = static_cast<double>(v.size());
  out.percentile = std::clamp(std::min(wanted, 100.0 * (1.0 - 10.0 / n)), 0.0, 100.0);
  out.value = stob::stats::percentile(v, out.percentile);
  return out;
}

bool Tally::add_pass(std::uint64_t ops, std::uint64_t op_failures, const std::string& digest,
                     bool checks_ok) {
  if (reference_.empty()) reference_ = digest;
  attempted_ += ops;
  const bool pass_ok = checks_ok && digest == reference_;
  failed_ += pass_ok ? std::min(op_failures, ops) : ops;
  return pass_ok;
}

double Tally::failed_share() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

void Digest::add(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  sha_.update(b, sizeof b);
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  sha_.update(s);
}

namespace {
bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}
}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name)) throw std::invalid_argument("bad metric name: " + m.name);
    const bool unit_ok =
        !m.unit.empty() && m.unit.size() <= 16 &&
        std::all_of(m.unit.begin(), m.unit.end(), [](char c) {
          return alnum(c) || c == '_' || c == '.' || c == '-' || c == '/' || c == '%';
        });
    if (!unit_ok) throw std::invalid_argument("bad unit for " + m.name + ": " + m.unit);
    if (!seen.insert(m.name).second) throw std::invalid_argument("duplicate metric: " + m.name);
    if (!std::isfinite(m.value)) throw std::invalid_argument("non-finite metric: " + m.name);
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
