// Benchmark harness helpers: clocks, percentiles, failure accounting,
// output digests and the result line. Everything here is independent of
// the simulator so the tests in test_harness.cpp can pin it down.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/sha256.hpp"

namespace perfbench {

/// Seconds on the monotonic clock.
double wall_now();
/// Seconds of CPU time used by the whole process (all threads).
double cpu_now();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// While alive, pins the calling thread to one CPU at a time, moving it
/// round robin over the CPUs the thread was allowed when the rotation began;
/// gives the thread that whole set back when it ends. On a shared host each
/// CPU is slowed by its neighbours on its own, for seconds at a time, so a
/// single-threaded pass that moves over all CPUs averages their slow spells
/// instead of riding one. The turn carries over from one rotation to the
/// next, so short passes still visit every CPU.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the thread to the next CPU. No-op with fewer than two CPUs.
  void next();
  /// The CPUs rotated over, ascending.
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  std::vector<int> cpus_;
};

/// A tail percentile that is only reported where it is backed by data.
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;  ///< the percentile actually reported
  std::size_t samples = 0;
};

/// The `wanted` percentile of `v`, lowered to the highest percentile that
/// still has at least ten samples beyond it (p <= 100 * (1 - 10 / n)), so a
/// "p99" from 200 samples is reported honestly as the p95. Linear
/// interpolation as stats::percentile (type 7). Below eleven samples no
/// percentile has ten beyond it and the minimum (p0) is reported.
Percentile tail_percentile(std::span<const double> v, double wanted);

/// Failure accounting over the passes of one run. A pass whose output
/// digest differs from the first pass's, or which broke a workload-level
/// check, counts all of its operations as failed; otherwise only the
/// operations that failed on their own count.
class Tally {
 public:
  /// Record one pass. Returns false when the whole pass counted as failed.
  bool add_pass(std::uint64_t ops, std::uint64_t op_failures, const std::string& digest,
                bool checks_ok = true);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed / attempted, 0 before any pass.
  double failed_share() const;
  const std::string& reference_digest() const { return reference_; }

 private:
  std::string reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// SHA-256 over a canonical byte stream of a pass's outputs. Doubles are
/// hashed as their bit patterns, so two outputs hash equal only when they
/// are bit-identical.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  std::string hex() { return sha_.hex_digest(); }

 private:
  stob::util::Sha256 sha_;
};

/// True when `name` matches [A-Za-z0-9_.-]+, starts with a letter or digit
/// and is at most 64 characters long.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's final stdout line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics. Throws std::invalid_argument on
/// an invalid metric name, a duplicate name or a non-finite value.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
