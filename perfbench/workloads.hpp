// The benchmark's three closed-loop batch workloads. Each one builds its
// inputs from the seed in its constructor (the timed set-up) and then runs
// passes of a fixed amount of work; README.md says why each was chosen and
// which layers it exercises.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

/// How a pass is instrumented. The end-to-end metrics come from Untraced
/// passes only.
enum class Mode {
  Untraced,  ///< no sinks installed: the program as a user runs it
  Traced,    ///< spans only (the caller installs an obs::Profiler)
  Counting,  ///< the caller installs an obs::MetricsRegistry and counts
             ///< allocations on its thread; single-threaded, so counts
             ///< repeat exactly. pageload_grid also runs its invariant check.
};

struct PassOutput {
  std::uint64_t ops = 0;          ///< operations attempted in the pass
  std::uint64_t op_failures = 0;  ///< operations that failed on their own
  bool checks_ok = true;          ///< workload-level output checks held
  std::string digest;             ///< SHA-256 over the pass's outputs
  double work = 0.0;              ///< units counted by throughput_per_s
  std::uint64_t sim_events = 0;   ///< simulator events, where observable
  /// Workload-specific per-layer values: counts on Counting passes,
  /// per-pass timings on Traced passes.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual PassOutput pass(Mode mode) = 0;
};

/// Build the named workload's inputs from `seed`. Throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
