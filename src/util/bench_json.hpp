// Reader and regression gate for the perf-trajectory snapshots
// (BENCH_*.json) that bench/perf_suite emits.
//
// This is deliberately a schema-specific reader, not a general JSON parser:
// it understands exactly the "stob-bench-v1" layout our own emitter writes
// (top-level git_rev/smoke and a flat "benchmarks" array of one-line
// objects). Snapshots written before perf_suite dropped --baseline also
// carry a nested "baseline" snapshot and synthetic ".speedup_vs_baseline"
// rows: parsing stops at the "baseline" key so embedded entries are never
// double-counted, and the synthetic rows are skipped.
//
// bench/perf_report uses compare() + gate() to turn two snapshots into a
// speedup table and a CI exit code; tests drive the same functions with
// hand-built snapshots (including an injected synthetic regression).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace stob::bench {

struct BenchEntry {
  std::string name;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::uint64_t allocs = 0;
  int iters = 0;
};

struct BenchSnapshot {
  std::string git_rev;
  bool smoke = false;
  std::vector<BenchEntry> entries;

  const BenchEntry* find(std::string_view name) const;
};

/// Parse a stob-bench-v1 snapshot. Throws std::runtime_error when the text
/// is not recognisably that schema (missing "benchmarks" array).
BenchSnapshot parse_snapshot(std::string_view json);
BenchSnapshot load_snapshot(const std::filesystem::path& path);

/// One row of a baseline-vs-fresh comparison. `ratio` is
/// fresh.events_per_sec / baseline.events_per_sec — > 1 is a speedup.
struct Comparison {
  std::string name;
  double baseline_eps = 0.0;
  double fresh_eps = 0.0;
  double ratio = 0.0;
};

/// Pair up every baseline entry with the same-named fresh entry, in
/// baseline order. Baseline entries missing from the fresh run get
/// fresh_eps == 0 and ratio == 0 (the coverage gate below flags them).
/// Fresh-only entries follow the baseline rows, in fresh order, with
/// baseline_eps == 0 and ratio == 0 — a newly added benchmark is reported,
/// not silently dropped from the table.
std::vector<Comparison> compare(const BenchSnapshot& baseline, const BenchSnapshot& fresh);

struct GateOptions {
  /// Largest tolerated slowdown: a benchmark fails when its fresh
  /// events/sec drops below (1 - max_regression) x baseline. 0.25 absorbs
  /// normal run-to-run noise on shared runners while still catching the
  /// step changes a bad commit causes.
  double max_regression = 0.25;
  /// When false (default) the throughput gate only applies if both
  /// snapshots have the same smoke flag — full-run numbers are not
  /// comparable to smoke numbers, but the coverage gate still applies.
  bool ignore_smoke_mismatch = false;
};

struct GateResult {
  bool ok = true;
  /// Baseline benchmarks absent from the fresh run (coverage failures).
  std::vector<std::string> missing;
  /// Benchmarks whose ratio fell below the regression threshold.
  std::vector<Comparison> regressions;
  /// Candidate-only benchmarks (present fresh, absent from the baseline).
  /// Purely informational: a suite gaining coverage must never fail the
  /// gate — only losing coverage (`missing`) does.
  std::vector<std::string> added;
  /// True when the throughput gate was skipped due to a smoke mismatch.
  bool ratios_skipped = false;
};

/// Evaluate the regression gate over a comparison table.
GateResult gate(const BenchSnapshot& baseline, const BenchSnapshot& fresh,
                const GateOptions& opts = {});

}  // namespace stob::bench
