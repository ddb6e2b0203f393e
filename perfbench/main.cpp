// Benchmark program: perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One run sets up the workload at least three times and until set-ups have
// taken kSetupSeconds (inputs from the seed plus one warm-up pass each;
// setup_s is the median), then repeats fixed-size passes
// until S seconds have been measured. With --trace 0 it reports the
// end-to-end metrics of untraced passes. With --trace 1 it alternates
// untraced and span-traced passes, ends with one single-threaded counting
// pass, and reports the per-layer metrics. Every pass prints its output
// digest; a pass whose digest differs from the first counts as failed. The
// last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "util/buffer_pool.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using stob::obs::ProfRecord;
using stob::stats::median;

constexpr int kMinSetups = 3;
constexpr double kSetupSeconds = 6.0;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      throw std::invalid_argument("bad number for " + flag + ": " + value);
    }
    seen.insert(flag);
  }
  if (seen.size() != 4) {
    throw std::invalid_argument("need --workload, --seed, --seconds and --trace");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

// ------------------------------------------------------------ per-layer

/// Each per-layer metric with its unit and the end-to-end metric and
/// workload it should move (README.md explains the map).
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr LayerSpec kLayers[] = {
    {"exp.job_ms_p50", "ms", "wall_s,throughput_per_s@pageload_grid"},
    {"exp.job_ms_p99", "ms", "wall_s,throughput_per_s@pageload_grid"},
    {"exp.job_ms_percentile", "pct", "reported tail percentile (>=10 samples beyond)"},
    {"exp.job_samples", "count", "sample count behind exp.job_ms_*"},
    {"exp.parallel_efficiency", "ratio", "wall_s,throughput_per_s@pageload_grid"},
    {"sim.events_per_load", "count", "throughput_per_s@pageload_grid"},
    {"sim.ns_per_event", "ns", "throughput_per_s@pageload_grid"},
    {"alloc.per_event", "count", "cpu_s@pageload_grid"},
    {"alloc.per_wire_packet", "count", "cpu_s@bulk_tso"},
    {"mem.pool_misses", "count", "cpu_s@pageload_grid"},
    {"tcp.segments_sent", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"tcp.retransmissions", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"tcp.rto_fires", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"tls.records_sealed", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"qdisc.enqueued", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"qdisc.drops", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"qdisc.sojourn_us", "us", "throughput_per_s@pageload_grid,bulk_tso"},
    {"nic.tso_splits", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"wire.packets", "count", "throughput_per_s@pageload_grid,bulk_tso"},
    {"workload.bulk_ms.a0", "ms", "throughput_per_s@bulk_tso"},
    {"workload.bulk_ms.a50", "ms", "throughput_per_s@bulk_tso"},
    {"workload.bulk_ms.a100", "ms", "throughput_per_s@bulk_tso"},
    {"workload.incomplete_loads", "count", "failed_share@pageload_grid"},
    {"core.policy_calls", "count", "throughput_per_s@bulk_tso"},
    {"core.policy_ns_per_call", "ns", "throughput_per_s@bulk_tso"},
    {"core.guard_clamps", "count", "failed_share@bulk_tso"},
    {"fault.invariant_violations", "count", "failed_share@pageload_grid"},
    {"wf.features.self_ms", "ms", "throughput_per_s@kfp_eval"},
    {"wf.fit.self_ms", "ms", "throughput_per_s@kfp_eval"},
    {"wf.predict.self_ms", "ms", "throughput_per_s@kfp_eval"},
    {"wf.leaf_index.self_ms", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.split", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.delay", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.combined", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.FRONT", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.BuFLO", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.Tamaraw", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.ALPaCA-pad", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.regulator", "ms", "throughput_per_s@kfp_eval"},
    {"defenses.apply_ms.wtfpad", "ms", "throughput_per_s@kfp_eval"},
    {"bench.tracing_overhead", "ratio", "traced wall / untraced wall - 1, this workload"},
    {"failed_share", "ratio", "failed / attempted, this workload"},
};

// Spans the benchmark opens around module calls, and the metric each feeds.
const std::map<std::string, std::string> kSpanMetrics = {
    {"wf.features", "wf.features.self_ms"},
    {"wf.fit", "wf.fit.self_ms"},
    {"wf.predict", "wf.predict.self_ms"},
    {"wf.leaf_index", "wf.leaf_index.self_ms"},
    {"bench.bulk.a0", "workload.bulk_ms.a0"},
    {"bench.bulk.a50", "workload.bulk_ms.a50"},
    {"bench.bulk.a100", "workload.bulk_ms.a100"},
    {"bench.defense.split", "defenses.apply_ms.split"},
    {"bench.defense.delay", "defenses.apply_ms.delay"},
    {"bench.defense.combined", "defenses.apply_ms.combined"},
    {"bench.defense.FRONT", "defenses.apply_ms.FRONT"},
    {"bench.defense.BuFLO", "defenses.apply_ms.BuFLO"},
    {"bench.defense.Tamaraw", "defenses.apply_ms.Tamaraw"},
    {"bench.defense.ALPaCA-pad", "defenses.apply_ms.ALPaCA-pad"},
    {"bench.defense.regulator", "defenses.apply_ms.regulator"},
    {"bench.defense.wtfpad", "defenses.apply_ms.wtfpad"},
};

/// Self time in ms per span name. A worker pool's "job" spans are
/// transparent: their time belongs to the nearest named ancestor, so
/// wf.fit's self time includes its per-tree pool jobs.
std::map<std::string, double> self_ms(const std::vector<ProfRecord>& recs) {
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < recs.size(); ++i) by_id[recs[i].id] = i;
  std::vector<double> child_ns(recs.size(), 0.0);
  for (const ProfRecord& r : recs) {
    if (r.name == "job" || r.wall_ns < 0) continue;
    std::uint64_t parent = r.parent;
    while (parent != 0) {
      const std::size_t p = by_id.at(parent);
      if (recs[p].name != "job") {
        child_ns[p] += static_cast<double>(r.wall_ns);
        break;
      }
      parent = recs[p].parent;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].name == "job" || recs[i].wall_ns < 0) continue;
    out[recs[i].name] += (static_cast<double>(recs[i].wall_ns) - child_ns[i]) / 1e6;
  }
  return out;
}

/// What one traced pass contributes: per-pass values (medianed over the
/// traced passes) and grid job durations (pooled for the percentiles).
struct TracedPass {
  std::map<std::string, double> values;
  std::vector<double> job_ms;
};

TracedPass read_traced(const stob::obs::Profiler& prof, const PassOutput& out) {
  TracedPass t;
  const std::vector<ProfRecord>& recs = prof.records();
  std::map<std::uint64_t, const ProfRecord*> by_id;
  for (const ProfRecord& r : recs) by_id[r.id] = &r;

  for (const auto& [span, ms] : self_ms(recs)) {
    const auto it = kSpanMetrics.find(span);
    if (it != kSpanMetrics.end()) t.values[it->second] = ms;
  }
  // exp: the grid's jobs are the "job" spans directly under "grid.run".
  double grid_ns = 0.0;
  double jobs_ns = 0.0;
  double page_load_ns = 0.0;
  for (const ProfRecord& r : recs) {
    if (r.name == "grid.run") grid_ns += static_cast<double>(r.wall_ns);
    if (r.name == "page_load") page_load_ns += static_cast<double>(r.wall_ns);
    if (r.name == "job" && r.parent != 0 && by_id.at(r.parent)->name == "grid.run") {
      jobs_ns += static_cast<double>(r.wall_ns);
      t.job_ms.push_back(static_cast<double>(r.wall_ns) / 1e6);
    }
  }
  const double workers = prof.harness().gauge("exp.pool.workers");
  if (grid_ns > 0.0 && workers > 0.0) {
    t.values["exp.parallel_efficiency"] = jobs_ns / (workers * grid_ns);
  }
  if (out.sim_events > 0) {
    t.values["sim.ns_per_event"] = page_load_ns / static_cast<double>(out.sim_events);
  }
  for (const auto& [name, v] : out.layer) t.values[name] = v;
  return t;
}

/// Values of the single-threaded counting pass: exact counts.
std::map<std::string, double> read_counting(const stob::obs::MetricsRegistry& m,
                                            std::uint64_t allocs, std::uint64_t pool_misses,
                                            const PassOutput& out) {
  std::map<std::string, double> v;
  for (const char* c : {"tcp.segments_sent", "tcp.retransmissions", "tcp.rto_fires",
                        "tls.records_sealed", "qdisc.enqueued", "qdisc.drops", "nic.tso_splits",
                        "wire.packets"}) {
    v[c] = static_cast<double>(m.counter(c));
  }
  const auto* sojourn = m.distribution("qdisc.sojourn_us");
  v["qdisc.sojourn_us"] = sojourn != nullptr ? sojourn->mean() : 0.0;
  v["mem.pool_misses"] = static_cast<double>(pool_misses);
  const auto per = [](double n, double d) { return d > 0.0 ? n / d : 0.0; };
  v["alloc.per_event"] = per(static_cast<double>(allocs), static_cast<double>(out.sim_events));
  v["alloc.per_wire_packet"] = per(static_cast<double>(allocs), v["wire.packets"]);
  for (const auto& [name, value] : out.layer) v[name] = value;
  return v;
}

void print_digest(const char* kind, int index, const PassOutput& out, bool ok) {
  std::printf("digest %-8s %3d %s%s\n", kind, index, out.digest.c_str(), ok ? "" : "  FAILED");
}

int run(const Args& args) {
  Tally tally;
  const auto record = [&](const char* kind, int index, const PassOutput& out) {
    print_digest(kind, index, out, tally.add_pass(out.ops, out.op_failures, out.digest,
                                                  out.checks_ok));
  };

  // Set-up: inputs from the seed plus one warm-up pass, several times.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const double setup_start = wall_now();
  for (int k = 0; k < kMinSetups || wall_now() - setup_start < kSetupSeconds; ++k) {
    w.reset();
    const double t0 = wall_now();
    w = make_workload(args.workload, args.seed);
    const PassOutput warm = w->pass(Mode::Untraced);
    setup_s.push_back(wall_now() - t0);
    record("warmup", k, warm);
  }

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> work;
  std::vector<double> traced_wall_s;
  std::vector<TracedPass> traced;
  const double start = wall_now();
  for (int i = 0; wall_now() - start < args.seconds || i < kMinPasses; ++i) {
    const double c0 = cpu_now();
    const double t0 = wall_now();
    const PassOutput out = w->pass(Mode::Untraced);
    wall_s.push_back(wall_now() - t0);
    cpu_s.push_back(cpu_now() - c0);
    work.push_back(out.work);
    record("pass", i, out);
    std::fprintf(stderr, "pass %d: wall %.4f s, cpu %.4f s\n", i, wall_s.back(), cpu_s.back());
    if (args.trace) {
      stob::obs::Profiler prof;
      const double t1 = wall_now();
      const PassOutput tout = [&] {
        stob::obs::ScopedProfiler guard(prof);
        return w->pass(Mode::Traced);
      }();
      traced_wall_s.push_back(wall_now() - t1);
      traced.push_back(read_traced(prof, tout));
      record("traced", i, tout);
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double wall = median(wall_s);
    metrics = {
        {"throughput_per_s", median(work) / wall, "1/s"},
        {"wall_s", wall, "s"},
        {"cpu_s", median(cpu_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("passes %zu, setups %zu (medians reported)\n", wall_s.size(), setup_s.size());
  } else {
    stob::obs::MetricsRegistry registry;
    const std::uint64_t allocs0 = thread_allocs();
    const std::uint64_t misses0 = stob::mem::pool_stats().misses;
    const PassOutput counted = [&] {
      stob::obs::ScopedMetrics guard(registry);
      return w->pass(Mode::Counting);
    }();
    const std::uint64_t allocs = thread_allocs() - allocs0;
    const std::uint64_t misses = stob::mem::pool_stats().misses - misses0;
    record("counting", 0, counted);

    // Medians over the traced passes, then the counting pass's exact counts,
    // which win where both report a value.
    std::map<std::string, std::vector<double>> series;
    std::vector<double> job_ms;
    for (const TracedPass& t : traced) {
      for (const auto& [name, v] : t.values) series[name].push_back(v);
      job_ms.insert(job_ms.end(), t.job_ms.begin(), t.job_ms.end());
    }
    std::map<std::string, double> values;
    for (const auto& [name, vs] : series) values[name] = median(vs);
    for (const auto& [name, v] : read_counting(registry, allocs, misses, counted)) {
      values[name] = v;
    }
    if (!job_ms.empty()) {
      const Percentile p50 = tail_percentile(job_ms, 50.0);
      const Percentile p99 = tail_percentile(job_ms, 99.0);
      values["exp.job_ms_p50"] = p50.value;
      values["exp.job_ms_p99"] = p99.value;
      values["exp.job_ms_percentile"] = p99.percentile;
      values["exp.job_samples"] = static_cast<double>(p99.samples);
    }
    values["bench.tracing_overhead"] = median(traced_wall_s) / median(wall_s) - 1.0;
    values["failed_share"] = tally.failed_share();

    std::printf("%-30s %16s %-6s %s\n", "per-layer metric", "value", "unit", "should move");
    std::set<std::string> known;
    for (const LayerSpec& l : kLayers) {
      known.insert(l.name);
      const auto it = values.find(l.name);
      const double v = it == values.end() ? 0.0 : it->second;
      metrics.push_back({l.name, v, l.unit});
      std::printf("%-30s %16.6g %-6s %s\n", l.name, v, l.unit, l.moves);
    }
    for (const auto& [name, v] : values) {
      if (known.count(name) == 0) throw std::logic_error("metric missing from catalog: " + name);
    }
  }
  std::printf("%s\n", result_line(tally.failed() == 0, tally.attempted(), tally.failed(),
                                  metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
