#include "workloads.hpp"

#include <chrono>
#include <stdexcept>
#include <vector>

#include "core/cca_guard.hpp"
#include "core/policies.hpp"
#include "defenses/baselines.hpp"
#include "exp/experiment.hpp"
#include "fault/fault.hpp"
#include "harness.hpp"
#include "obs/prof.hpp"
#include "wf/kfp.hpp"
#include "workload/bulk.hpp"
#include "workload/website.hpp"

namespace perfbench {
namespace {

using namespace stob;

// Input sizes. BENCHMARK.json states them; change both together.
constexpr std::size_t kGridSamples = 8;    // pageload_grid: 9 sites x 8 x 3 CCAs x 2 faults
constexpr std::size_t kGridJobs = 2;       // pageload_grid worker threads
constexpr int kAlphas[] = {0, 50, 100};    // bulk_tso reduction degrees
constexpr std::size_t kKfpSamples = 40;    // kfp_eval: 9 sites x 40 clean reno loads,
constexpr std::size_t kKfpPerSite = 30;    //   sanitised, then the first 30 per site
constexpr std::size_t kKfpTrees = 30;
constexpr std::size_t kKfpFolds = 3;
// Picked by name so that removing other zoo entries does not change the work.
const char* const kDefenses[] = {"split",      "delay",     "combined", "FRONT",  "BuFLO",
                                 "Tamaraw",    "ALPaCA-pad", "regulator", "wtfpad"};

void hash_trace(Digest& d, const wf::Trace& t) {
  d.add(static_cast<std::uint64_t>(t.size()));
  for (const wf::PacketRecord& p : t.packets()) {
    d.add(p.time);
    d.add(static_cast<std::uint64_t>(p.direction));
    d.add(static_cast<std::uint64_t>(p.size));
  }
}

void hash_eval(Digest& d, const std::string& name, const wf::EvalResult& e) {
  d.add(name);
  d.add(e.mean_accuracy);
  d.add(e.std_accuracy);
  for (double a : e.fold_accuracies) d.add(a);
  const auto k = static_cast<int>(e.confusion.classes());
  for (int t = 0; t < k; ++t) {
    for (int p = 0; p < k; ++p) d.add(e.confusion.at(t, p));
  }
}

// --------------------------------------------------------- pageload_grid

class PageloadGrid final : public Workload {
 public:
  explicit PageloadGrid(std::uint64_t seed) {
    grid_.sites = workload::nine_sites();
    grid_.samples = kGridSamples;
    grid_.ccas = {"reno", "cubic", "bbr"};
    const std::vector<fault::PathProfile> scenarios = fault::all_scenarios();
    grid_.faults = {scenarios.at(0), scenarios.at(1)};  // clean, bursty loss
    grid_.base_seed = seed;
    run_.page.tls_records = true;
    run_.jobs = kGridJobs;
  }

  PassOutput pass(Mode mode) override {
    if (mode != Mode::Counting) return summarize(exp::run_grid(grid_, run_));
    exp::RunOptions serial = run_;
    serial.jobs = 1;
    PassOutput out = summarize(exp::run_grid(grid_, serial));
    // The invariant checker costs about 8x a plain pass, so it runs in a
    // second grid run on the pool's worker threads. Its allocations and
    // metrics then stay out of the counting figures, which are recorded on
    // this thread. Its traces must hash the same as the counted ones.
    exp::RunOptions checked = run_;
    checked.check_invariants = true;
    const PassOutput verified = summarize(exp::run_grid(grid_, checked));
    out.checks_ok = verified.digest == out.digest;
    out.op_failures = verified.op_failures;
    out.layer["fault.invariant_violations"] = verified.layer.at("fault.invariant_violations");
    out.layer["sim.events_per_load"] =
        static_cast<double>(out.sim_events) / static_cast<double>(out.ops);
    return out;
  }

 private:
  static PassOutput summarize(const std::vector<exp::JobResult>& results) {
    PassOutput out;
    Digest digest;
    std::uint64_t incomplete = 0;
    std::uint64_t violations = 0;
    for (const exp::JobResult& r : results) {
      digest.add(static_cast<std::uint64_t>(r.completed));
      hash_trace(digest, r.trace);
      out.sim_events += r.sim_events;
      incomplete += r.completed ? 0 : 1;
      // A job whose stack broke an invariant produced a wrong trace.
      out.op_failures += r.invariant_violations > 0 ? 1 : 0;
      violations += r.invariant_violations;
    }
    out.ops = results.size();
    out.work = static_cast<double>(results.size());
    out.digest = digest.hex();
    out.layer["workload.incomplete_loads"] = static_cast<double>(incomplete);
    out.layer["fault.invariant_violations"] = static_cast<double>(violations);
    return out;
  }

  exp::ExperimentGrid grid_;
  exp::RunOptions run_;
};

// --------------------------------------------------------------- bulk_tso

/// Forwards to the wrapped policy, counting calls and, when `timed`, the
/// time spent inside it. Sits inside the guard, so it sees exactly the
/// decisions the guard then checks.
class CountingPolicy final : public core::Policy {
 public:
  CountingPolicy(core::Policy& inner, bool timed) : inner_(inner), timed_(timed) {}

  core::SegmentDecision on_segment(const core::SegmentContext& ctx) override {
    ++calls_;
    if (!timed_) return inner_.on_segment(ctx);
    const auto t0 = std::chrono::steady_clock::now();
    const core::SegmentDecision d = inner_.on_segment(ctx);
    ns_ += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    return d;
  }
  void on_flow_start(const net::FlowKey& flow) override { inner_.on_flow_start(flow); }
  void on_flow_end(const net::FlowKey& flow) override { inner_.on_flow_end(flow); }
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const { return calls_; }
  double ns() const { return ns_; }

 private:
  core::Policy& inner_;
  bool timed_;
  std::uint64_t calls_ = 0;
  double ns_ = 0.0;
};

class BulkTso final : public Workload {
 public:
  explicit BulkTso(std::uint64_t seed) {
    // figure3_throughput's settings; the seed moves the one-way delay within
    // +-2 us of its 25 us so each seed is a different (same-rack) path.
    Rng rng(seed);
    opt_.link_rate = DataRate::gbps(100);
    opt_.one_way_delay = Duration::nanos(25'000 + rng.uniform_int(-2'000, 2'000));
    opt_.sender_cpu = {Duration::nanos(1800), Duration::nanos(80), 0.0015};
    opt_.conn.cca = "bbr";
    opt_.warmup = Duration::millis(15);
    opt_.measure = Duration::millis(30);
  }

  PassOutput pass(Mode mode) override {
    PassOutput out;
    Digest digest;
    std::uint64_t calls = 0;
    std::uint64_t clamps = 0;
    double policy_ns = 0.0;
    double prev_goodput = 0.0;
    CpuRotation cpus;
    for (int alpha : kAlphas) {
      cpus.next();
      core::SweepSizePolicy::Config cfg;
      cfg.alpha = alpha;
      core::SweepSizePolicy sweep(cfg);
      CountingPolicy counter(sweep, mode == Mode::Traced);
      core::CcaGuard guard(mode == Mode::Untraced ? static_cast<core::Policy&>(sweep) : counter);
      workload::BulkTransferOptions opt = opt_;
      opt.conn.policy = &guard;

      const std::string span_name = "bench.bulk.a" + std::to_string(alpha);
      const workload::BulkTransferResult r = [&] {
        obs::ProfSpan span(span_name);
        return workload::run_bulk_transfer(opt);
      }();

      digest.add(static_cast<std::uint64_t>(alpha));
      digest.add(static_cast<std::uint64_t>(r.goodput.bits_per_sec()));
      digest.add(r.wire_packets);
      digest.add(r.tso_segments);
      // Figure 3's shape: goodput falls strictly as alpha grows.
      const double goodput = static_cast<double>(r.goodput.bits_per_sec());
      if (alpha != kAlphas[0] && !(goodput < prev_goodput)) out.checks_ok = false;
      prev_goodput = goodput;
      clamps += guard.segment_clamps() + guard.mss_clamps() + guard.departure_clamps();
      calls += counter.calls();
      policy_ns += counter.ns();
      out.work += static_cast<double>(r.wire_packets);
    }
    // The guard must never have to correct the sweep policy.
    if (clamps != 0) out.checks_ok = false;
    out.ops = std::size(kAlphas);
    out.digest = digest.hex();
    if (mode == Mode::Traced) {
      out.layer["core.policy_ns_per_call"] = calls > 0 ? policy_ns / static_cast<double>(calls) : 0;
    }
    if (mode == Mode::Counting) {
      out.layer["core.policy_calls"] = static_cast<double>(calls);
      out.layer["core.guard_clamps"] = static_cast<double>(clamps);
    }
    return out;
  }

 private:
  workload::BulkTransferOptions opt_;
};

// --------------------------------------------------------------- kfp_eval

class KfpEval final : public Workload {
 public:
  explicit KfpEval(std::uint64_t seed) : seed_(seed) {
    exp::ExperimentGrid grid;
    grid.sites = workload::nine_sites();
    grid.samples = kKfpSamples;
    grid.ccas = {"reno"};
    grid.base_seed = seed;
    exp::RunOptions run;
    run.jobs = 1;
    // table1_defenses' sanitisation, then a fixed count per site: the
    // trace count no longer moves with the seed, and the packet count moves
    // half as much (IQR over 12 seeds 2.4% instead of 5.4%).
    data_ = exp::to_dataset(exp::run_grid(grid, run))
                .sanitized_by_download_size(0.75)
                .balanced(kKfpPerSite);

    zoo_ = defenses::all_defenses();
    for (const char* name : kDefenses) {
      const defenses::TraceDefense* found = nullptr;
      for (const auto& d : zoo_) {
        if (d->name() == name) found = d.get();
      }
      if (found == nullptr) throw std::runtime_error(std::string("no defense named ") + name);
      chosen_.push_back(found);
    }
    forest_.forest.num_trees = kKfpTrees;
    knn_ = forest_;
    knn_.use_knn = true;
  }

  PassOutput pass(Mode /*mode*/) override {
    PassOutput out;
    Digest digest;
    CpuRotation cpus;
    const auto evaluate = [&](const std::string& name, const wf::Dataset& d,
                              const wf::KFingerprint::Config& cfg) {
      cpus.next();
      hash_eval(digest, name, wf::cross_validate(d, cfg, kKfpFolds, seed_));
      out.ops += 1;
      out.work += static_cast<double>(d.size());
    };
    evaluate("none", data_, forest_);
    evaluate("none-knn", data_, knn_);
    for (const defenses::TraceDefense* defense : chosen_) {
      const std::string name = defense->name();
      const std::string span_name = "bench.defense." + name;
      Rng rng(seed_ ^ 0xD3F3ull);
      const wf::Dataset defended = [&] {
        obs::ProfSpan span(span_name);
        return data_.transformed([&](const wf::Trace& t) { return defense->apply(t, rng); });
      }();
      evaluate(name, defended, forest_);
    }
    out.digest = digest.hex();
    return out;
  }

 private:
  std::uint64_t seed_;
  wf::Dataset data_;
  std::vector<std::unique_ptr<defenses::TraceDefense>> zoo_;
  std::vector<const defenses::TraceDefense*> chosen_;
  wf::KFingerprint::Config forest_;
  wf::KFingerprint::Config knn_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "pageload_grid") return std::make_unique<PageloadGrid>(seed);
  if (name == "bulk_tso") return std::make_unique<BulkTso>(seed);
  if (name == "kfp_eval") return std::make_unique<KfpEval>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
