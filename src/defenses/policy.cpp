#include "defenses/policy.hpp"

#include <stdexcept>

#include "defenses/baseline_policies.hpp"
#include "defenses/regulator.hpp"
#include "defenses/wtfpad.hpp"

namespace stob::defenses {

void Policy::finish(double /*end_time*/, std::vector<PacketOut>& /*out*/) {}

wf::Trace run_policy(Policy& policy, const wf::Trace& in, Rng& rng) {
  policy.begin(rng);
  std::vector<PacketOut> outs;
  outs.reserve(in.size() + in.size() / 2);
  for (const wf::PacketRecord& p : in.packets()) {
    policy.on_packet({p.time, p.direction, p.size}, outs);
  }
  const double end = in.empty() ? 0.0 : in.packets().back().time;
  policy.finish(end, outs);

  wf::Trace out;
  out.packets().reserve(outs.size());
  for (const PacketOut& p : outs) out.add(p.time, p.direction, p.size);
  out.normalize();
  return out;
}

// --------------------------------------------------------------- ChainPolicy

std::string ChainPolicy::name() const {
  std::string n = "chain(";
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i) n += "+";
    n += stages_[i]->name();
  }
  return n + ")";
}

void ChainPolicy::begin(Rng& rng) {
  rng_ = &rng;
  buffer_.clear();
}

void ChainPolicy::on_packet(const PacketEvent& ev, std::vector<PacketOut>& /*out*/) {
  buffer_.push_back(ev);
}

void ChainPolicy::finish(double /*end_time*/, std::vector<PacketOut>& out) {
  // Materialize between stages: each stage sees the previous stage's
  // normalized output, exactly how the trace transforms composed.
  // (The buffered input is fed to stage 0 in arrival order, un-normalized —
  // the same view the first trace transform used to get.)
  wf::Trace cur;
  cur.packets().reserve(buffer_.size());
  for (const PacketEvent& ev : buffer_) cur.add(ev.time, ev.direction, ev.size);
  for (const auto& stage : stages_) cur = run_policy(*stage, cur, *rng_);
  for (const wf::PacketRecord& p : cur.packets()) {
    out.push_back({p.time, p.direction, p.size, false});
  }
}

// ------------------------------------------------------------- PolicyDefense

wf::Trace PolicyDefense::apply(const wf::Trace& trace, Rng& rng) const {
  const std::unique_ptr<Policy> policy = info_.factory();
  return run_policy(*policy, trace, rng);
}

// ------------------------------------------------------------------ registry

const std::vector<PolicyInfo>& policy_zoo() {
  static const std::vector<PolicyInfo> zoo = [] {
    std::vector<PolicyInfo> v;
    v.push_back({"split",
                 {"TLS", "Obfuscation", {.packet_size = true}},
                 [] { return std::make_unique<SplitStreamPolicy>(); }});
    v.push_back({"delay",
                 {"TLS", "Obfuscation", {.timing = true}},
                 [] { return std::make_unique<DelayStreamPolicy>(); }});
    v.push_back({"combined",
                 {"TLS", "Obfuscation", {.timing = true, .packet_size = true}},
                 [] {
                   std::vector<std::unique_ptr<Policy>> stages;
                   stages.push_back(std::make_unique<SplitStreamPolicy>());
                   stages.push_back(std::make_unique<DelayStreamPolicy>());
                   return std::make_unique<ChainPolicy>(std::move(stages));
                 }});
    v.push_back({"regulator",
                 {"Stob", "Regularization", {.padding = true, .timing = true}},
                 [] { return std::make_unique<RegulatorPolicy>(); }});
    v.push_back({"wtfpad",
                 {"Stob", "Obfuscation", {.padding = true}},
                 [] { return std::make_unique<WtfPadPolicy>(); }});
    return v;
  }();
  return zoo;
}

namespace {

const PolicyInfo& find_policy(std::string_view name) {
  for (const PolicyInfo& info : policy_zoo()) {
    if (info.name == name) return info;
  }
  std::string known;
  for (const PolicyInfo& info : policy_zoo()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw std::invalid_argument("defenses: unknown policy '" + std::string(name) +
                              "' (known: " + known + ")");
}

}  // namespace

std::unique_ptr<Policy> make_policy(std::string_view name) {
  return find_policy(name).factory();
}

std::unique_ptr<TraceDefense> make_policy_defense(std::string_view name) {
  return std::make_unique<PolicyDefense>(find_policy(name));
}

}  // namespace stob::defenses
