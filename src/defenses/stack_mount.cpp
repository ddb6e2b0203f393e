#include "defenses/stack_mount.hpp"

#include <algorithm>

namespace stob::defenses {

namespace {

// The mount's vantage, in trace coordinates (+1 = client->server). Its one
// deployment is the server's connection (PageLoadOptions::server_conn), so
// every segment it sees is a download; the server-side defaults of split
// and delay (incoming_only) act on exactly these packets.
constexpr int kSegmentDirection = -1;

}  // namespace

void SegmentMount::on_flow_start(const net::FlowKey& /*flow*/) {
  if (!streaming_) {
    inner_->begin(rng_);
    streaming_ = true;
    last_event_time_ = 0.0;
  }
}

void SegmentMount::on_flow_end(const net::FlowKey& /*flow*/) {
  if (streaming_) {
    scratch_.clear();
    inner_->finish(last_event_time_, scratch_);
    for (const PacketOut& p : scratch_) dummy_suppressed_ += p.dummy ? 1 : 0;
    streaming_ = false;
  }
}

core::SegmentDecision SegmentMount::on_segment(const core::SegmentContext& ctx) {
  core::SegmentDecision d = core::SegmentDecision::passthrough(ctx);
  if (!streaming_) {  // policy hook used without a flow-start notification
    inner_->begin(rng_);
    streaming_ = true;
  }

  // Present the first wire packet of the segment as the policy's event.
  PacketEvent ev;
  ev.time = ctx.cca_departure.sec();
  ev.direction = kSegmentDirection;
  ev.size = std::min<std::int64_t>(ctx.mss.count(), ctx.cca_segment.count());
  last_event_time_ = ev.time;

  scratch_.clear();
  inner_->on_packet(ev, scratch_);

  const PacketOut* decision = nullptr;
  for (const PacketOut& p : scratch_) {
    if (p.dummy) {
      ++dummy_suppressed_;  // padding is not representable at this hook
    } else if (decision == nullptr) {
      decision = &p;
    }
  }
  if (decision == nullptr) {
    // The policy queued the payload for a later slot it has not emitted
    // yet; defer by one pacing quantum rather than dropping the segment.
    d.departure = ctx.cca_departure + Duration::millis(1);
    return d;
  }

  if (decision->time > ev.time) {
    d.departure = ctx.cca_departure + Duration::seconds_f(decision->time - ev.time);
  }
  if (decision->size > 0 && decision->size < ev.size) {
    d.wire_mss = Bytes(decision->size);
  }
  return d;
}

}  // namespace stob::defenses
