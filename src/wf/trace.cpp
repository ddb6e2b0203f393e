#include "wf/trace.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/stats.hpp"

namespace stob::wf {

void Trace::normalize() {
  if (packets_.empty()) return;
  const auto by_time = [](const PacketRecord& a, const PacketRecord& b) { return a.time < b.time; };
  // Recorded and most defended traces arrive time-ordered; a stable sort
  // of sorted input is the identity, so skip its buffer and merge passes.
  if (!std::is_sorted(packets_.begin(), packets_.end(), by_time)) {
    std::stable_sort(packets_.begin(), packets_.end(), by_time);
  }
  const double t0 = packets_.front().time;
  for (PacketRecord& p : packets_) p.time -= t0;
}

Trace Trace::truncated(std::size_t n) const {
  if (n >= packets_.size()) return *this;
  return Trace(std::vector<PacketRecord>(packets_.begin(),
                                         packets_.begin() + static_cast<std::ptrdiff_t>(n)));
}

std::int64_t Trace::total_bytes() const {
  std::int64_t s = 0;
  for (const auto& p : packets_) s += p.size;
  return s;
}

std::int64_t Trace::incoming_bytes() const {
  std::int64_t s = 0;
  for (const auto& p : packets_) {
    if (p.direction < 0) s += p.size;
  }
  return s;
}

std::int64_t Trace::outgoing_bytes() const {
  std::int64_t s = 0;
  for (const auto& p : packets_) {
    if (p.direction > 0) s += p.size;
  }
  return s;
}

std::size_t Trace::incoming_count() const {
  return static_cast<std::size_t>(
      std::count_if(packets_.begin(), packets_.end(),
                    [](const PacketRecord& p) { return p.direction < 0; }));
}

std::size_t Trace::outgoing_count() const {
  return packets_.size() - incoming_count();
}

double Trace::duration() const {
  if (packets_.size() < 2) return 0.0;
  return packets_.back().time - packets_.front().time;
}

// ----------------------------------------------------------------- Dataset

void Dataset::add(Trace trace, int label) {
  traces_.push_back(std::move(trace));
  labels_.push_back(label);
}

std::size_t Dataset::num_classes() const {
  return std::set<int>(labels_.begin(), labels_.end()).size();
}

Dataset Dataset::sanitized_by_download_size(double k) const {
  // Group indices per class, fence on incoming_bytes within the class.
  std::set<int> classes(labels_.begin(), labels_.end());
  Dataset out;
  for (int cls : classes) {
    std::vector<std::size_t> idx;
    std::vector<double> sizes;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      if (labels_[i] == cls) {
        idx.push_back(i);
        sizes.push_back(static_cast<double>(traces_[i].incoming_bytes()));
      }
    }
    for (std::size_t j : stats::iqr_inlier_indices(sizes, k)) {
      out.add(traces_[idx[j]], cls);
    }
  }
  return out;
}

Dataset Dataset::balanced(std::size_t per_class) const {
  std::set<int> classes(labels_.begin(), labels_.end());
  Dataset out;
  for (int cls : classes) {
    std::size_t taken = 0;
    for (std::size_t i = 0; i < traces_.size() && taken < per_class; ++i) {
      if (labels_[i] == cls) {
        out.add(traces_[i], cls);
        ++taken;
      }
    }
  }
  return out;
}

void Dataset::save_csv(const std::filesystem::path& path) const {
  std::vector<csv::Row> rows;
  rows.push_back({"trace_id", "label", "time", "direction", "size"});
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    for (const PacketRecord& p : traces_[i].packets()) {
      rows.push_back({std::to_string(i), std::to_string(labels_[i]), std::to_string(p.time),
                      std::to_string(p.direction), std::to_string(p.size)});
    }
  }
  csv::write_file(path, rows);
}

Dataset Dataset::load_csv(const std::filesystem::path& path) {
  const auto rows = csv::read_file(path);
  Dataset out;
  Trace current;
  std::int64_t current_id = -1;
  int current_label = 0;
  for (std::size_t r = 1; r < rows.size(); ++r) {  // skip header
    const auto& row = rows[r];
    if (row.size() != 5) throw std::runtime_error("dataset csv: malformed row");
    const std::int64_t id = std::stoll(row[0]);
    if (id != current_id) {
      if (current_id >= 0) out.add(std::move(current), current_label);
      current = Trace{};
      current_id = id;
      current_label = std::stoi(row[1]);
    }
    current.add(std::stod(row[2]), std::stoi(row[3]), std::stoll(row[4]));
  }
  if (current_id >= 0) out.add(std::move(current), current_label);
  return out;
}

// ----------------------------------------------------------- TraceRecorder

TraceRecorder::TraceRecorder(net::DuplexPath& path) : path_(&path) {
  path_->forward().set_tx_tap([this](const net::Packet& p, TimePoint t) {
    trace_.add(t.sec(), +1, p.wire_size().count());
  });
  path_->backward().set_rx_tap([this](const net::Packet& p, TimePoint t) {
    trace_.add(t.sec(), -1, p.wire_size().count());
  });
}

void TraceRecorder::detach() {
  if (path_ != nullptr) {
    path_->forward().set_tx_tap(nullptr);
    path_->backward().set_rx_tap(nullptr);
    path_ = nullptr;
  }
}

Trace TraceRecorder::take() {
  detach();
  Trace t = std::move(trace_);
  trace_ = Trace{};
  t.normalize();
  return t;
}

}  // namespace stob::wf
