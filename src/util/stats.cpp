#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace stob::stats {

double sum(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return sum(xs) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) { return variance(xs, mean(xs)); }

double variance(std::span<const double> xs, double m) {
  if (xs.size() < 2) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double stddev(std::span<const double> xs, double m) { return std::sqrt(variance(xs, m)); }

namespace {

/// The two ranks a percentile blends and the weight of the upper one —
/// shared by the sorted and the selection paths so they cannot drift.
struct Rank {
  std::size_t lo, hi;
  double frac;
};

/// Requires n > 0 and a non-NaN p.
Rank rank_of(std::size_t n, double p) {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

/// lo == hi at p == 100 (and for single-element inputs); the blend then
/// returns `lo_val` exactly, with no 0 * inf pitfalls since frac == 0.
double blend(double lo_val, double hi_val, double frac) {
  return lo_val * (1.0 - frac) + hi_val * frac;
}

}  // namespace

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> copy(xs.begin(), xs.end());
  return Selector(copy).percentile(p);
}

double percentile_sorted(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  // std::clamp with a NaN p is UB, and a NaN rank cast to size_t is UB too;
  // make the convention explicit: a non-finite p propagates NaN.
  if (std::isnan(p)) return std::numeric_limits<double>::quiet_NaN();
  const Rank r = rank_of(xs.size(), p);
  return blend(xs[r.lo], xs[r.hi], r.frac);
}

double Selector::percentile(double p) {
  if (xs_.empty()) return 0.0;
  if (std::isnan(p)) return std::numeric_limits<double>::quiet_NaN();
  const Rank r = rank_of(xs_.size(), p);
  // Everything below pivot_ is <= xs_[pivot_] <= everything above it, so
  // rank lo is found by selecting within its side alone.
  const auto first = xs_.begin();
  if (pivot_ == xs_.size()) {
    std::nth_element(first, first + r.lo, xs_.end());
  } else if (r.lo < pivot_) {
    std::nth_element(first, first + r.lo, first + pivot_);
  } else if (r.lo > pivot_) {
    std::nth_element(first + pivot_ + 1, first + r.lo, xs_.end());
  }
  pivot_ = r.lo;
  const double hi_val =
      r.hi == r.lo ? xs_[r.lo] : *std::min_element(first + r.lo + 1, xs_.end());
  return blend(xs_[r.lo], hi_val, r.frac);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double iqr(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> copy(xs.begin(), xs.end());
  Selector sel(copy);
  const double q1 = sel.percentile(25.0);
  return sel.percentile(75.0) - q1;
}

std::vector<std::size_t> iqr_inlier_indices(std::span<const double> xs, double k) {
  std::vector<std::size_t> keep;
  if (xs.empty()) return keep;
  std::vector<double> copy(xs.begin(), xs.end());
  Selector sel(copy);
  const double q1 = sel.percentile(25.0);
  const double q3 = sel.percentile(75.0);
  const double fence = k * (q3 - q1);
  const double lo = q1 - fence;
  const double hi = q3 + fence;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] >= lo && xs[i] <= hi) keep.push_back(i);
  }
  return keep;
}

void Welford::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Welford::merge(const Welford& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double n = na + nb;
  mean_ += delta * (nb / n);
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  n_ += other.n_;
}

double Welford::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

}  // namespace stob::stats
