#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rtcm {

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& o) {
  if (o.count_ == 0) return;
  if (count_ == 0) {
    *this = o;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(o.count_);
  const double delta = o.mean_ - mean_;
  mean_ = (n1 * mean_ + n2 * o.mean_) / (n1 + n2);
  m2_ += o.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflowed_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::size_t>((x - lo_) / width);
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

std::string Histogram::render() const {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  for (auto c : counts_) {
    const auto lvl =
        static_cast<std::size_t>(7.0 * static_cast<double>(c) /
                                 static_cast<double>(peak));
    out += kLevels[lvl];
  }
  return out;
}

}  // namespace rtcm
