#include "simkit/stats.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <cmath>

namespace fvsst::sim {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const {
  return std::sqrt(variance());
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void TimeWeightedStat::record(double t, double value) {
  if (!has_value_) {
    has_value_ = true;
    t_first_ = t;
  } else if (t > t_) {
    weighted_sum_ += (t - t_) * value_;
  }
  t_ = t;
  value_ = value;
}

double TimeWeightedStat::integral_until(double t_end) const {
  if (!has_value_) return 0.0;
  double total = weighted_sum_;
  if (t_end > t_) total += (t_end - t_) * value_;
  return total;
}

double TimeWeightedStat::mean_until(double t_end) const {
  if (!has_value_) return 0.0;
  const double span = std::max(t_end, t_) - t_first_;
  if (span <= 0.0) return value_;
  return integral_until(t_end) / span;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0.0) {}

void Histogram::add(double x, double weight) {
  if (counts_.empty()) return;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return bin_lo(i + 1);
}

double Histogram::fraction(std::size_t i) const {
  return total_ > 0.0 ? counts_[i] / total_ : 0.0;
}

double Histogram::quantile(double p) const {
  // Total contract (the report generator feeds arbitrary journals through
  // here): an empty histogram or NaN p is NaN, out-of-range p clamps.
  if (total_ <= 0.0 || std::isnan(p)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * total_;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] <= 0.0) continue;
    if (cumulative + counts_[i] >= target) {
      // Linear interpolation within the bin that crosses the target.
      const double inside = std::clamp(
          (target - cumulative) / counts_[i], 0.0, 1.0);
      return bin_lo(i) + inside * (bin_hi(i) - bin_lo(i));
    }
    cumulative += counts_[i];
  }
  // Rounding left p * total just past the last weight: top of the range.
  for (std::size_t i = counts_.size(); i-- > 0;) {
    if (counts_[i] > 0.0) return bin_hi(i);
  }
  return hi_;
}

void SampleSet::add(double x) { samples_.push_back(x); }

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  if (samples_.empty()) throw std::out_of_range("SampleSet: empty");
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  if (samples_.empty()) throw std::out_of_range("SampleSet: empty");
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) throw std::out_of_range("SampleSet: empty");
  if (p < 0.0 || p > 1.0) throw std::out_of_range("SampleSet: p in [0,1]");
  if (sorted_prefix_ < samples_.size()) {
    const auto mid =
        samples_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix_);
    std::sort(mid, samples_.end());
    std::inplace_merge(samples_.begin(), mid, samples_.end());
    sorted_prefix_ = samples_.size();
  }
  // Nearest-rank definition: smallest value with cumulative share >= p.
  const auto n = static_cast<double>(samples_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank > 0) --rank;
  return samples_[rank];
}

void CategoryHistogram::add(double key, double weight) {
  for (auto& e : entries_) {
    if (e.key == key) {
      e.weight += weight;
      total_ += weight;
      return;
    }
  }
  entries_.push_back({key, weight});
  total_ += weight;
}

std::vector<CategoryHistogram::Entry> CategoryHistogram::sorted() const {
  auto out = entries_;
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  return out;
}

double CategoryHistogram::fraction(double key) const {
  if (total_ <= 0.0) return 0.0;
  for (const auto& e : entries_) {
    if (e.key == key) return e.weight / total_;
  }
  return 0.0;
}

}  // namespace fvsst::sim
