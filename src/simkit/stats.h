// stats.h - Streaming statistics used throughout the benches and tests.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace fvsst::sim {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStat {
 public:
  /// Adds one observation.
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant signal, e.g. "mean power
/// over the run" where power changes only at scheduling instants.
class TimeWeightedStat {
 public:
  /// Records that the signal takes `value` starting at time `t`.
  /// Times must be non-decreasing.
  void record(double t, double value);

  /// Closes the last segment at time `t_end` and returns the mean.
  double mean_until(double t_end) const;

  /// Integral of the signal up to `t_end` (e.g. energy from power).
  double integral_until(double t_end) const;

  bool empty() const { return !has_value_; }
  double last_value() const { return value_; }
  double last_time() const { return t_; }

 private:
  bool has_value_ = false;
  double t_ = 0.0;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;
  double t_first_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp into the
/// first/last bin.  Used for "% of time at each frequency" style results.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  std::size_t bin_count() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }
  /// Fraction of total weight in bin i (0 when empty).
  double fraction(std::size_t i) const;

  /// Approximate p-quantile: finds the bin where the cumulative weight
  /// crosses p and interpolates linearly inside it, so resolution is the
  /// bin width.  Total function: an empty histogram (or NaN p) returns
  /// NaN — never throws — and p is clamped into [0, 1].  Endpoints are
  /// pinned to observed support: p = 0 is the lower edge of the first
  /// non-empty bin, p = 1 the upper edge of the last, so a single sample
  /// spans exactly its own bin.  For exact order statistics use
  /// SampleSet::percentile.
  double quantile(double p) const;

 private:
  double lo_, hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Stores samples for exact order statistics (response-time percentiles).
/// O(n) memory; suitable for the tens of thousands of samples the benches
/// produce.
class SampleSet {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;

  /// Exact p-quantile with p in [0, 1] (nearest-rank).  Throws
  /// std::out_of_range when empty or p outside [0, 1].  Samples added since
  /// the last query are sorted on their own and merged into the sorted
  /// prefix, so interleaved add/percentile calls cost O(k log k + n), not
  /// a full re-sort.
  double percentile(double p) const;

 private:
  mutable std::vector<double> samples_;
  /// samples_[0, sorted_prefix_) is sorted; the tail is in arrival order.
  mutable std::size_t sorted_prefix_ = 0;
};

/// Discrete category histogram keyed by exact values (e.g. the 16 frequency
/// settings).  Keeps insertion order of first appearance.
class CategoryHistogram {
 public:
  void add(double key, double weight = 1.0);

  struct Entry {
    double key;
    double weight;
  };
  /// Entries sorted by key ascending.
  std::vector<Entry> sorted() const;
  double total() const { return total_; }
  /// Weight fraction at `key` (0 when absent or empty).
  double fraction(double key) const;

 private:
  std::vector<Entry> entries_;
  double total_ = 0.0;
};

}  // namespace fvsst::sim
