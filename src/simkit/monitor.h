// monitor.h - Online monitoring: streaming aggregation and alert rules.
//
// The paper's claims are claims about behaviour over time — power staying
// under the budget, performance loss bounded while throttled, the cluster
// reallocating within an interval — and until now the repo could only
// demonstrate them by post-processing a full journal.  This subsystem
// evaluates those properties *during* the run, in fixed memory:
//
//   * SlidingWindow — a bucketed ring over the last W seconds answering
//     rate / mean / min / max in O(buckets), no allocation after
//     construction.
//   * Ewma — exponential moving average with a time constant, so irregular
//     observation spacing (event-driven advance) decays identically to
//     tick-driven runs.
//   * P2Quantile — the P-squared streaming quantile estimator (Jain &
//     Chlamtac): five markers, deterministic, zero allocation, exact until
//     five observations have arrived.
//   * RuleSet — alert rules parsed from a small text DSL:
//         alert budget_overshoot severity critical
//             when min(over_budget_w, 600ms) > 0.001 for 2 windows
//     (one rule per line in real input; wrapped here for width)
//   * Monitor — binds rules to named input channels (interned once into
//     InputId handles, so the hot path stays zero-lookup like the
//     MetricRegistry it mirrors), evaluates every rule at sampling
//     instants, and journals typed alert_raised / alert_cleared events.
//
// Determinism is the contract: the monitor is purely observational (it
// never feeds back into scheduling), its inputs are simulation-derived
// values fed on the single-threaded commit path, and evaluation happens at
// the scheduling instants both advance modes share — so journals with
// monitoring enabled are byte-identical across --threads 1..N and across
// --advance-mode tick|event, and runs without a monitor are bit-for-bit
// what they were before this subsystem existed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simkit/event_log.h"
#include "simkit/telemetry.h"

namespace fvsst::sim::monitor {

/// Fixed-memory sliding window over the last `window_s` seconds: a ring of
/// `buckets` sub-intervals, each holding (count, sum, min, max) of the
/// observations that landed in it.  Advancing the window expires whole
/// buckets, so queries are exact to a bucket-width granularity and cost
/// O(buckets) with zero allocation after construction.  Observation times
/// must be non-decreasing.
class SlidingWindow {
 public:
  explicit SlidingWindow(double window_s, std::size_t buckets = 16);

  void observe(double t, double value);

  /// Observations currently inside [t - window_s, t].
  std::size_t count(double t) const;
  double sum(double t) const;
  /// sum / window_s — events (or units) per second over the window.
  double rate(double t) const;
  /// NaN when the window holds no observations.
  double mean(double t) const;
  double min(double t) const;
  double max(double t) const;

  double window_s() const { return window_s_; }
  std::size_t buckets() const { return buckets_.size(); }

 private:
  struct Bucket {
    std::int64_t index = -1;  ///< Absolute bucket index; -1 when empty.
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  std::int64_t bucket_index(double t) const;
  /// Points the cache at t's bucket, resetting the slot (to `value`) when
  /// it still holds an older bucket.
  void enter_bucket(double t, double value);
  template <typename Fold>
  void fold(double t, Fold&& f) const;

  double window_s_;
  double bucket_s_;
  std::vector<Bucket> buckets_;
  // The last observed bucket: every t in [cached_lo_, cached_hi_) falls
  // in the bucket held by slot cached_slot_, so a repeat skips the divide.
  double cached_lo_ = 0.0;
  double cached_hi_ = 0.0;  ///< Empty range until the first observation.
  std::size_t cached_slot_ = 0;
};

/// Exponential moving average with a time constant: each observation pulls
/// the average toward the sample by 1 - exp(-dt / tau), so the decay per
/// simulated second is the same whether observations arrive every tick or
/// only at event-mode scheduling instants.
class Ewma {
 public:
  explicit Ewma(double tau_s) : tau_s_(tau_s) {}

  void observe(double t, double value);

  bool empty() const { return !has_value_; }
  /// NaN before the first observation.
  double value() const {
    return has_value_ ? value_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  double tau_s_;
  bool has_value_ = false;
  double last_t_ = 0.0;
  double value_ = 0.0;
};

/// The P-squared (P²) streaming quantile estimator (Jain & Chlamtac 1985):
/// maintains five markers — min, the target quantile, the two midpoints and
/// max — and nudges the middle three toward their desired rank positions
/// with parabolic interpolation.  Fixed state, no allocation, and fully
/// deterministic in the observation sequence.  Exact for the first five
/// observations; afterwards an estimate whose error shrinks with the sample
/// count (see tests/test_monitor.cc for the measured bounds).
class P2Quantile {
 public:
  /// `q` in (0, 1); q outside is clamped to [0.001, 0.999].
  explicit P2Quantile(double q);

  void observe(double x);

  std::size_t count() const { return n_; }
  double quantile_arg() const { return q_; }
  /// Current estimate; NaN before the first observation, the exact order
  /// statistic while count() <= 5.
  double value() const;

 private:
  double q_;
  std::size_t n_ = 0;
  double heights_[5];   ///< Marker heights (sorted ascending).
  double pos_[5];       ///< Marker positions (1-based ranks).
  double desired_[5];   ///< Desired positions.
  double incr_[5];      ///< Desired-position increments per observation.
};

/// Alert severity, carried on the journal event.
enum class Severity { kInfo, kWarning, kCritical };

std::string_view severity_name(Severity severity);

/// Windowed aggregation a rule applies to its input.
enum class AggFunc { kRate, kMean, kMin, kMax, kEwma, kValue };

std::string_view agg_func_name(AggFunc func);

/// Comparison between the aggregate and the rule threshold.
enum class CmpOp { kGt, kGe, kLt, kLe };

/// One alert rule: FUNC(input, window) OP threshold, required to hold at
/// `for_windows` consecutive evaluations before the alert raises.
struct Rule {
  std::string name;
  Severity severity = Severity::kWarning;
  AggFunc func = AggFunc::kMean;
  std::string input;      ///< Monitor input channel (or registry key).
  double window_s = 1.0;  ///< Aggregation window (EWMA: time constant).
  CmpOp op = CmpOp::kGt;
  double threshold = 0.0;
  int for_windows = 1;

  /// The rule rendered back in DSL form (journal/report payloads).
  std::string expression() const;
};

/// An ordered collection of rules with the text-DSL parser.  Line format:
///
///   # comment
///   alert NAME [severity info|warning|critical]
///       when FUNC(INPUT, WINDOW) OP THRESHOLD [for N windows]
///
/// FUNC: rate | mean | min | max | ewma | value; WINDOW: a number with a
/// mandatory s or ms suffix ("10s", "600ms"); OP: > >= < <=.  One rule per
/// line; parse throws std::runtime_error with a line number on malformed
/// input, including duplicate rule names.
class RuleSet {
 public:
  static RuleSet parse(std::istream& in);
  static RuleSet parse_string(std::string_view text);

  void add(Rule rule);

  bool empty() const { return rules_.empty(); }
  std::size_t size() const { return rules_.size(); }
  const std::vector<Rule>& rules() const { return rules_; }

 private:
  std::vector<Rule> rules_;
};

/// The default rule pack (DSL text): budget overshoot, pass-2 downgrade
/// storms, degraded / fail-safe node fraction, failover-window breach,
/// coordinator silence, journal loss and cluster message loss.  Window and
/// threshold choices assume the default sampling configuration (t = 10 ms,
/// T = 10 t); see docs/observability.md for the input each rule watches.
std::string default_rule_pack();

/// Interned handle to a Monitor input channel (see MetricId): the name is
/// resolved once and every observation afterwards is an array index.
struct InputId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};

/// Live state of one rule, exposed for reports and exposition.
struct AlertState {
  bool firing = false;
  int true_windows = 0;    ///< Consecutive evaluations the predicate held.
  double value = std::numeric_limits<double>::quiet_NaN();  ///< Last aggregate.
  double raised_t = -1.0;  ///< Time of the last raise (-1: never).
  std::size_t raises = 0;
  std::size_t clears = 0;
};

/// The monitor: owns the rules' aggregator state, the input channels and
/// the per-input quantile sketches, and evaluates everything at the
/// sampling instants the daemons share between advance modes.
///
/// Usage: intern the inputs once (`input("over_budget_w")`), push
/// observations with observe() from the simulation's serial commit path,
/// optionally bind MetricRegistry counters/series (delta- and tail-sampled
/// through interned handles at each evaluation — no string lookups after
/// binding), then call evaluate(now) at every scheduling instant.
class Monitor {
 public:
  struct Options {
    /// Journal receiving alert_raised / alert_cleared events (not owned;
    /// null journals nothing).
    EventLog* journal = nullptr;
    /// Ring granularity of every rule window.
    std::size_t window_buckets = 16;
    /// Quantiles sketched per input for exposition ({} disables).
    std::vector<double> sketch_quantiles = {0.5, 0.9, 0.99};
  };

  explicit Monitor(const RuleSet& rules);
  Monitor(const RuleSet& rules, Options options);
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Finds or registers the input channel `name`; O(1) afterwards.
  InputId input(std::string_view name);

  /// Feeds one observation into every rule window and sketch bound to
  /// `id`.  Times must be non-decreasing per input.  Allocation-free.
  void observe(InputId id, double t, double value);

  /// Binds a registry counter to input `input_name`: each evaluation
  /// observes the counter's delta since the previous evaluation.
  void bind_counter(std::string_view input_name, const MetricRegistry* registry,
                    CounterId id);

  /// Binds a registry series: each evaluation observes the samples
  /// appended since the previous evaluation, at their own times.
  void bind_series(std::string_view input_name, const MetricRegistry* registry,
                   MetricId id);

  /// Binds every rule input that names a registry counter or series key.
  /// Returns the number of bindings made.  Non-const: absent keys are not
  /// registered, but present ones are interned into handles.
  std::size_t bind_metrics(MetricRegistry& registry);

  /// Pulls bound metrics, re-aggregates every rule at `now`, fires and
  /// clears alerts, and journals the transitions.  Deterministic in the
  /// observation sequence.
  void evaluate(double now);

  std::size_t evaluations() const { return evaluations_; }
  std::size_t alerts_raised() const { return alerts_raised_; }
  std::size_t alerts_cleared() const { return alerts_cleared_; }
  /// Rules currently firing.
  std::size_t firing_count() const;

  const std::vector<Rule>& rules() const { return rules_; }
  /// Parallel to rules().
  const std::vector<AlertState>& alerts() const { return states_; }

  /// Registration-ordered input names.
  const std::vector<std::string>& input_names() const { return input_names_; }
  /// Observations pushed into input `id` so far.
  std::size_t input_count(InputId id) const;
  /// Last value observed on input `id` (NaN before the first).
  double input_last(InputId id) const;
  /// The input's sketch for Options::sketch_quantiles[k]; NaN before the
  /// first observation or when sketches are disabled.
  double input_quantile(InputId id, std::size_t k) const;
  const std::vector<double>& sketch_quantiles() const {
    return options_.sketch_quantiles;
  }

 private:
  struct RuleState {
    SlidingWindow window;
    Ewma ewma;
    bool has_value = false;
    double last_value = 0.0;
  };
  struct Input {
    std::string name;  // Kept in input_names_; here for journal payloads.
    std::vector<std::size_t> rule_indices;
    std::vector<P2Quantile> sketches;
    std::size_t observations = 0;
    double last_value = std::numeric_limits<double>::quiet_NaN();
  };
  struct CounterBinding {
    InputId input;
    const MetricRegistry* registry;
    CounterId id;
    double last = 0.0;
  };
  struct SeriesBinding {
    InputId input;
    const MetricRegistry* registry;
    MetricId id;
    std::size_t next_sample = 0;
  };

  double rule_value(std::size_t rule_index, double now) const;

  Options options_;
  std::vector<Rule> rules_;
  std::vector<RuleState> rule_states_;
  std::vector<AlertState> states_;
  std::vector<Input> inputs_;
  std::vector<std::string> input_names_;
  std::unordered_map<std::string, std::size_t> input_index_;
  std::vector<CounterBinding> counter_bindings_;
  std::vector<SeriesBinding> series_bindings_;
  std::size_t evaluations_ = 0;
  std::size_t alerts_raised_ = 0;
  std::size_t alerts_cleared_ = 0;
};

}  // namespace fvsst::sim::monitor
