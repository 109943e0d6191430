#include "simkit/monitor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <istream>
#include <sstream>
#include <stdexcept>

namespace fvsst::sim::monitor {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

// ---- SlidingWindow --------------------------------------------------------

SlidingWindow::SlidingWindow(double window_s, std::size_t buckets)
    : window_s_(window_s > 0.0 ? window_s : 1.0),
      bucket_s_(window_s_ / static_cast<double>(buckets ? buckets : 1)),
      buckets_(buckets ? buckets : 1) {}

std::int64_t SlidingWindow::bucket_index(double t) const {
  return static_cast<std::int64_t>(std::floor(t / bucket_s_));
}

void SlidingWindow::enter_bucket(double t, double value) {
  const std::int64_t idx = bucket_index(t);
  const auto n = static_cast<std::int64_t>(buckets_.size());
  cached_slot_ = static_cast<std::size_t>(((idx % n) + n) % n);
  Bucket& b = buckets_[cached_slot_];
  if (b.index != idx) {
    b.index = idx;
    b.count = 0;
    b.sum = 0.0;
    b.min = value;
    b.max = value;
  }
  // Cache the bucket's time range, shrunk until bucket_index agrees at
  // both ends.  bucket_index is monotone in t, so agreement at the ends
  // holds for every t between them; a range that does not settle within
  // a few ulps collapses to t alone.  Only this slot is written until the
  // range is left, so its index stays idx meanwhile.
  double lo = static_cast<double>(idx) * bucket_s_;
  if (lo > t || bucket_index(lo) != idx) lo = t;
  double hi = static_cast<double>(idx + 1) * bucket_s_;
  for (int step = 0; step < 4 && bucket_index(std::nextafter(hi, lo)) != idx;
       ++step) {
    hi = std::nextafter(hi, lo);
  }
  if (hi <= t || bucket_index(std::nextafter(hi, lo)) != idx) {
    hi = std::nextafter(t, std::numeric_limits<double>::infinity());
  }
  cached_lo_ = lo;
  cached_hi_ = hi;
}

void SlidingWindow::observe(double t, double value) {
  if (!(t >= cached_lo_ && t < cached_hi_)) enter_bucket(t, value);
  Bucket& b = buckets_[cached_slot_];
  ++b.count;
  b.sum += value;
  b.min = std::min(b.min, value);
  b.max = std::max(b.max, value);
}

template <typename Fold>
void SlidingWindow::fold(double t, Fold&& f) const {
  // The window ending at `t` covers the B bucket slots whose absolute
  // index lies in (idx(t) - B, idx(t)]; a slot whose recorded index fell
  // behind that range holds expired data and is skipped.
  const std::int64_t idx = bucket_index(t);
  const std::int64_t oldest = idx - static_cast<std::int64_t>(buckets_.size());
  for (const Bucket& b : buckets_) {
    if (b.index > oldest && b.index <= idx && b.count > 0) f(b);
  }
}

std::size_t SlidingWindow::count(double t) const {
  std::size_t n = 0;
  fold(t, [&](const Bucket& b) { n += b.count; });
  return n;
}

double SlidingWindow::sum(double t) const {
  double s = 0.0;
  fold(t, [&](const Bucket& b) { s += b.sum; });
  return s;
}

double SlidingWindow::rate(double t) const { return sum(t) / window_s_; }

double SlidingWindow::mean(double t) const {
  double s = 0.0;
  std::size_t n = 0;
  fold(t, [&](const Bucket& b) {
    s += b.sum;
    n += b.count;
  });
  return n ? s / static_cast<double>(n) : kNaN;
}

double SlidingWindow::min(double t) const {
  double m = kNaN;
  bool any = false;
  fold(t, [&](const Bucket& b) {
    m = any ? std::min(m, b.min) : b.min;
    any = true;
  });
  return m;
}

double SlidingWindow::max(double t) const {
  double m = kNaN;
  bool any = false;
  fold(t, [&](const Bucket& b) {
    m = any ? std::max(m, b.max) : b.max;
    any = true;
  });
  return m;
}

// ---- Ewma -----------------------------------------------------------------

void Ewma::observe(double t, double value) {
  if (!has_value_) {
    has_value_ = true;
    value_ = value;
    last_t_ = t;
    return;
  }
  const double dt = t - last_t_;
  last_t_ = t;
  if (!(tau_s_ > 0.0)) {
    value_ = value;
    return;
  }
  const double alpha = 1.0 - std::exp(-std::max(dt, 0.0) / tau_s_);
  value_ += alpha * (value - value_);
}

// ---- P2Quantile -----------------------------------------------------------

P2Quantile::P2Quantile(double q) : q_(std::clamp(q, 0.001, 0.999)) {
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
  incr_[0] = 0.0;
  incr_[1] = q_ / 2.0;
  incr_[2] = q_;
  incr_[3] = (1.0 + q_) / 2.0;
  incr_[4] = 1.0;
  for (int i = 0; i < 5; ++i) {
    heights_[i] = 0.0;
    pos_[i] = static_cast<double>(i + 1);
  }
}

void P2Quantile::observe(double x) {
  if (n_ < 5) {
    heights_[n_++] = x;
    if (n_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }

  // Cell k: the marker interval the new observation falls into; the two
  // extreme markers track the running min and max exactly.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += incr_[i];
  ++n_;

  // Nudge the three middle markers toward their desired rank positions:
  // parabolic (piecewise-quadratic) interpolation when it stays monotone,
  // linear otherwise — the P² update rule verbatim.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      const double qp =
          heights_[i] +
          s / (pos_[i + 1] - pos_[i - 1]) *
              ((pos_[i] - pos_[i - 1] + s) * (heights_[i + 1] - heights_[i]) /
                   (pos_[i + 1] - pos_[i]) +
               (pos_[i + 1] - pos_[i] - s) * (heights_[i] - heights_[i - 1]) /
                   (pos_[i] - pos_[i - 1]));
      if (heights_[i - 1] < qp && qp < heights_[i + 1]) {
        heights_[i] = qp;
      } else {
        const int j = static_cast<int>(s);
        heights_[i] += s * (heights_[i + j] - heights_[i]) /
                       (pos_[i + j] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
}

double P2Quantile::value() const {
  if (n_ == 0) return kNaN;
  if (n_ < 5) {
    // Exact (interpolated) order statistic over the stored prefix.
    double sorted[5];
    std::copy(heights_, heights_ + n_, sorted);
    std::sort(sorted, sorted + n_);
    const double rank = q_ * static_cast<double>(n_ - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return heights_[2];
}

// ---- Names ----------------------------------------------------------------

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kCritical: return "critical";
  }
  return "?";
}

std::string_view agg_func_name(AggFunc func) {
  switch (func) {
    case AggFunc::kRate: return "rate";
    case AggFunc::kMean: return "mean";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kEwma: return "ewma";
    case AggFunc::kValue: return "value";
  }
  return "?";
}

namespace {

std::string_view cmp_op_name(CmpOp op) {
  switch (op) {
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
  }
  return "?";
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string Rule::expression() const {
  std::string out;
  out += agg_func_name(func);
  out += '(';
  out += input;
  out += ", ";
  out += format_number(window_s);
  out += "s) ";
  out += cmp_op_name(op);
  out += ' ';
  out += format_number(threshold);
  if (for_windows > 1) {
    out += " for ";
    out += std::to_string(for_windows);
    out += " windows";
  }
  return out;
}

// ---- RuleSet and the DSL parser -------------------------------------------

namespace {

/// Splits a DSL line into word tokens and single-character punctuation
/// tokens ('(', ')', ','); comparison operators survive as words.
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;  // Comment to end of line.
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else if (c == '(' || c == ')' || c == ',') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
      tokens.push_back(std::string(1, c));
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("rules line " + std::to_string(line_no) + ": " +
                           what);
}

double parse_strict_number(const std::string& token, std::size_t line_no,
                           const char* what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &used);
  } catch (const std::exception&) {
    parse_fail(line_no, std::string("bad ") + what + " '" + token + "'");
  }
  if (used != token.size()) {
    parse_fail(line_no,
               std::string("trailing junk in ") + what + " '" + token + "'");
  }
  return v;
}

/// "600ms" -> 0.6, "10s" -> 10.  The unit suffix is mandatory so a bare
/// number can never silently mean the wrong magnitude.
double parse_window(const std::string& token, std::size_t line_no) {
  std::string number;
  double scale = 0.0;
  if (token.size() > 2 && token.compare(token.size() - 2, 2, "ms") == 0) {
    number = token.substr(0, token.size() - 2);
    scale = 1e-3;
  } else if (token.size() > 1 && token.back() == 's') {
    number = token.substr(0, token.size() - 1);
    scale = 1.0;
  } else {
    parse_fail(line_no, "window '" + token + "' needs an s or ms suffix");
  }
  const double v = parse_strict_number(number, line_no, "window");
  if (!(v > 0.0)) parse_fail(line_no, "window must be positive");
  return v * scale;
}

}  // namespace

RuleSet RuleSet::parse(std::istream& in) {
  RuleSet out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    std::size_t i = 0;
    auto need = [&](const char* what) -> const std::string& {
      if (i >= tok.size()) parse_fail(line_no, std::string(what));
      return tok[i++];
    };
    if (need("expected 'alert'") != "alert") {
      parse_fail(line_no, "rule must start with 'alert', got '" + tok[0] + "'");
    }
    Rule rule;
    rule.name = need("missing rule name");

    if (i < tok.size() && tok[i] == "severity") {
      ++i;
      const std::string& sev = need("missing severity value");
      if (sev == "info") rule.severity = Severity::kInfo;
      else if (sev == "warning") rule.severity = Severity::kWarning;
      else if (sev == "critical") rule.severity = Severity::kCritical;
      else parse_fail(line_no, "unknown severity '" + sev + "'");
    }
    if (need("missing 'when'") != "when") {
      parse_fail(line_no, "expected 'when' after the rule name");
    }
    const std::string& func = need("missing aggregation function");
    if (func == "rate") rule.func = AggFunc::kRate;
    else if (func == "mean") rule.func = AggFunc::kMean;
    else if (func == "min") rule.func = AggFunc::kMin;
    else if (func == "max") rule.func = AggFunc::kMax;
    else if (func == "ewma") rule.func = AggFunc::kEwma;
    else if (func == "value") rule.func = AggFunc::kValue;
    else parse_fail(line_no, "unknown aggregation '" + func + "'");
    if (need("missing '('") != "(") parse_fail(line_no, "expected '('");
    rule.input = need("missing input name");
    if (rule.input == "(" || rule.input == ")" || rule.input == ",") {
      parse_fail(line_no, "missing input name");
    }
    if (need("missing ','") != ",") {
      parse_fail(line_no, "expected ',' after the input name");
    }
    rule.window_s = parse_window(need("missing window"), line_no);
    if (need("missing ')'") != ")") parse_fail(line_no, "expected ')'");

    const std::string& op = need("missing comparison operator");
    if (op == ">") rule.op = CmpOp::kGt;
    else if (op == ">=") rule.op = CmpOp::kGe;
    else if (op == "<") rule.op = CmpOp::kLt;
    else if (op == "<=") rule.op = CmpOp::kLe;
    else parse_fail(line_no, "unknown comparison '" + op + "'");
    rule.threshold =
        parse_strict_number(need("missing threshold"), line_no, "threshold");

    if (i < tok.size()) {
      if (tok[i] != "for") {
        parse_fail(line_no, "unexpected token '" + tok[i] + "'");
      }
      ++i;
      const double n =
          parse_strict_number(need("missing window count"), line_no,
                              "window count");
      if (n < 1.0 || n != std::floor(n)) {
        parse_fail(line_no, "window count must be a positive integer");
      }
      rule.for_windows = static_cast<int>(n);
      if (need("missing 'windows'") != "windows") {
        parse_fail(line_no, "expected 'windows' after the count");
      }
    }
    if (i != tok.size()) {
      parse_fail(line_no, "unexpected trailing token '" + tok[i] + "'");
    }
    for (const Rule& existing : out.rules_) {
      if (existing.name == rule.name) {
        parse_fail(line_no, "duplicate rule name '" + rule.name + "'");
      }
    }
    out.add(std::move(rule));
  }
  return out;
}

RuleSet RuleSet::parse_string(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse(in);
}

void RuleSet::add(Rule rule) { rules_.push_back(std::move(rule)); }

std::string default_rule_pack() {
  // Inputs are fed by the daemons at scheduling instants (see
  // docs/observability.md); windows and thresholds assume the default
  // sampling configuration t = 10 ms, T = 10 t = 0.1 s.
  return
      "# fvsst default monitoring rules\n"
      "# Sustained actual power above the effective budget: transient\n"
      "# overshoot inside the failover window is expected, a window-long\n"
      "# minimum above zero is not.\n"
      "alert budget_overshoot severity critical when min(over_budget_w, "
      "600ms) > 0.001 for 2 windows\n"
      "# Pass-2 never settling: every cycle in the last second downgraded.\n"
      "alert downgrade_storm severity warning when min(downgrade_steps, 1s) "
      ">= 1 for 5 windows\n"
      "# More than a quarter of the nodes running their autonomous\n"
      "# budget/N fail-safe frequency.\n"
      "alert node_failsafe severity critical when max(failsafe_frac, 500ms) "
      "> 0.25 for 1 windows\n"
      "# More than a quarter of the nodes silent (accounted at f_max).\n"
      "alert node_degraded severity warning when max(stale_frac, 1s) > 0.25 "
      "for 2 windows\n"
      "# A budget-triggered round still has nodes over the promised\n"
      "# compliance window.\n"
      "alert failover_breach severity critical when max(failover_breach, 1s) "
      ">= 1 for 1 windows\n"
      "# No global round for 3.5 T: the coordinator (and any standby) is\n"
      "# down or partitioned.\n"
      "alert coordinator_silent severity critical when min(since_round_s, "
      "500ms) > 0.35 for 1 windows\n"
      "# Tree topology: grants applying more than 5 ms after the summary\n"
      "# instant they answer.  The four-hop pipeline is 400 us at the\n"
      "# nominal 100 us link latency, so a 10x lag means the tree is\n"
      "# congested, lossy, or repairing via retransmission.\n"
      "alert aggregation_lag severity warning when max(aggregation_lag_s, "
      "500ms) > 0.005 for 1 windows\n"
      "# The journal ring dropped events (undersized --journal-cap).\n"
      "alert journal_loss severity warning when rate(journal_dropped, 5s) > "
      "0 for 1 windows\n"
      "# Cluster channels losing more than 2 messages/s.\n"
      "alert message_loss severity warning when rate(messages_lost, 2s) > 2 "
      "for 2 windows\n"
      "# The reliable transport retransmitting faster than it converges:\n"
      "# a sustained storm means the channel is bad enough that settings\n"
      "# are being repaired by brute force round after round.\n"
      "alert retransmit_storm severity warning when rate(retransmits, 2s) > "
      "5 for 2 windows\n";
}

// ---- Monitor --------------------------------------------------------------

Monitor::Monitor(const RuleSet& rules) : Monitor(rules, Options{}) {}

Monitor::Monitor(const RuleSet& rules, Options options)
    : options_(std::move(options)), rules_(rules.rules()) {
  rule_states_.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    rule_states_.push_back(RuleState{
        SlidingWindow(rule.window_s, options_.window_buckets),
        Ewma(rule.window_s), false, 0.0});
  }
  states_.resize(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const InputId id = input(rules_[i].input);
    inputs_[id.index].rule_indices.push_back(i);
  }
}

InputId Monitor::input(std::string_view name) {
  const auto it = input_index_.find(std::string(name));
  if (it != input_index_.end()) return InputId{it->second};
  const std::size_t index = inputs_.size();
  Input in;
  in.name = std::string(name);
  in.sketches.reserve(options_.sketch_quantiles.size());
  for (double q : options_.sketch_quantiles) in.sketches.emplace_back(q);
  inputs_.push_back(std::move(in));
  input_names_.push_back(std::string(name));
  input_index_.emplace(std::string(name), index);
  return InputId{index};
}

void Monitor::observe(InputId id, double t, double value) {
  if (!id.valid()) return;
  Input& in = inputs_[id.index];
  ++in.observations;
  in.last_value = value;
  for (P2Quantile& sketch : in.sketches) sketch.observe(value);
  for (std::size_t r : in.rule_indices) {
    RuleState& state = rule_states_[r];
    state.window.observe(t, value);
    state.ewma.observe(t, value);
    state.has_value = true;
    state.last_value = value;
  }
}

void Monitor::bind_counter(std::string_view input_name,
                           const MetricRegistry* registry, CounterId id) {
  counter_bindings_.push_back(CounterBinding{input(input_name), registry, id,
                                             0.0});
}

void Monitor::bind_series(std::string_view input_name,
                          const MetricRegistry* registry, MetricId id) {
  series_bindings_.push_back(SeriesBinding{input(input_name), registry, id,
                                           0});
}

std::size_t Monitor::bind_metrics(MetricRegistry& registry) {
  std::size_t bound = 0;
  for (const Rule& rule : rules_) {
    bool already = false;
    for (const CounterBinding& b : counter_bindings_) {
      if (input_names_[b.input.index] == rule.input) already = true;
    }
    for (const SeriesBinding& b : series_bindings_) {
      if (input_names_[b.input.index] == rule.input) already = true;
    }
    if (already) continue;
    const auto& counters = registry.counter_keys();
    if (std::find(counters.begin(), counters.end(), rule.input) !=
        counters.end()) {
      bind_counter(rule.input, &registry, registry.intern_counter(rule.input));
      ++bound;
      continue;
    }
    if (registry.find_series(rule.input) != nullptr) {
      bind_series(rule.input, &registry, registry.intern_series(rule.input));
      ++bound;
    }
  }
  return bound;
}

double Monitor::rule_value(std::size_t rule_index, double now) const {
  const Rule& rule = rules_[rule_index];
  const RuleState& state = rule_states_[rule_index];
  switch (rule.func) {
    case AggFunc::kRate: return state.window.rate(now);
    case AggFunc::kMean: return state.window.mean(now);
    case AggFunc::kMin: return state.window.min(now);
    case AggFunc::kMax: return state.window.max(now);
    case AggFunc::kEwma: return state.ewma.value();
    case AggFunc::kValue: return state.has_value ? state.last_value : kNaN;
  }
  return kNaN;
}

void Monitor::evaluate(double now) {
  // Pull bound registry metrics through their interned handles — O(1)
  // accesses, no hash probes, so the zero-lookup steady-state contract of
  // the hot loop holds with a monitor attached.
  for (CounterBinding& b : counter_bindings_) {
    const double value = b.registry->counter(b.id);
    observe(b.input, now, value - b.last);
    b.last = value;
  }
  for (SeriesBinding& b : series_bindings_) {
    const TimeSeries& s = b.registry->series(b.id);
    for (; b.next_sample < s.size(); ++b.next_sample) {
      observe(b.input, s[b.next_sample].t, s[b.next_sample].value);
    }
  }

  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    AlertState& alert = states_[i];
    const double value = rule_value(i, now);
    alert.value = value;
    bool holds = false;
    switch (rule.op) {
      case CmpOp::kGt: holds = value > rule.threshold; break;
      case CmpOp::kGe: holds = value >= rule.threshold; break;
      case CmpOp::kLt: holds = value < rule.threshold; break;
      case CmpOp::kLe: holds = value <= rule.threshold; break;
    }
    if (holds) {
      if (alert.true_windows < rule.for_windows) ++alert.true_windows;
      if (!alert.firing && alert.true_windows >= rule.for_windows) {
        alert.firing = true;
        alert.raised_t = now;
        ++alert.raises;
        ++alerts_raised_;
        if (options_.journal) {
          options_.journal->append(now, EventType::kAlertRaised)
              .set("value", value)
              .set("threshold", rule.threshold)
              .set("window_s", rule.window_s)
              .set("for_windows", static_cast<double>(rule.for_windows))
              .set("rule", rule.name)
              .set("severity", std::string(severity_name(rule.severity)))
              .set("expr", rule.expression());
        }
      }
    } else {
      alert.true_windows = 0;
      if (alert.firing) {
        alert.firing = false;
        ++alert.clears;
        ++alerts_cleared_;
        if (options_.journal) {
          options_.journal->append(now, EventType::kAlertCleared)
              .set("value", value)
              .set("raised_t", alert.raised_t)
              .set("duration_s", now - alert.raised_t)
              .set("rule", rule.name)
              .set("severity", std::string(severity_name(rule.severity)));
        }
      }
    }
  }
  ++evaluations_;
}

std::size_t Monitor::firing_count() const {
  std::size_t n = 0;
  for (const AlertState& s : states_) n += s.firing ? 1 : 0;
  return n;
}

std::size_t Monitor::input_count(InputId id) const {
  return id.valid() ? inputs_[id.index].observations : 0;
}

double Monitor::input_last(InputId id) const {
  return id.valid() ? inputs_[id.index].last_value : kNaN;
}

double Monitor::input_quantile(InputId id, std::size_t k) const {
  if (!id.valid() || k >= inputs_[id.index].sketches.size()) return kNaN;
  return inputs_[id.index].sketches[k].value();
}

}  // namespace fvsst::sim::monitor
