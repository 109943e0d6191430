// fvsst_perfbench - The fvsst benchmark: what the simulator costs (host
// time and memory) and what the simulated system decided (throughput,
// efficiency, budget compliance), on three closed-loop workloads driven
// through the public library API.
//
// Every run builds its inputs from --seed, steps each simulation one
// scheduling period T at a time with Simulation::run_until(k * T), checks
// every simulated instance (journal invariants, a repeatable decision
// fingerprint, a healthy journal sink) outside the timed region, and
// prints one JSON result line last.  --trace 1 swaps the end-to-end
// metrics for a per-layer breakdown measured around the library's public
// entry points (see README.md for every metric and workload).
//
// Usage:
//   fvsst_perfbench --workload smp-search|flat-1k|tree-100k --seed N
//                   --seconds S --trace 0|1 [--commit ID] [--source-digest D]
//   fvsst_perfbench --self-test
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "core/control_loop.h"
#include "core/daemon.h"
#include "core/tree_daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "simkit/event_log.h"
#include "simkit/event_queue.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"
#include "simkit/rng.h"
#include "workload/app_profiles.h"
#include "workload/synthetic.h"

using namespace fvsst;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSampleS = 0.010;  ///< Dispatch interval t.
constexpr int kMultiplier = 10;     ///< T = n * t.
constexpr double kPeriodS = kSampleS * kMultiplier;
constexpr double kCpuPeakW = 140.0;  ///< P630 top operating point.

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

/// Seed kept out of every tuning run; reserved for validating later
/// performance claims on inputs the claim was not developed against.
constexpr std::uint64_t kHeldBackSeed = 20050404;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- Decision fingerprint ---------------------------------------------

/// FNV-1a over the decision-relevant bytes of a run.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void num(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
};

/// Journal fields that record host wall-clock stage costs; they measure
/// this machine, not the simulated system, so the fingerprint skips them.
bool is_wall_clock_field(std::string_view key) {
  return key == "estimate_s" || key == "policy_s" || key == "actuate_s" ||
         key == "sample_s" || key == "cycle_s";
}

void fingerprint_event(Fingerprint& fp, const sim::Event& e) {
  fp.num(e.t);
  fp.str(sim::event_type_name(e.type));
  fp.num(static_cast<double>(e.cpu));
  for (const auto& [key, value] : e.num) {
    if (is_wall_clock_field(key)) continue;
    fp.str(key);
    fp.num(value);
  }
  for (const auto& [key, value] : e.str) {
    fp.str(key);
    fp.str(value);
  }
}

// ---- Workloads ----------------------------------------------------------

enum class Topology { kSmp, kFlat, kTree };

struct Workload {
  const char* name;
  Topology topology;
  std::size_t nodes;
  int horizon_s;  ///< Simulated seconds per instance (whole seconds).
  /// Distinct seeded inputs per run.  The closed loop cycles through them,
  /// so every run simulates all of them (the sim metrics cover exactly
  /// these) and every later pass re-checks a fingerprint.
  std::size_t distinct_inputs;
};

// flat-1k stays runnable for per-layer work on the flat control plane, but
// BENCHMARK.json does not list it: its host timings varied by up to half
// from run to run on a shared 4-vCPU host, too much to gate a change on.
const Workload kWorkloads[] = {
    {"smp-search", Topology::kSmp, 1, 10, 64},
    {"flat-1k", Topology::kFlat, 1000, 5, 6},
    // Ten inputs: a stale grant leaves a whole shard on its old cap, so the
    // tree's budget compliance swings from input to input and is averaged
    // over 200 rounds.
    {"tree-100k", Topology::kTree, 100000, 2, 10},
};

/// Per-layer timings the decorators accumulate (traced instances only).
struct LayerClock {
  std::uint64_t policy_calls = 0;
  double policy_s = 0.0;
  std::vector<double> policy_call_s;
  std::uint64_t downgrade_steps = 0;
  double encode_s = 0.0;
};

/// Times PolicyStage::decide; forwards everything to the paper's stage.
class TimedPolicy final : public core::PolicyStage {
 public:
  TimedPolicy(std::unique_ptr<core::PolicyStage> inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  core::ScheduleResult decide(
      const std::vector<core::ProcView>& views,
      const std::vector<const mach::FrequencyTable*>& tables,
      double power_budget_w) override {
    const auto t0 = Clock::now();
    core::ScheduleResult result = inner_->decide(views, tables, power_budget_w);
    const double dt = seconds_since(t0);
    ++clock_.policy_calls;
    clock_.policy_s += dt;
    clock_.policy_call_s.push_back(dt);
    clock_.downgrade_steps += result.downgrade_steps;
    return result;
  }

  double predict_ipc(const core::ProcView& view, double hz) const override {
    return inner_->predict_ipc(view, hz);
  }

 private:
  std::unique_ptr<core::PolicyStage> inner_;
  LayerClock& clock_;
};

/// Times the journal encoder (write + flush) behind the EventLog stream.
class TimedWriter final : public sim::JournalWriter {
 public:
  TimedWriter(sim::JournalWriter& inner, LayerClock& clock)
      : inner_(inner), clock_(clock) {}

  void write(const sim::Event& e) override {
    const auto t0 = Clock::now();
    inner_.write(e);
    clock_.encode_s += seconds_since(t0);
  }
  void flush() override {
    const auto t0 = Clock::now();
    inner_.flush();
    clock_.encode_s += seconds_since(t0);
  }
  std::size_t events_written() const override {
    return inner_.events_written();
  }

 private:
  sim::JournalWriter& inner_;
  LayerClock& clock_;
};

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, sim::Rng& rng) {
  for (std::size_t j = v.size(); j > 1; --j) {
    std::swap(v[j - 1], v[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(j) - 1))]);
  }
}

/// The modelled machine: the paper's 4-CPU P630 for the SMP server, a
/// single-CPU P630 per cluster node (so nodes is the honest scale axis).
mach::MachineConfig machine_for(const Workload& w) {
  mach::MachineConfig machine = mach::p630();
  if (w.topology != Topology::kSmp) {
    machine.name = "p630-1cpu";
    machine.num_cpus = 1;
  }
  return machine;
}

/// The cluster and per-CPU workloads of one seeded input: the paper's four
/// applications in seeded placement on the SMP server, a seeded 10-100%
/// synthetic intensity per cluster CPU.  Draws from `rng` (seeded with
/// `input_seed`), so the budget timeline drawn afterwards follows it.
std::unique_ptr<cluster::Cluster> build_cluster(
    sim::Simulation& sim, const Workload& w,
    const mach::MachineConfig& machine, std::size_t nodes,
    std::uint64_t input_seed, sim::Rng& rng) {
  sim::Rng core_rng(splitmix64(input_seed));
  auto cluster = std::make_unique<cluster::Cluster>(
      cluster::Cluster::homogeneous(sim, machine, nodes, core_rng));
  if (w.topology == Topology::kSmp) {
    // A seeded placement of the four applications, one per CPU: their
    // instruction rates differ tenfold, so drawing them independently
    // would make the simulated work swing from seed to seed.
    std::vector<workload::WorkloadSpec> apps = {
        workload::gzip(), workload::gap(), workload::mcf(), workload::health()};
    shuffle(apps, rng);
    const auto procs = cluster->all_procs();
    for (std::size_t i = 0; i < procs.size(); ++i) {
      cluster->core(procs[i]).add_workload(apps[i % apps.size()]);
    }
  } else {
    for (const auto& addr : cluster->all_procs()) {
      cluster->core(addr).add_workload(
          workload::make_uniform_synthetic(rng.uniform(10.0, 100.0), 1e12));
    }
  }
  return cluster;
}

/// One simulated system, built from one seeded input.  Members are
/// declared in dependency order: the daemons go first on destruction.
class Instance {
 public:
  /// Builds the cluster, workloads, budget timeline, fault plan, monitor,
  /// journal sink and daemon.  `nodes` overrides the workload's size (the
  /// self-test shrinks it); `clock` non-null wraps policy and journal in
  /// the timing decorators.
  Instance(const Workload& w, std::uint64_t input_seed, std::size_t nodes,
           int horizon_s, LayerClock* clock)
      : workload_(w),
        horizon_s_(horizon_s),
        rng_(input_seed),
        machine_(machine_for(w)) {
    const auto t_cluster = Clock::now();
    cluster_ = build_cluster(sim_, w, machine_, nodes, input_seed, rng_);
    cluster_build_s_ = seconds_since(t_cluster);

    // Budget timeline: a new limit every simulated second, mid-period so
    // no step ties with a round boundary.  The levels are stratified over
    // [45%, 70%] of peak (one draw per equal-width band, in seeded order),
    // so the scheduling work an instance costs does not swing with how
    // many low draws it happened to get.
    const double peak = static_cast<double>(cluster_->cpu_count()) * kCpuPeakW;
    std::vector<double> levels(static_cast<std::size_t>(horizon_s_));
    for (std::size_t j = 0; j < levels.size(); ++j) {
      levels[j] = 0.45 + 0.25 * (static_cast<double>(j) + rng_.uniform()) /
                             static_cast<double>(levels.size());
    }
    shuffle(levels, rng_);
    budget_ = std::make_unique<power::PowerBudget>(peak * levels[0]);
    for (std::size_t j = 1; j < levels.size(); ++j) {
      const double limit = peak * levels[j];
      sim_.schedule_at(static_cast<double>(j) + 0.5 * kPeriodS,
                       [this, limit] { budget_->set_limit_w(limit); });
    }

    if (w.topology != Topology::kSmp) {
      // 2% loss, reordering and duplication on every cluster link for the
      // whole run.
      faults_ = sim::FaultPlan(rng_.next_u64());
      for (sim::FaultKind kind :
           {sim::FaultKind::kChannelLoss, sim::FaultKind::kChannelReorder,
            sim::FaultKind::kChannelDuplicate}) {
        faults_.add({kind, 0.0, static_cast<double>(horizon_s_) + 1.0, -1,
                     0.02});
      }
    }

    // FJB1 binary on the SMP and flat workloads, the default JSONL on the
    // tree; either way streamed to memory.
    if (journal_is_binary()) {
      encoder_ = std::make_unique<sim::BinaryJournalWriter>(bytes_);
    } else {
      encoder_ = std::make_unique<sim::JsonlStreamWriter>(bytes_);
    }
    sim::JournalWriter* sink = encoder_.get();
    if (clock) {
      timed_sink_ = std::make_unique<TimedWriter>(*encoder_, *clock);
      sink = timed_sink_.get();
    }
    journal_.stream_to(sink);

    if (w.topology != Topology::kFlat) {
      sim::monitor::Monitor::Options mopts;
      mopts.journal = &journal_;
      monitor_ = std::make_unique<sim::monitor::Monitor>(
          sim::monitor::RuleSet::parse_string(
              sim::monitor::default_rule_pack()),
          std::move(mopts));
    }

    core::PolicyStageFactory factory;
    if (clock) {
      factory = [clock](const mach::FrequencyTable& table,
                        const mach::MemoryLatencies& latencies,
                        const core::FrequencyScheduler::Options& options)
          -> std::unique_ptr<core::PolicyStage> {
        return std::make_unique<TimedPolicy>(
            std::make_unique<core::SchedulerPolicyStage>(table, latencies,
                                                         options),
            *clock);
      };
    }

    const auto t_daemon = Clock::now();
    const mach::FrequencyTable& table = machine_.freq_table;
    switch (w.topology) {
      case Topology::kSmp: {
        core::DaemonConfig cfg;
        cfg.t_sample_s = kSampleS;
        cfg.schedule_every_n_samples = kMultiplier;
        cfg.scheduler.epsilon = rng_.uniform(0.02, 0.06);
        cfg.scheduler.explain = true;
        cfg.advance_mode = core::AdvanceMode::kEvent;
        cfg.journal = &journal_;
        cfg.monitor = monitor_.get();
        cfg.policy_factory = factory;
        smp_ = std::make_unique<core::FvsstDaemon>(sim_, *cluster_, table,
                                                   *budget_, cfg);
        break;
      }
      case Topology::kFlat: {
        core::ClusterDaemonConfig cfg;
        cfg.t_sample_s = kSampleS;
        cfg.schedule_every_n_samples = kMultiplier;
        cfg.transport = cluster::TransportMode::kReliable;
        cfg.fault_plan = &faults_;
        cfg.journal = &journal_;
        cfg.policy_factory = factory;
        flat_ = std::make_unique<core::ClusterDaemon>(sim_, *cluster_, table,
                                                      *budget_, cfg);
        break;
      }
      case Topology::kTree: {
        core::TreeDaemonConfig cfg;
        cfg.t_sample_s = kSampleS;
        cfg.schedule_every_n_samples = kMultiplier;
        cfg.advance_mode = core::AdvanceMode::kEvent;
        cfg.step_threads = 2;
        cfg.transport = cluster::TransportMode::kReliable;
        cfg.fault_plan = &faults_;
        cfg.journal = &journal_;
        cfg.monitor = monitor_.get();
        tree_ = std::make_unique<core::TreeDaemon>(sim_, *cluster_, table,
                                                   *budget_, cfg);
        break;
      }
    }
    daemon_build_s_ = seconds_since(t_daemon);
  }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  int rounds() const { return horizon_s_ * kMultiplier; }
  double sim_seconds() const { return horizon_s_; }
  std::size_t nodes() const { return cluster_->node_count(); }

  sim::Simulation& sim() { return sim_; }
  cluster::Cluster& cluster() { return *cluster_; }
  const power::PowerBudget& budget() const { return *budget_; }
  const core::FvsstDaemon* smp() const { return smp_.get(); }
  const core::ClusterDaemon* flat() const { return flat_.get(); }
  const core::TreeDaemon* tree() const { return tree_.get(); }
  const sim::monitor::Monitor* monitor() const { return monitor_.get(); }
  double cluster_build_s() const { return cluster_build_s_; }
  double daemon_build_s() const { return daemon_build_s_; }
  std::size_t journal_events() const { return encoder_->events_written(); }

  /// Seals the journal stream; throws JournalWriteError on a failed sink.
  void finish_journal() {
    journal_.flush_stream();
    journal_.stream_to(nullptr);
  }

  /// The encoded journal bytes (complete after finish_journal()).
  std::string journal_bytes() const { return bytes_.str(); }
  bool journal_is_binary() const { return workload_.topology != Topology::kTree; }

 private:
  const Workload& workload_;
  int horizon_s_;
  sim::Rng rng_;
  const mach::MachineConfig machine_;
  sim::Simulation sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<power::PowerBudget> budget_;
  sim::FaultPlan faults_;
  std::ostringstream bytes_;
  std::unique_ptr<sim::JournalWriter> encoder_;
  std::unique_ptr<TimedWriter> timed_sink_;
  sim::EventLog journal_;
  std::unique_ptr<sim::monitor::Monitor> monitor_;
  std::unique_ptr<core::FvsstDaemon> smp_;
  std::unique_ptr<core::ClusterDaemon> flat_;
  std::unique_ptr<core::TreeDaemon> tree_;
  double cluster_build_s_ = 0.0;
  double daemon_build_s_ = 0.0;
};

// ---- Running and checking one instance ----------------------------------

/// What one simulated instance did and cost.
struct InstanceResult {
  double setup_s = 0.0;
  double timed_s = 0.0;  ///< Sum of the per-period run_until calls.
  std::vector<double> round_s;
  std::uint64_t fingerprint = 0;
  bool ok = true;
  std::string error;
  // Simulated outcome (identical for identical inputs).
  double instructions = 0.0;
  double energy_j = 0.0;
  std::size_t boundaries = 0;
  std::size_t within_budget = 0;
  double ipc_dev_sum = 0.0;
  std::size_t ipc_dev_count = 0;
  // Transport activity, counted from the journal's message_* events (the
  // tree daemon exposes no counters for it).
  std::size_t msgs_lost = 0, retransmits = 0, duplicates = 0, expired = 0;
};

/// Per-layer counters read from the public API after a traced instance.
struct LayerCounts {
  double rounds = 0, sample_s = 0, estimate_s = 0, actuate_s = 0;
  double daemon_build_s = 0, cluster_build_s = 0;
  double tree_summaries = 0, tree_summary_bytes = 0;
  double tree_lag_s_sum = 0, tree_lag_samples = 0;
  double advance_calls = 0;
  double shard_sweeps = 0, cores_advanced = 0, cores_skipped = 0;
  double msgs_lost = 0, retransmits = 0, duplicates = 0, expired = 0;
  double node_rounds = 0;  ///< rounds x nodes, the retransmit-ratio base.
  double events = 0, sim_s = 0;
  double journal_events = 0, journal_bytes = 0;
  double monitor_evaluations = 0, alerts_raised = 0;
  double timed_s = 0;
};

/// Steps `inst` one period T at a time (or in one run_for when `one_shot`),
/// then verifies it.  Per-period wall times go to `out.round_s`.
InstanceResult run_instance(Instance& inst, bool one_shot,
                            LayerCounts* counts) {
  InstanceResult out;
  const int rounds = inst.rounds();
  try {
    if (one_shot) {
      const auto t0 = Clock::now();
      inst.sim().run_for(inst.sim_seconds());
      out.timed_s = seconds_since(t0);
    } else {
      out.round_s.reserve(static_cast<std::size_t>(rounds));
      for (int k = 1; k <= rounds; ++k) {
        const auto t0 = Clock::now();
        inst.sim().run_until(static_cast<double>(k) * kPeriodS);
        const double dt = seconds_since(t0);
        out.round_s.push_back(dt);
        out.timed_s += dt;
        // Round-boundary observations, outside the timed call.
        const double power = inst.cluster().cpu_power_w();
        const double limit = inst.budget().effective_limit_w();
        out.energy_j += power * kPeriodS;
        ++out.boundaries;
        if (power <= limit * (1.0 + 1e-9)) ++out.within_budget;
        if (counts && inst.tree()) {
          counts->tree_lag_s_sum += inst.tree()->last_lag_s();
          counts->tree_lag_samples += 1;
        }
      }
    }
    inst.finish_journal();
  } catch (const sim::JournalWriteError& err) {
    out.ok = false;
    out.error = std::string("journal write failed: ") + err.what();
    return out;
  } catch (const std::exception& err) {
    out.ok = false;
    out.error = std::string("simulation failed: ") + err.what();
    return out;
  }

  // Journal invariants and the decision fingerprint, from the streamed
  // bytes (the encoder's output, decoded exactly as a reader would).
  Fingerprint fp;
  sim::JournalChecker checker;
  const std::string bytes = inst.journal_bytes();
  try {
    std::istringstream in(bytes);
    const auto visit = [&](sim::Event&& e) {
      checker.observe(e);
      fingerprint_event(fp, e);
      switch (e.type) {
        case sim::EventType::kMessageLost: ++out.msgs_lost; break;
        case sim::EventType::kMessageRetransmit: ++out.retransmits; break;
        case sim::EventType::kMessageDuplicate: ++out.duplicates; break;
        case sim::EventType::kMessageExpired: ++out.expired; break;
        default: break;
      }
    };
    const std::size_t decoded = inst.journal_is_binary()
                                    ? sim::for_each_binary(in, visit)
                                    : sim::for_each_jsonl(in, visit);
    if (decoded != inst.journal_events()) {
      out.ok = false;
      out.error = "journal decoded " + std::to_string(decoded) + " of " +
                  std::to_string(inst.journal_events()) + " events";
    }
  } catch (const std::exception& err) {
    out.ok = false;
    out.error = std::string("journal unreadable: ") + err.what();
  }
  const sim::JournalCheckReport report = checker.finish();
  if (!report.ok()) {
    out.ok = false;
    out.error = "journal check: " + report.violations.front();
  }
  for (const auto& addr : inst.cluster().all_procs()) {
    cpu::Core& core = inst.cluster().core(addr);
    const double instr = core.instructions_retired();
    fp.num(core.frequency_hz());
    fp.num(instr);
    out.instructions += instr;
  }
  out.fingerprint = fp.h;

  const core::ControlLoop* loop = inst.smp()    ? &inst.smp()->loop()
                                  : inst.flat() ? &inst.flat()->loop()
                                                : nullptr;
  if (loop) {
    for (std::size_t c = 0; c < loop->cpu_count(); ++c) {
      const sim::RunningStat& dev = loop->deviation_stat(c);
      out.ipc_dev_sum += dev.mean() * static_cast<double>(dev.count());
      out.ipc_dev_count += dev.count();
    }
  }

  if (counts) {
    counts->timed_s += out.timed_s;
    counts->daemon_build_s += inst.daemon_build_s();
    counts->cluster_build_s += inst.cluster_build_s();
    counts->events += static_cast<double>(inst.sim().events_executed());
    counts->sim_s += inst.sim_seconds();
    counts->journal_events += static_cast<double>(inst.journal_events());
    counts->journal_bytes += static_cast<double>(bytes.size());
    if (loop) {
      const core::ControlLoopTimings& t = loop->timings();
      counts->sample_s += t.sample.total_s;
      counts->estimate_s += t.estimate.total_s;
      counts->actuate_s += t.actuate.total_s;
    }
    double instance_rounds = 0;
    if (inst.smp()) instance_rounds = static_cast<double>(inst.smp()->schedules_run());
    if (inst.flat()) instance_rounds = static_cast<double>(inst.flat()->rounds());
    counts->msgs_lost += static_cast<double>(out.msgs_lost);
    counts->retransmits += static_cast<double>(out.retransmits);
    counts->duplicates += static_cast<double>(out.duplicates);
    counts->expired += static_cast<double>(out.expired);
    if (inst.tree()) {
      const core::TreeDaemon& d = *inst.tree();
      instance_rounds = static_cast<double>(d.rounds());
      counts->tree_summaries += static_cast<double>(d.summaries_sent());
      counts->tree_summary_bytes += static_cast<double>(d.summary_bytes_sent());
      for (std::size_t s = 0; s < d.shard_count(); ++s) {
        counts->shard_sweeps += static_cast<double>(d.shard(s).sweeps());
        counts->cores_advanced += static_cast<double>(d.shard(s).cores_advanced());
        counts->cores_skipped += static_cast<double>(d.shard(s).cores_skipped());
      }
    }
    counts->rounds += instance_rounds;
    counts->node_rounds += instance_rounds * static_cast<double>(inst.nodes());
    for (const auto& addr : inst.cluster().all_procs()) {
      counts->advance_calls +=
          static_cast<double>(inst.cluster().core(addr).advance_calls());
    }
    if (inst.monitor()) {
      counts->monitor_evaluations +=
          static_cast<double>(inst.monitor()->evaluations());
      counts->alerts_raised += static_cast<double>(inst.monitor()->alerts_raised());
    }
  }
  return out;
}

/// Builds (timed as set-up) and runs one instance.
InstanceResult build_and_run(const Workload& w, std::uint64_t input_seed,
                             std::size_t nodes, int horizon_s, bool one_shot,
                             LayerClock* clock, LayerCounts* counts) {
  const auto t0 = Clock::now();
  std::unique_ptr<Instance> inst;
  try {
    inst = std::make_unique<Instance>(w, input_seed, nodes, horizon_s, clock);
  } catch (const std::exception& err) {
    InstanceResult failed;
    failed.ok = false;
    failed.error = std::string("setup failed: ") + err.what();
    return failed;
  }
  const double setup_s = seconds_since(t0);
  InstanceResult r = run_instance(*inst, one_shot, counts);
  r.setup_s = setup_s;
  return r;
}

/// The physics twin: the same cluster and workloads with no daemon, every
/// core stepped with Core::advance_to at each t lattice point of the
/// horizon, at f_max (the cores' initial setting).  Returns the busy time
/// of those calls and the number of core steps taken.
std::pair<double, double> physics_twin(const Workload& w,
                                       std::uint64_t input_seed) {
  sim::Simulation sim;
  sim::Rng rng(input_seed);
  const mach::MachineConfig machine = machine_for(w);
  auto twin = build_cluster(sim, w, machine, w.nodes, input_seed, rng);
  std::vector<cpu::Core*> cores;
  for (const auto& addr : twin->all_procs()) cores.push_back(&twin->core(addr));
  const int steps = w.horizon_s * kMultiplier * kMultiplier;
  double busy_s = 0.0;
  for (int m = 1; m <= steps; ++m) {
    const double t = static_cast<double>(m) * kSampleS;
    const auto t0 = Clock::now();
    for (cpu::Core* core : cores) core->advance_to(t);
    busy_s += seconds_since(t0);
  }
  return {busy_s, static_cast<double>(steps) * static_cast<double>(cores.size())};
}

// ---- Statistics and output ----------------------------------------------

/// p-quantile of [first, last), reordering the range; 0 when empty.
double quantile_of(std::vector<double>::iterator first,
                   std::vector<double>::iterator last, double p) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n == 0) return 0.0;
  const std::size_t k =
      std::min(n - 1, static_cast<std::size_t>(p * static_cast<double>(n)));
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(k), last);
  return first[static_cast<std::ptrdiff_t>(k)];
}

double quantile(std::vector<double> v, double p) {
  return quantile_of(v.begin(), v.end(), p);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Round wall times of a run.  The buffer is allocated and written up
/// front, so the benchmark's own bookkeeping adds the same resident memory
/// to every run and peak_rss_mb measures the simulator.  Past capacity it
/// keeps a uniform reservoir sample, so every quantile is still a measured
/// value.
class RoundSamples {
 public:
  explicit RoundSamples(std::size_t capacity) : kept_(capacity, 0.0) {}

  void add(double x) {
    if (seen_ < kept_.size()) {
      kept_[seen_] = x;
    } else {
      const std::uint64_t j = rng_.next_u64() % (seen_ + 1);
      if (j < kept_.size()) kept_[j] = x;
    }
    ++seen_;
  }

  std::size_t count() const { return seen_; }

  /// p-quantile of the kept samples (reorders them; call after the run).
  double quantile(double p) {
    const std::size_t n = std::min(seen_, kept_.size());
    return quantile_of(kept_.begin(),
                       kept_.begin() + static_cast<std::ptrdiff_t>(n), p);
  }

 private:
  std::vector<double> kept_;
  std::size_t seen_ = 0;
  sim::Rng rng_{1};
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_metrics(bool correct, std::size_t attempted, std::size_t failed,
                   const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Per-layer metrics that a workload's topology never exercises; they are
/// reported as 0 and listed by name in the run line.
std::vector<std::string> not_applicable(Topology topology) {
  const std::vector<std::string> tree = {
      "core.tree_summaries", "core.tree_summary_bytes", "core.tree_lag_ms"};
  const std::vector<std::string> shards = {
      "cluster.shard_sweeps", "cluster.cores_advanced", "cluster.cores_skipped",
      "cluster.skip_ratio"};
  const std::vector<std::string> transport = {
      "cluster.msgs_lost", "cluster.retransmits", "cluster.duplicates",
      "cluster.expired", "cluster.retransmit_ratio"};
  std::vector<std::string> out;
  const auto add = [&out](const std::vector<std::string>& names) {
    out.insert(out.end(), names.begin(), names.end());
  };
  switch (topology) {
    case Topology::kSmp:
      add(tree);
      add(shards);
      add(transport);
      break;
    case Topology::kFlat:
      add(tree);
      add(shards);
      // The coordinator's mailbox sampler ships views, not counter deltas,
      // so its loop never scores a prediction.
      add({"monitor.evaluations", "monitor.alerts_raised", "sim_ipc_dev"});
      break;
    case Topology::kTree:
      add({"core.policy_calls", "core.policy_s", "core.policy_us_p50",
           "core.policy_us_p90", "core.downgrade_steps", "core.sample_s",
           "core.estimate_s", "core.actuate_s", "sim_ipc_dev"});
      break;
  }
  return out;
}

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Input seed of distinct input `index` of a run seeded with `seed`.
std::uint64_t input_seed(std::uint64_t seed, std::size_t index) {
  return splitmix64(seed ^ splitmix64(index + 1));
}

/// Closed loop: one instance after the next.  An untraced run goes on
/// until the measuring time is spent, every distinct input has run once
/// and at least 100 rounds were timed.  A traced run pairs each instance
/// with an untraced one of the same input, so the trace overhead and the
/// fingerprint equality of the two are measured in the same process; it
/// starts a pair only if the pair should end within the measuring time.
int run_benchmark(const RunOptions& opts) {
  const Workload& w = *opts.workload;
  const std::size_t inputs = w.distinct_inputs;
  constexpr std::size_t kMinRounds = 100;

  std::printf(
      "{\"provenance\": {\"cpu_model\": \"%s\", \"nproc\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": true, "
      "\"ndebug\": true, \"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"seed\": %llu, \"held_back_seed\": %llu, \"seed_is_held_back\": %s}}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      FVSST_BENCH_COMPILER, FVSST_BENCH_BUILD_TYPE,
      json_escape(opts.commit).c_str(), json_escape(opts.source_digest).c_str(),
      static_cast<unsigned long long>(opts.seed),
      static_cast<unsigned long long>(kHeldBackSeed),
      opts.seed == kHeldBackSeed ? "true" : "false");
  std::fflush(stdout);

  std::size_t attempted = 0, failed = 0;
  std::vector<std::uint64_t> first_fp(inputs, 0);
  const auto check = [&](const InstanceResult& r, std::size_t index,
                         bool first) {
    ++attempted;
    std::string error = r.error;
    if (r.ok && first) first_fp[index] = r.fingerprint;
    if (r.ok && !first && r.fingerprint != first_fp[index]) {
      error = "decision fingerprint changed on a repeat of input " +
              std::to_string(index);
    }
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "fvsst_perfbench: %s input %zu: %s\n", w.name,
                   index, error.c_str());
    }
  };

  // Simulated outcome over the first pass of every distinct input.
  double instructions = 0, energy_j = 0, sim_s = 0;
  double boundaries = 0, within = 0, dev_sum = 0, dev_count = 0;
  const auto add_outcome = [&](const InstanceResult& r) {
    instructions += r.instructions;
    energy_j += r.energy_j;
    sim_s += w.horizon_s;
    boundaries += static_cast<double>(r.boundaries);
    within += static_cast<double>(r.within_budget);
    dev_sum += r.ipc_dev_sum;
    dev_count += static_cast<double>(r.ipc_dev_count);
  };

  std::vector<double> setup_s, node_rate;
  RoundSamples round_s(std::size_t{1} << 20);
  double timed_s = 0;
  double untraced_s = 0;
  LayerClock clock;
  LayerCounts counts;
  std::size_t traced = 0;
  double last_pair_s = 0.0;

  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (opts.trace) {
      // A traced pair costs two instances: start one only if it can end
      // near the deadline.
      if (i > 0 && elapsed + last_pair_s > opts.seconds) break;
    } else if (i >= inputs && elapsed >= opts.seconds &&
               round_s.count() >= kMinRounds) {
      break;
    }
    const std::size_t index = i % inputs;
    const bool first = i < inputs;
    const std::uint64_t in_seed = input_seed(opts.seed, index);
    InstanceResult r = build_and_run(w, in_seed, w.nodes, w.horizon_s,
                                     /*one_shot=*/false, nullptr, nullptr);
    check(r, index, first);
    if (opts.trace) {
      untraced_s += r.timed_s;
      InstanceResult t = build_and_run(w, in_seed, w.nodes, w.horizon_s,
                                       /*one_shot=*/false, &clock, &counts);
      ++traced;
      // The traced instance must decide exactly what the untraced one did.
      if (t.ok && r.ok && t.fingerprint != r.fingerprint) {
        t.ok = false;
        t.error = "traced run changed the decision fingerprint";
      }
      check(t, index, false);
      if (first) add_outcome(t);
      last_pair_s = seconds_since(start) - elapsed;
    } else {
      if (first) add_outcome(r);
      setup_s.push_back(r.setup_s);
      for (double x : r.round_s) round_s.add(x);
      timed_s += r.timed_s;
      node_rate.push_back(
          ratio(static_cast<double>(w.nodes) * w.horizon_s, r.timed_s));
    }
  }

  std::vector<Metric> metrics;
  std::string na_list;
  if (!opts.trace) {
    metrics = {
        {"node_sim_s_per_s", median(node_rate), "node-s/s"},
        {"round_wall_ms_p50", round_s.quantile(0.5) * 1e3, "ms"},
        {"round_wall_ms_p90", round_s.quantile(0.9) * 1e3, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_gips", ratio(instructions, sim_s) / 1e9, "Ginstr/s"},
        {"sim_minstr_per_j", ratio(instructions, energy_j) / 1e6, "Minstr/J"},
        {"sim_within_budget_frac", ratio(within, boundaries), "fraction"},
    };
  } else {
    const auto [twin_s, twin_steps] = physics_twin(w, input_seed(opts.seed, 0));
    // Counts and busy times are means per traced instance, so runs that
    // fit a different number of instances in their time stay comparable.
    const double per = ratio(1.0, static_cast<double>(traced));
    const double attributed = counts.sample_s + counts.estimate_s +
                              clock.policy_s + counts.actuate_s +
                              clock.encode_s;
    metrics = {
        {"core.policy_calls", per * static_cast<double>(clock.policy_calls),
         "count"},
        {"core.policy_s", per * clock.policy_s, "s"},
        {"core.policy_us_p50", quantile(clock.policy_call_s, 0.5) * 1e6, "us"},
        {"core.policy_us_p90", quantile(clock.policy_call_s, 0.9) * 1e6, "us"},
        {"core.downgrade_steps",
         per * static_cast<double>(clock.downgrade_steps), "count"},
        {"core.rounds", per * counts.rounds, "count"},
        {"core.sample_s", per * counts.sample_s, "s"},
        {"core.estimate_s", per * counts.estimate_s, "s"},
        {"core.actuate_s", per * counts.actuate_s, "s"},
        {"core.daemon_build_s", per * counts.daemon_build_s, "s"},
        {"core.tree_summaries", per * counts.tree_summaries, "count"},
        {"core.tree_summary_bytes", per * counts.tree_summary_bytes, "bytes"},
        {"core.tree_lag_ms",
         ratio(counts.tree_lag_s_sum, counts.tree_lag_samples) * 1e3, "ms"},
        {"cpu.advance_calls", per * counts.advance_calls, "count"},
        {"cpu.twin_advance_s", twin_s, "s"},
        {"cpu.twin_ns_per_core_step", ratio(twin_s, twin_steps) * 1e9, "ns"},
        {"cluster.shard_sweeps", per * counts.shard_sweeps, "count"},
        {"cluster.cores_advanced", per * counts.cores_advanced, "count"},
        {"cluster.cores_skipped", per * counts.cores_skipped, "count"},
        {"cluster.skip_ratio",
         ratio(counts.cores_skipped, counts.cores_advanced + counts.cores_skipped),
         "fraction"},
        {"cluster.msgs_lost", per * counts.msgs_lost, "count"},
        {"cluster.retransmits", per * counts.retransmits, "count"},
        {"cluster.duplicates", per * counts.duplicates, "count"},
        {"cluster.expired", per * counts.expired, "count"},
        {"cluster.retransmit_ratio", ratio(counts.retransmits, counts.node_rounds),
         "fraction"},
        {"cluster.build_s", per * counts.cluster_build_s, "s"},
        {"simkit.events", per * counts.events, "count"},
        {"simkit.events_per_sim_s", ratio(counts.events, counts.sim_s), "1/s"},
        {"journal.events", per * counts.journal_events, "count"},
        {"journal.bytes", per * counts.journal_bytes, "bytes"},
        {"journal.encode_s", per * clock.encode_s, "s"},
        {"journal.encode_ns_per_event",
         ratio(clock.encode_s, counts.journal_events) * 1e9, "ns"},
        {"monitor.evaluations", per * counts.monitor_evaluations, "count"},
        {"monitor.alerts_raised", per * counts.alerts_raised, "count"},
        {"unattributed_s", per * (counts.timed_s - attributed), "s"},
        {"trace_overhead_frac", ratio(counts.timed_s, untraced_s) - 1.0,
         "fraction"},
        {"sim_ipc_dev", ratio(dev_sum, dev_count), "ipc"},
    };
    for (const std::string& name : not_applicable(w.topology)) {
      na_list += (na_list.empty() ? "\"" : ", \"") + name + "\"";
    }
  }

  std::string fps;
  for (std::size_t k = 0; k < inputs; ++k) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s\"%016llx\"", k ? ", " : "",
                  static_cast<unsigned long long>(first_fp[k]));
    fps += buf;
  }
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"instances\": %zu, \"distinct_inputs\": %zu, \"round_samples\": %zu, "
      "\"setup_samples\": %zu, \"timed_s\": %s, \"failed_frac\": %s, "
      "\"fingerprints\": [%s], \"not_applicable\": [%s]}}\n",
      w.name, static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
      attempted, inputs, round_s.count(), setup_s.size(),
      json_number(opts.trace ? counts.timed_s : timed_s).c_str(),
      json_number(ratio(static_cast<double>(failed),
                        static_cast<double>(attempted)))
          .c_str(),
      fps.c_str(), na_list.c_str());
  print_metrics(failed == 0, attempted, failed, metrics);
  return 0;
}

/// Stepping one T at a time with run_until(k * T) must decide exactly what
/// one run_for over the horizon decides, with and without the timing
/// decorators.  Small instances of every workload; returns failures.
int self_test() {
  struct Case {
    const Workload* w;
    std::size_t nodes;
    int horizon_s;
  };
  const Case cases[] = {{&kWorkloads[0], 1, 10},
                        {&kWorkloads[1], 40, 3},
                        {&kWorkloads[2], 3000, 2}};
  int failures = 0;
  for (const Case& c : cases) {
    const std::uint64_t seed = input_seed(7, 0);
    LayerClock clock;
    LayerCounts counts;
    const InstanceResult runs[] = {
        build_and_run(*c.w, seed, c.nodes, c.horizon_s, false, nullptr, nullptr),
        build_and_run(*c.w, seed, c.nodes, c.horizon_s, true, nullptr, nullptr),
        build_and_run(*c.w, seed, c.nodes, c.horizon_s, false, &clock, &counts),
        build_and_run(*c.w, seed, c.nodes, c.horizon_s, true, &clock, &counts),
    };
    const char* labels[] = {"stepped", "run_for", "stepped+traced",
                            "run_for+traced"};
    bool pass = true;
    for (std::size_t k = 0; k < 4; ++k) {
      if (!runs[k].ok) {
        std::fprintf(stderr, "self-test %s %s: %s\n", c.w->name, labels[k],
                     runs[k].error.c_str());
        pass = false;
      } else if (runs[k].fingerprint != runs[0].fingerprint) {
        std::fprintf(stderr, "self-test %s: %s fingerprint %016llx != %016llx\n",
                     c.w->name, labels[k],
                     static_cast<unsigned long long>(runs[k].fingerprint),
                     static_cast<unsigned long long>(runs[0].fingerprint));
        pass = false;
      }
    }
    if (clock.policy_calls == 0 && c.w->topology != Topology::kTree) {
      std::fprintf(stderr, "self-test %s: policy decorator never called\n",
                   c.w->name);
      pass = false;
    }
    std::printf("self-test %-10s %s (fingerprint %016llx)\n", c.w->name,
                pass ? "PASS" : "FAIL",
                static_cast<unsigned long long>(runs[0].fingerprint));
    if (!pass) ++failures;
  }
  return failures;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "fvsst_perfbench: %s\n"
               "usage: fvsst_perfbench --workload smp-search|flat-1k|tree-100k "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--source-digest D]\n"
               "       fvsst_perfbench --self-test\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || *s == '-') {
    usage((std::string("bad ") + what + " '" + s + "'").c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  bool have_seed = false, have_trace = false, self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--self-test") {
      self = true;
    } else if (flag == "--workload") {
      const std::string_view name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) opts.workload = &w;
      }
      if (!opts.workload) usage("unknown workload");
    } else if (flag == "--seed") {
      opts.seed = parse_u64(value(), "seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_u64(value(), "seconds"));
    } else if (flag == "--trace") {
      const std::string_view t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opts.trace = t == "1";
      have_trace = true;
    } else if (flag == "--commit") {
      opts.commit = value();
    } else if (flag == "--source-digest") {
      opts.source_digest = value();
    } else {
      usage(("unknown flag " + std::string(flag)).c_str());
    }
  }
  if (self) return self_test() == 0 ? 0 : 1;
  if (!opts.workload || !have_seed || !have_trace || opts.seconds <= 0) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "fvsst_perfbench: refusing to report from a build without "
                 "optimisation or without NDEBUG (build type %s)\n",
                 FVSST_BENCH_BUILD_TYPE);
    return 2;
  }
  return run_benchmark(opts);
}
