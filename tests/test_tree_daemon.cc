// test_tree_daemon - The hierarchical coordinator tree: the headline
// guarantee that shard count, thread count and advance mode are invisible
// (bit-identical journals and final core state), under clean runs, under
// chaos and with the monitor attached; plus failover, fail-safe,
// validation behavior and the exactness of the monitor's power total.
#include "core/tree_daemon.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"
#include "simkit/rng.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

struct Scenario {
  const char* name;
  bool standby = false;
  double failsafe_factor = 0.0;
  cluster::TransportMode transport = cluster::TransportMode::kDatagram;
  std::vector<sim::FaultSpec> faults = {};
  /// Attach a monitor with the default rule pack, journalling its alerts.
  bool monitored = false;
  double t_sample_s = 0.010;
  double link_latency_s = 100e-6;
  /// Add two looping two-phase workloads, so desired points keep moving.
  bool phased = false;
};

struct RunShape {
  std::size_t shards;
  int threads;
  core::AdvanceMode mode;
};

struct RunResult {
  std::string digest;     ///< Journal + final core state + counters.
  std::size_t rounds = 0;
  cluster::Epoch epoch = 1;
  std::size_t failsafe_shards = 0;
};

RunResult run_tree(const Scenario& sc, const RunShape& shape,
                   double duration = 2.5) {
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  constexpr std::size_t kNodes = 12;
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, kNodes, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({5, 1}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  cluster.core({11, 0}).add_workload(
      workload::make_uniform_synthetic(25.0, 1e12));
  if (sc.phased) {
    workload::SyntheticParams phases;
    phases.phase1 = {100.0, 1.2e8};
    phases.phase2 = {10.0, 3e7};
    cluster.core({2, 0}).add_workload(workload::make_synthetic(phases));
    cluster.core({9, 1}).add_workload(workload::make_synthetic(phases));
  }

  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.35); });

  sim::FaultPlan plan(5);
  for (const sim::FaultSpec& f : sc.faults) plan.add(f);

  sim::EventLog journal;
  std::unique_ptr<sim::monitor::Monitor> monitor;
  if (sc.monitored) {
    sim::monitor::Monitor::Options mopts;
    mopts.journal = &journal;
    monitor = std::make_unique<sim::monitor::Monitor>(
        sim::monitor::RuleSet::parse_string(
            sim::monitor::default_rule_pack()),
        mopts);
  }
  core::TreeDaemonConfig cfg;
  cfg.monitor = monitor.get();
  cfg.shards = shape.shards;
  cfg.step_threads = shape.threads;
  cfg.advance_mode = shape.mode;
  cfg.journal = &journal;
  if (!plan.empty()) cfg.fault_plan = &plan;
  cfg.standby_root = sc.standby;
  cfg.failsafe_factor = sc.failsafe_factor;
  cfg.transport = sc.transport;
  cfg.t_sample_s = sc.t_sample_s;
  cfg.link_latency_s = sc.link_latency_s;
  core::TreeDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(duration);

  RunResult out;
  out.rounds = daemon.rounds();
  out.epoch = daemon.epoch();
  out.failsafe_shards = daemon.failsafe_shard_count();

  std::ostringstream digest;
  sim::write_jsonl(digest, journal);
  for (const auto& addr : cluster.all_procs()) {
    auto& core = cluster.core(addr);
    char buf[160];
    std::snprintf(buf, sizeof buf, "core %zu.%zu hz=%.17g instr=%.17g\n",
                  addr.node, addr.cpu, core.frequency_hz(),
                  core.instructions_retired());
    digest << buf;
  }
  // Note: summaries_sent() is *not* part of the digest — more shards send
  // more (identical-sum) summaries per round by design.
  digest << "rounds=" << daemon.rounds() << " epoch=" << daemon.epoch()
         << '\n';
  out.digest = digest.str();
  return out;
}

// --- Shard/thread/mode invariance -----------------------------------------

/// Scenarios whose default journal is shard-invariant: faults (if any)
/// target node indices or root coordinators 0/1, never a specific shard's
/// leaf coordinator or a transport channel keyed by shard id.
class TreeInvariance : public ::testing::TestWithParam<Scenario> {};

TEST_P(TreeInvariance, ShardThreadAndModeAreInvisible) {
  const Scenario& sc = GetParam();
  const RunResult ref =
      run_tree(sc, {1, 1, core::AdvanceMode::kTick});
  ASSERT_FALSE(ref.digest.empty());
  ASSERT_GT(ref.rounds, 0u);
  // A monitored scenario must raise budget_overshoot, or the power total
  // behind its value would not reach the digest.
  if (sc.monitored) {
    ASSERT_NE(ref.digest.find("\"rule\":\"budget_overshoot\""),
              std::string::npos);
  }
  const RunShape shapes[] = {
      {1, 1, core::AdvanceMode::kEvent},
      {4, 1, core::AdvanceMode::kTick},
      {4, 4, core::AdvanceMode::kEvent},
      {16, 8, core::AdvanceMode::kTick},
      {16, 2, core::AdvanceMode::kEvent},
  };
  for (const RunShape& shape : shapes) {
    const RunResult got = run_tree(sc, shape);
    EXPECT_EQ(ref.digest, got.digest)
        << sc.name << ": shards=" << shape.shards
        << " threads=" << shape.threads << " mode="
        << (shape.mode == core::AdvanceMode::kEvent ? "event" : "tick")
        << " changed the simulation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TreeInvariance,
    ::testing::Values(
        Scenario{"budget_step"},
        Scenario{"node_crash",
                 false,
                 0.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kNodeCrash, 0.55, 1.45, 3, 0.0}}},
        Scenario{"root_crash_failsafe",
                 false,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0}}},
        Scenario{"root_partition_standby",
                 true,
                 0.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kPartition, 0.55, 1.75, 0, 0.0}}},
        // The shards sit at their fail-safe frequency through the budget
        // step, so budget_overshoot fires with a value computed from the
        // per-leaf power totals.
        Scenario{"monitored_root_crash_failsafe",
                 false,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0}},
                 true}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

// --- Fixed-shard chaos ----------------------------------------------------

/// Faults keyed by shard-dependent ids (leaf coordinators, per-child
/// transport draws) change the default journal when the shard count
/// changes — but threads and advance mode must stay invisible at any
/// fixed shard count.
class TreeFixedShardChaos : public ::testing::TestWithParam<Scenario> {};

TEST_P(TreeFixedShardChaos, ThreadAndModeAreInvisibleAtFixedShards) {
  const Scenario& sc = GetParam();
  const RunResult ref = run_tree(sc, {4, 1, core::AdvanceMode::kTick});
  ASSERT_GT(ref.rounds, 0u);
  for (const RunShape& shape :
       {RunShape{4, 1, core::AdvanceMode::kEvent},
        RunShape{4, 2, core::AdvanceMode::kTick},
        RunShape{4, 2, core::AdvanceMode::kEvent},
        RunShape{4, 3, core::AdvanceMode::kTick},
        RunShape{4, 3, core::AdvanceMode::kEvent},
        RunShape{4, 8, core::AdvanceMode::kTick}}) {
    const RunResult got = run_tree(sc, shape);
    EXPECT_EQ(ref.digest, got.digest)
        << sc.name << ": threads=" << shape.threads << " mode="
        << (shape.mode == core::AdvanceMode::kEvent ? "event" : "tick");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TreeFixedShardChaos,
    ::testing::Values(
        Scenario{"leaf_coordinator_crash",
                 false,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 // Target 2 + s: shard 1's leaf coordinator.
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 1.45, 3, 0.0}}},
        Scenario{"reliable_corrupt_channel",
                 false,
                 0.0,
                 cluster::TransportMode::kReliable,
                 {{sim::FaultKind::kChannelCorrupt, 0.35, 1.35, -1, 0.4}}},
        Scenario{"standby_plus_node_crash",
                 true,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0},
                  {sim::FaultKind::kNodeCrash, 0.8, 1.3, 7, 0.0}}},
        // Grant deliveries landing exactly on lattice instants, scheduled
        // before the tick or summary wake there, so the sweep runs between
        // the delivery and its apply flush (and must flush first).  Dyadic
        // t = 2^-7 s and L = 2^-13 s keep every instant exact.  A grant
        // reaches its leaf 4L + 2d after the summary instant (both
        // downward hops spiked by d); d = (3t - 4L)/2 lands it three ticks
        // later, d = (30t - 4L)/2 three rounds later, on a summary instant.
        Scenario{"delay_spike_on_lattice",
                 true,
                 2.0,
                 cluster::TransportMode::kReliable,
                 {{sim::FaultKind::kChannelDelaySpike, 0.35, 0.75, -1,
                   (3.0 / 128 - 4.0 / 8192) / 2},
                  {sim::FaultKind::kChannelDelaySpike, 1.1, 1.6, -1,
                   (30.0 / 128 - 4.0 / 8192) / 2},
                  {sim::FaultKind::kCoordinatorCrash, 1.8, 2.2, 0, 0.0},
                  {sim::FaultKind::kNodeCrash, 0.5, 1.2, 7, 0.0}},
                 true,
                 1.0 / 128,
                 1.0 / 8192,
                 true}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

// --- Protocol behavior ----------------------------------------------------

TEST(TreeDaemon, StandbyTakesOverAfterRootCrash) {
  Scenario sc{"takeover"};
  sc.standby = true;
  sc.faults = {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0}};
  const RunResult r = run_tree(sc, {4, 1, core::AdvanceMode::kTick});
  // The standby claimed a higher epoch and kept rounds flowing through
  // the outage (the crash window covers the rest of the run).
  EXPECT_GT(r.epoch, 1u);
  EXPECT_GT(r.rounds, 15u);
}

TEST(TreeDaemon, ShardsDropToFailsafeWhenRootSilent) {
  Scenario sc{"failsafe"};
  sc.failsafe_factor = 2.0;
  sc.faults = {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0}};
  const RunResult r = run_tree(sc, {4, 1, core::AdvanceMode::kTick});
  // No standby: every shard should be running its autonomous fail-safe
  // frequency at the end of the run.
  EXPECT_EQ(r.failsafe_shards, 4u);
}

TEST(TreeDaemon, RecoversFromFailsafeWhenRootReturns) {
  Scenario sc{"failsafe_recovery"};
  sc.failsafe_factor = 2.0;
  sc.faults = {{sim::FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0}};
  const RunResult r = run_tree(sc, {4, 1, core::AdvanceMode::kTick});
  EXPECT_EQ(r.failsafe_shards, 0u);
  EXPECT_GT(r.rounds, 10u);
}

TEST(TreeDaemon, RejectsHeterogeneousClusters) {
  sim::Simulation sim;
  sim::Rng rng(7);
  const mach::MachineConfig machine = mach::p630();
  std::vector<mach::MachineConfig> configs(3, machine);
  configs[2] = mach::derated(machine, 600e6);
  cluster::Cluster cluster =
      cluster::Cluster::heterogeneous(sim, configs, rng);
  power::PowerBudget budget(1000.0);
  core::TreeDaemonConfig cfg;
  EXPECT_THROW(core::TreeDaemon(sim, cluster, machine.freq_table, budget,
                                cfg),
               std::invalid_argument);
}

TEST(TreeDaemon, CapsClusterUnderBudgetWithinOneRound) {
  Scenario sc{"caps"};
  const RunResult r = run_tree(sc, {4, 1, core::AdvanceMode::kTick});
  EXPECT_GT(r.rounds, 20u);
  EXPECT_EQ(r.epoch, 1u);

  // Re-run and inspect the cluster state directly: the post-step budget
  // (35% of peak) must be respected by the granted frequencies.
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 12, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.35); });
  core::TreeDaemonConfig cfg;
  cfg.shards = 4;
  core::TreeDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(2.5);
  double power = 0.0;
  for (const auto& addr : cluster.all_procs()) {
    power += machine.freq_table.power(cluster.core(addr).frequency_hz());
  }
  EXPECT_LE(power, budget.effective_limit_w() + 1e-6);
}

// --- Monitor power input ---------------------------------------------------

TEST(TreeDaemon, LeafPowerTotalsEqualClusterPowerExactly) {
  // The monitor's power input is summed per leaf in integer microwatts.
  // P630 watts are whole numbers, so the node-order double sum of
  // Cluster::cpu_power_w() is exact too and the two must agree bit for
  // bit, whatever frequencies the cores run at.
  sim::Simulation sim;
  sim::Rng rng(31);
  const mach::MachineConfig machine = mach::p630();
  const mach::FrequencyTable& table = machine.freq_table;
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 12, rng);
  power::PowerBudget budget(static_cast<double>(cluster.cpu_count()) * 140.0);
  sim::monitor::Monitor monitor(sim::monitor::RuleSet::parse_string(
      sim::monitor::default_rule_pack()));
  core::TreeDaemonConfig cfg;
  cfg.shards = 5;
  cfg.step_threads = 2;
  cfg.monitor = &monitor;
  core::TreeDaemon daemon(sim, cluster, table, budget, cfg);

  const double period = cfg.t_sample_s * cfg.schedule_every_n_samples;
  sim::Rng pick(77);
  for (int k = 1; k <= 20; ++k) {
    // Random operating points after round k-1's grants have applied, read
    // back at round k's summary instant (before its grants land).
    sim.run_until((k - 0.5) * period);
    for (const auto& addr : cluster.all_procs()) {
      const auto b = static_cast<std::size_t>(pick.uniform_int(
          0, static_cast<std::int64_t>(table.size()) - 1));
      cluster.core(addr).set_frequency(table[b].hz);
    }
    sim.run_until(k * period + 0.5 * cfg.link_latency_s);
    EXPECT_EQ(daemon.last_cpu_power_w(), cluster.cpu_power_w())
        << "round " << k;
  }
}

}  // namespace
}  // namespace fvsst
