// shard.h - Contiguous node slabs with structure-of-arrays batched stepping.
//
// StepPool (parallel_stepper.h) made node stepping deterministic at any
// thread count, but its fixed `i mod N` partition interleaves every
// worker's nodes across the whole cluster: at 10k+ nodes each worker
// touches cache lines spread over the entire core array, and every
// per-core query chases a Node -> unique_ptr<Core> pointer chain.  The
// shard layer fixes both:
//
//   ShardMap   cuts the cluster into contiguous slabs of nodes, balanced
//              by per-node CPU weight (the locality-aware replacement for
//              `i mod N`: a worker's slab is one cache-friendly range, the
//              idiom NUMA-aware schedulers use for vCPU placement);
//   Shard      owns one slab's hot per-core state as parallel arrays —
//              synced-until, next-interesting-time, set-point frequency —
//              and advances the whole slab with one batched sweep
//              (cpu::Core::advance_batch) that skips already-synced cores
//              without touching the cold Core objects at all.
//
// Partitioning never changes simulation results: the batched advance
// touches only per-core state, and every ordered effect is committed
// serially in node order — the same contract StepPool::run documents.
// The hierarchical daemon (core/tree_daemon.h) runs each slab's sweep, its
// leaf's per-shard compute and its grant applies as pool tasks, and keeps
// every ordered effect (sends, journal events, counters) on the simulation
// thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"

namespace fvsst::cluster {

/// One shard's contiguous slab of nodes (and the flattened CPU range the
/// slab covers in the cluster's node-major processor order).
struct ShardSpan {
  std::size_t first_node = 0;
  std::size_t node_count = 0;
  std::size_t first_cpu = 0;  ///< Flat index of the slab's first CPU.
  std::size_t cpu_count = 0;

  std::size_t end_node() const { return first_node + node_count; }
};

/// Locality-aware partition of a cluster into contiguous node slabs,
/// balanced by per-node CPU count (a heterogeneous cluster's fat nodes
/// count for their real weight).
class ShardMap {
 public:
  /// Cuts `cluster` into `shards` slabs; `shards` is clamped to [1,
  /// node_count] so every shard owns at least one node.  Shard boundaries
  /// fall at the CPU-weight quantiles, so slabs differ by at most one
  /// node's weight.
  ShardMap(const Cluster& cluster, std::size_t shards);

  /// The default shard count for `nodes` nodes: ~sqrt(nodes), the
  /// two-level fan-out that keeps both the per-shard slab and the
  /// root's child list O(sqrt N).
  static std::size_t auto_shards(std::size_t nodes);

  std::size_t size() const { return spans_.size(); }
  const ShardSpan& span(std::size_t s) const { return spans_.at(s); }
  const std::vector<ShardSpan>& spans() const { return spans_; }

  /// Shard owning `node`.
  std::size_t shard_of_node(std::size_t node) const {
    return node_shard_.at(node);
  }

  std::size_t total_cpus() const { return total_cpus_; }

 private:
  std::vector<ShardSpan> spans_;
  std::vector<std::uint32_t> node_shard_;
  std::size_t total_cpus_ = 0;
};

/// One slab's cores in structure-of-arrays form.  The hot arrays
/// (synced-until, next-interesting, frequency) live contiguously so a
/// batch sweep reads them linearly; the cold Core objects are only
/// dereferenced for cores that actually need advancing.
class Shard {
 public:
  Shard(Cluster& cluster, ShardSpan span);

  const ShardSpan& span() const { return span_; }
  std::size_t core_count() const { return cores_.size(); }
  cpu::Core& core(std::size_t i) { return *cores_.at(i); }

  /// Global node index owning within-shard core `i`.
  std::size_t node_of_core(std::size_t i) const { return core_node_.at(i); }

  /// Advances every core in the slab to absolute time `t` (one batched
  /// sweep; cores already synced to >= t are skipped via the hot array,
  /// without touching the Core object).  When `node_skip` is non-null it
  /// indexes *global* node ids; cores of flagged nodes are left alone —
  /// the crash-window contract of ClusterDaemon::agents_tick.
  void advance_to(double t, const unsigned char* node_skip = nullptr);

  /// Earliest next model discontinuity across the slab, as cached by the
  /// last advance_to sweep (infinity before the first sweep or when no
  /// core bounds its advance).
  double next_interesting_time() const { return next_interesting_min_; }

  /// Hot per-core state refreshed by the last sweep.  The set-point array
  /// is also seeded at construction and written through by set_frequency,
  /// so it is current whenever every write goes through the shard.
  const std::vector<double>& synced_until() const { return synced_until_; }
  const std::vector<double>& frequency_hz() const { return frequency_hz_; }

  /// Sets core `i`'s frequency when `hz` differs from the hot set-point
  /// (Core::set_frequency syncs the core first); an unchanged set-point
  /// never touches the cold Core.
  void set_frequency(std::size_t i, double hz) {
    if (frequency_hz_[i] == hz) return;
    cores_[i]->set_frequency(hz);
    frequency_hz_[i] = hz;
  }

  /// Peak power of the slab at the cached set-points.
  double cached_power_w() const;

  /// Sweep statistics (for the scale bench and the inspector).
  std::uint64_t sweeps() const { return sweeps_; }
  std::uint64_t cores_advanced() const { return cores_advanced_; }
  std::uint64_t cores_skipped() const { return cores_skipped_; }

 private:
  ShardSpan span_;
  std::vector<cpu::Core*> cores_;          // cold: dereferenced on demand
  std::vector<std::uint32_t> core_node_;   // global node id per core
  std::vector<const mach::FrequencyTable*> core_table_;
  // Hot SoA arrays, parallel to cores_.
  std::vector<double> synced_until_;
  std::vector<double> next_interesting_;
  std::vector<double> frequency_hz_;
  std::vector<unsigned char> skip_scratch_;
  double next_interesting_min_ = 0.0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t cores_advanced_ = 0;
  std::uint64_t cores_skipped_ = 0;
};

/// Builds one Shard per ShardMap slab.
std::vector<Shard> make_shards(Cluster& cluster, const ShardMap& map);

}  // namespace fvsst::cluster
