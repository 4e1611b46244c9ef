// One-call experiment runner: algorithm name + instance -> measured record.
#pragma once

#include <string>

#include "algs/registry.h"
#include "core/arrival_source.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/shard_plan.h"
#include "obs/observer.h"

namespace rrs {

/// Outcome of one (algorithm, instance, n) cell.
struct RunRecord {
  std::string algorithm;
  int n = 0;
  CostBreakdown cost;
  std::int64_t executed = 0;
  double seconds = 0.0;  ///< wall-clock of the run
  std::vector<std::pair<std::string, std::int64_t>> stats;
};

/// Runs the registered algorithm `name` with `n` resources on `instance`.
/// If `schedule_out` is non-null the event schedule is recorded there.
[[nodiscard]] RunRecord run_algorithm(const Instance& instance,
                                      const std::string& name, int n,
                                      Schedule* schedule_out = nullptr);

/// Outcome of one streaming run.
struct StreamRunRecord {
  std::string algorithm;
  int n = 0;
  CostBreakdown cost;
  std::int64_t executed = 0;      ///< jobs completed
  std::int64_t work_units = 0;    ///< execution units applied (== executed
                                  ///< under unit lengths)
  std::int64_t arrived = 0;       ///< jobs pulled from the source
  Round rounds = 0;               ///< rounds actually run
  std::int64_t peak_pending = 0;  ///< max pending-set size observed
  /// Arrivals shed by pending-budget admission control (already counted in
  /// arrived and charged in cost.drops).
  std::int64_t admission_rejected = 0;
  DegradedStats degraded;         ///< capacity-churn counters
  double seconds = 0.0;           ///< wall-clock of the run
  std::vector<std::pair<std::string, std::int64_t>> stats;
};

/// Builds the engine options + fresh policy for the streaming algorithm
/// `name` ("seq-edf"/"ds-seq-edf" run EDF unreplicated at speed 1/2;
/// everything else goes through the registry with the Section 3
/// replication of 2).  Throws InputError on unknown names.
[[nodiscard]] std::unique_ptr<Policy> make_stream_policy(
    const std::string& name, EngineOptions& options);

/// Runs the engine-driven algorithm `name` ("dlru", "edf", "dlru-edf",
/// "adaptive", "seq-edf", "ds-seq-edf") with `n` resources against
/// `source`, pulling rounds lazily: no schedule recording, no
/// materialization, memory O(pending + colors).  `max_rounds` caps the
/// pull (required for infinite sources).  The reduction pipelines
/// ("distribute", "varbatch") are whole-instance transforms and are not
/// available here.
[[nodiscard]] StreamRunRecord run_streaming(
    ArrivalSource& source, const std::string& name, int n,
    Round max_rounds = kInfiniteHorizon,
    const FaultPlan* fault_plan = nullptr, bool charge_repair = false,
    Observer* observer = nullptr, bool fast_forward = true);

/// Knobs for a sharded streaming run.
struct ShardedRunOptions {
  /// Per-color load weights for the plan (see make_shard_plan); empty
  /// means uniform.  Use observe_color_weights on a probe source to
  /// balance shards by observed rate.
  std::vector<double> color_weights;
  /// Optional capacity-churn schedule over the GLOBAL resource indices
  /// [0, n); split_fault_plan maps it onto the shards' contiguous resource
  /// blocks (kHottestResource events reach every shard).  Not owned.
  const FaultPlan* fault_plan = nullptr;
  /// Charge each repair as one reconfiguration (see EngineOptions).
  bool charge_repair = false;
  /// Sparse-round fast-forward on every shard engine (see
  /// EngineOptions::fast_forward).  Bit-identical either way; disable
  /// only to measure the skip.
  bool fast_forward = true;
  /// Optional merged observability sink (not owned).  When set, the runner
  /// attaches a fresh Observer (same ObsConfig, no snapshot stream) to
  /// every shard engine and, after the run, rebuilds this observer as the
  /// exact additive merge: per-color counters relabeled to global
  /// ColorIds, histograms merged elementwise, phase timers summed,
  /// per-shard snapshot series merged point-wise with carry-forward, and
  /// the final snapshots merged.  If snapshot_out is set on this observer
  /// the merged series is written there (as JSON lines) after the run.
  Observer* observer = nullptr;
  /// Optional caller-provided per-shard observers (size == num_shards; not
  /// owned); takes precedence over the runner-created ones so tests can
  /// inspect raw per-shard state.  Entries must not share snapshot
  /// streams: shards run concurrently.  Incompatible with reshard_every:
  /// engines are rebuilt at migration boundaries, so per-slot observers
  /// would silently lose earlier eras.
  std::vector<Observer*> shard_observers;
  /// Adaptive re-sharding epoch: every this many rounds the runner takes
  /// the per-color arrival counts each shard's view served since the
  /// last boundary, recomputes the LPT plan from them (weights =
  /// counts + 1), and — if the plan changed — migrates every color's
  /// state (pending jobs, policy scratch) into freshly built engines
  /// under the new plan, whose views reassign() their colors in place.
  /// 0 (default) disables: one plan for the whole run.  Requires no fault
  /// plan, no caller shard_observers, and no periodic snapshot series
  /// (ObsConfig::snapshot_every == 0) — those features assume one engine
  /// generation per shard.
  Round reshard_every = 0;
  /// Crash-safe checkpoint/resume.  Requires reshard_every == 0 (one
  /// engine generation per shard) and a source whose views checkpoint
  /// (each shard's sidecar embeds its own view's position).  Directory
  /// for `ckpt-<round>.manifest` + `ckpt-<round>.shard<k>` sets; empty
  /// disables both knobs below.
  std::string checkpoint_dir;
  /// Write one coordinated checkpoint set (a sidecar per shard engine,
  /// then the manifest — renamed into place last, as the commit point)
  /// when every shard reaches this round, then keep running.  0 = never.
  /// Checkpointing never perturbs results: the run stays bit-identical to
  /// one without it.
  Round checkpoint_at = 0;
  /// Before running, restore every shard from the newest valid checkpoint
  /// set in checkpoint_dir (corrupt or incomplete sets are skipped to the
  /// next-oldest; InputError when none is usable).  The resumed run's
  /// merged record is bit-identical to the uninterrupted run's.
  bool resume = false;
};

/// Outcome of one sharded streaming run: the per-shard records plus their
/// merge.  The merged CostBreakdown/executed/arrived are exact sums (the
/// color partition makes shards independent); merged rounds is the
/// maximum over shards and merged peak_pending the sum of per-shard peaks
/// (shards run asynchronously, so the true global peak is unobservable —
/// the sum is a deterministic upper bound).  Merged policy stats sum
/// per-key over shards.
struct ShardedRunRecord {
  StreamRunRecord merged;                ///< n = total budget
  std::vector<StreamRunRecord> shards;   ///< per-shard, n = shard slice
  ShardPlan plan;                        ///< the partition that was run
  /// Re-sharding log, one entry per boundary where the plan CHANGED: the
  /// boundary round and how many colors moved shards there.  With
  /// reshard_every == 0 (or when every boundary kept the plan) both stay
  /// empty and `plan` is the run's single plan; otherwise `plan` is the
  /// final era's.
  std::vector<Round> reshard_rounds;
  std::vector<int> reshard_moved_colors;
};

/// Runs `name` against `source` split into `num_shards` independent
/// engines (own PendingJobs, CacheAssignment, and policy instance per
/// shard) over the shared global_pool().  The color partition mirrors the
/// paper's Distribute reduction, so shards never contend: each shard
/// engine pulls its own per-color view of `source` (ArrivalSource::view),
/// results are run-to-run deterministic for a fixed (source seed,
/// num_shards), and num_shards == 1 is bit-identical to run_streaming.
/// A source without views is rejected with InputError when
/// num_shards > 1; with one shard it is run directly.  When the pool has
/// fewer workers than shards the engines run serially (same results).
[[nodiscard]] ShardedRunRecord run_streaming_sharded(
    ArrivalSource& source, const std::string& name, int n, int num_shards,
    Round max_rounds = kInfiniteHorizon,
    const ShardedRunOptions& options = {});

}  // namespace rrs
