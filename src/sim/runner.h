// Experiment runners: algorithm name + instance -> measured record, and
// the one streaming driver (serial, sharded and supervised runs alike).
#pragma once

#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

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

/// Serial streaming run: the K = 1 case of run_streaming_sharded (see
/// there), returning its merged record.  Runs the engine-driven algorithm
/// `name` ("dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf")
/// with `n` resources against `source`, pulling rounds lazily: no schedule
/// recording, no materialization, memory O(pending + colors).
/// `max_rounds` caps the pull (required for infinite sources).  The
/// reduction pipelines ("distribute", "varbatch") are whole-instance
/// transforms and are not available here.
[[nodiscard]] StreamRunRecord run_streaming(
    ArrivalSource& source, const std::string& name, int n,
    Round max_rounds = kInfiniteHorizon,
    const FaultPlan* fault_plan = nullptr, bool charge_repair = false,
    Observer* observer = nullptr, bool fast_forward = true);

/// Knobs for one streaming run, serial (K = 1) or sharded.  Combinations
/// the driver cannot run exactly are rejected up front with InputError:
///   * reshard_every > 0 with a fault plan, caller shard_observers, a
///     periodic snapshot series (ObsConfig::snapshot_every != 0),
///     checkpoints (checkpoint_every or resume) or a stop_flag;
///   * num_shards > 1 over a source without per-color views;
///   * an infinite source without max_rounds;
///   * checkpoint_every, resume or stop_flag without checkpoint_dir;
///   * pending_budget with num_shards > 1;
///   * shard_observers whose size is not num_shards.
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
  /// Pending-budget admission control (see EngineOptions::pending_budget).
  /// Serial runs only: one global budget cannot be split across shards
  /// without changing which arrivals are shed.
  std::int64_t pending_budget = 0;
  /// Optional observability sink (not owned).  At K = 1 (with no
  /// shard_observers) it is the engine's own observer.  At K > 1 the
  /// driver attaches a fresh Observer (same ObsConfig, no snapshot stream)
  /// to every shard engine and, after the run, rebuilds this observer as
  /// the exact additive merge: per-color counters relabeled to global
  /// ColorIds, histograms merged elementwise, phase timers summed,
  /// per-shard snapshot series merged point-wise with carry-forward, and
  /// the final snapshots merged.  If snapshot_out is set on this observer
  /// the merged series is written there (as JSON lines) after the run.
  Observer* observer = nullptr;
  /// Optional caller-provided per-shard observers (size == num_shards; not
  /// owned); takes precedence over the driver-created ones so tests can
  /// inspect raw per-shard state.  Entries must not share snapshot
  /// streams: shards run concurrently.
  std::vector<Observer*> shard_observers;
  /// Adaptive re-sharding epoch (K > 1 only): every this many rounds the
  /// driver takes the per-color arrival counts each shard's view served
  /// since the last boundary, recomputes the LPT plan from them (weights =
  /// counts + 1), and — if the plan changed — migrates every color's
  /// state (pending jobs, policy scratch) into freshly built engines
  /// under the new plan, whose views reassign() their colors in place.
  /// 0 (default) disables: one plan for the whole run.
  Round reshard_every = 0;
  /// Directory of checkpoint sets, created on first write.  A set at round
  /// r is one sidecar per shard, `ckpt-<r>.shard<k>` (that engine's
  /// Engine::checkpoint bytes, its source or view embedded), then
  /// `ckpt-<r>.manifest`, renamed into place last as the commit point.
  std::string checkpoint_dir;
  /// Write a checkpoint set at every interior multiple of this many rounds
  /// (aligned to round 0, so a resumed run writes at the same rounds as
  /// an uninterrupted one); 0 = none.  Checkpointing never perturbs
  /// results: the run stays bit-identical to one without it.
  Round checkpoint_every = 0;
  /// Checkpoint sets retained on disk; after each write older sets are
  /// deleted, manifest first.  Must be >= 1.
  int checkpoint_keep = 3;
  /// Cooperative shutdown: when non-null and set non-zero (e.g. by a
  /// SIGTERM handler installed via install_signal_stop), the run stops at
  /// the next segment boundary, writes a checkpoint set of the exact stop
  /// point, and returns with finished == false.  Checked between
  /// segments, so segments are bounded to 1024 rounds when
  /// checkpoint_every == 0.
  volatile std::sig_atomic_t* stop_flag = nullptr;
  /// Before running, restore every shard from the newest valid checkpoint
  /// set in checkpoint_dir (a set whose manifest does not match this run,
  /// or whose sidecars fail validation, is skipped to the next-oldest;
  /// InputError when none is usable).  The resumed run's records are
  /// bit-identical to the uninterrupted run's.
  bool resume = false;
};

/// Outcome of one streaming run: the per-shard records plus their merge.
/// The merged CostBreakdown/executed/arrived are exact sums (the color
/// partition makes shards independent); merged rounds is the maximum over
/// shards and merged peak_pending the sum of per-shard peaks (shards run
/// asynchronously, so the true global peak is unobservable — the sum is a
/// deterministic upper bound).  Merged policy stats sum per key over
/// shards.  At K = 1 the merged record is the shard's own.
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
  /// True when the run reached its natural end (arrivals exhausted and
  /// drained); false when the stop flag ended it early.
  bool finished = false;
  /// Next round the engines would have run when the call returned (==
  /// merged.rounds when finished).
  Round stopped_at = 0;
  /// Round of the checkpoint set the run resumed from; -1 for a fresh
  /// start.
  Round recovered_from = -1;
  int checkpoints_written = 0;  ///< sets committed by this call
  /// Manifest of the last set this call committed; empty when none.
  std::string final_checkpoint;
};

/// The streaming driver.  Runs `name` against `source` split into
/// `num_shards` independent engines (own PendingJobs, CacheAssignment, and
/// policy instance per shard).  The color partition mirrors the paper's
/// Distribute reduction, so shards never contend: each shard engine pulls
/// its own per-color view of `source` (ArrivalSource::view) and results
/// are run-to-run deterministic for a fixed (source seed, num_shards).
/// num_shards == 1 is the serial run: the engine pulls `source` itself on
/// the caller's thread.  K > 1 runs the shards over the shared
/// global_pool(); when it has fewer workers than shards the engines run
/// serially (same results).  See ShardedRunOptions for supervision
/// (checkpoint cadence, rotation, stop flag, resume) and for the
/// combinations that are rejected.
[[nodiscard]] ShardedRunRecord run_streaming_sharded(
    ArrivalSource& source, const std::string& name, int n, int num_shards,
    Round max_rounds = kInfiniteHorizon,
    const ShardedRunOptions& options = {});

/// One discovered checkpoint file.
struct CheckpointFile {
  Round round = 0;
  std::filesystem::path path;
};

/// Lists `ckpt-<round><suffix>` files in `dir`, newest (highest round)
/// first.  Non-matching names are ignored; a missing directory yields an
/// empty list.
[[nodiscard]] std::vector<CheckpointFile> list_checkpoints(
    const std::filesystem::path& dir, const std::string& suffix);

/// Installs a SIGTERM + SIGINT handler that sets `*flag` to 1 (the flag
/// must outlive the handler).  Returns false when either registration
/// failed.  Handlers write only the sig_atomic_t flag, so they are
/// async-signal-safe; call once per process.
bool install_signal_stop(volatile std::sig_atomic_t* flag);

}  // namespace rrs
