#include "sim/runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "algs/edf.h"
#include "core/checkpoint.h"
#include "sim/service.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rrs {

std::unique_ptr<Policy> make_stream_policy(const std::string& name,
                                           EngineOptions& options) {
  if (name == "seq-edf" || name == "ds-seq-edf") {
    options.replication = 1;
    options.speed = name == "ds-seq-edf" ? 2 : 1;
    return std::make_unique<EdfPolicy>();
  }
  options.replication = 2;
  options.speed = 1;
  return make_policy(name);  // throws InputError on unknown names
}

namespace {

/// Manifest section tag for sharded checkpoint sets.
constexpr std::uint32_t kTagManifest = 1;

/// One engine generation's observers: resharding rebuilds engines (and
/// their observers) per era, each with its own local -> global color maps.
struct EraObservers {
  std::vector<Observer*> obs;                  // one per slot (may be empty)
  std::vector<std::unique_ptr<Observer>> owned;  // runner-created lifetime
  std::vector<std::vector<ColorId>> color_maps;  // slot -> local -> global
};

/// Rebuilds `merged` as the exact additive merge of every era's per-shard
/// observers: stats relabeled through each era's local -> global color
/// maps, timers summed, snapshot series merged point-wise with
/// carry-forward (resharded runs have no series — snapshot_every must be
/// 0 there), final snapshots merged, and kReshard trace events stamped
/// from the run record.
void merge_shard_observers(Observer& merged,
                           const std::vector<EraObservers>& eras,
                           const ArrivalSource& source,
                           const ShardedRunRecord& record) {
  std::vector<Round> delay_bounds(
      static_cast<std::size_t>(source.num_colors()));
  std::vector<Cost> drop_costs(delay_bounds.size());
  std::vector<Round> lengths(delay_bounds.size());
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    delay_bounds[static_cast<std::size_t>(c)] = source.delay_bound(c);
    drop_costs[static_cast<std::size_t>(c)] = source.drop_cost(c);
    lengths[static_cast<std::size_t>(c)] = source.length(c);
  }
  merged.begin_run(delay_bounds, drop_costs, lengths);

  std::vector<std::vector<Snapshot>> series;
  merged.final_snapshot = Snapshot{};
  for (const EraObservers& era : eras) {
    for (std::size_t s = 0; s < era.obs.size(); ++s) {
      merged.stats.merge_mapped(era.obs[s]->stats, era.color_maps[s]);
      merged.timers.merge(era.obs[s]->timers);
      series.push_back(era.obs[s]->snapshots);
      merge_into(merged.final_snapshot, era.obs[s]->final_snapshot);
    }
  }
  merged.snapshots = merge_snapshot_series(series);
  // Reshard events go in AFTER begin_run (which clears the ring).
  if (merged.config.trace) {
    for (std::size_t i = 0; i < record.reshard_rounds.size(); ++i) {
      merged.trace.push({record.reshard_rounds[i], TraceKind::kReshard,
                         record.reshard_moved_colors[i],
                         static_cast<std::int64_t>(i + 1)});
    }
  }
  if (merged.snapshot_out != nullptr) {
    write_snapshots(*merged.snapshot_out, merged.snapshots);
    *merged.snapshot_out << to_json_line(merged.final_snapshot) << '\n';
  }
}

StreamRunRecord to_stream_record(const std::string& name, int n,
                                 EngineResult&& result, double seconds) {
  StreamRunRecord record;
  record.seconds = seconds;
  record.algorithm = name;
  record.n = n;
  record.cost = result.cost;
  record.executed = result.executed;
  record.work_units = result.work_units;
  record.arrived = result.arrived;
  record.rounds = result.rounds;
  record.peak_pending = result.peak_pending;
  record.admission_rejected = result.admission_rejected;
  record.degraded = result.degraded;
  record.stats = std::move(result.policy_stats);
  return record;
}

/// Folds one engine generation's result into the per-slot record `into`
/// (slots persist across re-shard eras): costs and counters sum, rounds
/// and peak_pending take the max, policy stats sum per key.
void accumulate_slot(StreamRunRecord& into, const std::string& name, int n,
                     EngineResult&& result) {
  into.algorithm = name;
  into.n = n;  // the latest era's slice
  into.cost.reconfig_events += result.cost.reconfig_events;
  into.cost.reconfig_cost += result.cost.reconfig_cost;
  into.cost.drops += result.cost.drops;
  into.cost.churn_reconfigs += result.cost.churn_reconfigs;
  into.degraded.fault_events += result.degraded.fault_events;
  into.degraded.repair_events += result.degraded.repair_events;
  into.degraded.churn_evictions += result.degraded.churn_evictions;
  into.degraded.degraded_rounds += result.degraded.degraded_rounds;
  into.degraded.drops_while_degraded += result.degraded.drops_while_degraded;
  into.executed += result.executed;
  into.work_units += result.work_units;
  into.arrived += result.arrived;
  into.rounds = std::max(into.rounds, result.rounds);
  into.peak_pending = std::max(into.peak_pending, result.peak_pending);
  into.admission_rejected += result.admission_rejected;
  for (const auto& [key, value] : result.policy_stats) {
    auto it = std::find_if(into.stats.begin(), into.stats.end(),
                           [&key](const auto& kv) { return kv.first == key; });
    if (it == into.stats.end()) {
      into.stats.emplace_back(key, value);
    } else {
      it->second += value;
    }
  }
}

}  // namespace

RunRecord run_algorithm(const Instance& instance, const std::string& name,
                        int n, Schedule* schedule_out) {
  const AlgorithmInfo& info = find_algorithm(name);
  Stopwatch watch;
  RunOutcome outcome = info.run(instance, n, schedule_out != nullptr);
  RunRecord record;
  record.seconds = watch.seconds();
  record.algorithm = outcome.algorithm;
  record.n = n;
  record.cost = outcome.cost;
  record.executed = outcome.executed;
  record.stats = std::move(outcome.stats);
  if (schedule_out != nullptr) *schedule_out = std::move(outcome.schedule);
  return record;
}

StreamRunRecord run_streaming(ArrivalSource& source, const std::string& name,
                              int n, Round max_rounds,
                              const FaultPlan* fault_plan,
                              bool charge_repair, Observer* observer,
                              bool fast_forward) {
  EngineOptions options;
  options.num_resources = n;
  options.record_schedule = false;
  options.max_rounds = max_rounds;
  // Let in-flight jobs execute or expire after arrivals end, matching a
  // materialized run whose horizon extends to the last deadline.
  options.drain_pending = true;
  options.fault_plan = fault_plan;
  options.charge_repair = charge_repair;
  options.observer = observer;
  options.fast_forward = fast_forward;
  std::unique_ptr<Policy> policy = make_stream_policy(name, options);

  Stopwatch watch;
  EngineResult result = run_policy(source, *policy, options);
  return to_stream_record(name, n, std::move(result), watch.seconds());
}

ShardedRunRecord run_streaming_sharded(ArrivalSource& source,
                                       const std::string& name, int n,
                                       int num_shards, Round max_rounds,
                                       const ShardedRunOptions& options) {
  RRS_REQUIRE(num_shards >= 1, "num_shards must be >= 1, got " << num_shards);
  RRS_REQUIRE(options.reshard_every >= 0,
              "reshard_every must be >= 0, got " << options.reshard_every);
  if (options.reshard_every > 0) {
    RRS_REQUIRE(options.fault_plan == nullptr || options.fault_plan->empty(),
                "adaptive re-sharding cannot run under a fault plan: "
                "migration would have to move per-location churn state");
    RRS_REQUIRE(options.shard_observers.empty(),
                "caller shard_observers assume one engine generation per "
                "shard; use the merged observer with re-sharding");
    RRS_REQUIRE(options.observer == nullptr ||
                    options.observer->config.snapshot_every == 0,
                "periodic snapshot series cannot span engine generations; "
                "set ObsConfig::snapshot_every = 0 with re-sharding");
  }
  const bool ckpt_requested = options.checkpoint_at > 0 || options.resume;
  if (ckpt_requested) {
    RRS_REQUIRE(!options.checkpoint_dir.empty(),
                "sharded checkpointing needs checkpoint_dir");
    RRS_REQUIRE(options.reshard_every == 0,
                "sharded checkpointing requires reshard_every == 0");
    RRS_REQUIRE(options.checkpoint_at >= 0,
                "checkpoint_at must be >= 0, got " << options.checkpoint_at);
  }

  // Resolve the arrival horizon up front (the engine's own resolution,
  // hoisted): every shard engine must agree on it.
  Round arrival_end = max_rounds;
  if (arrival_end == kInfiniteHorizon) {
    arrival_end = source.horizon();
    RRS_REQUIRE(arrival_end != kInfiniteHorizon,
                "sharding an infinite source needs max_rounds; got "
                    << source.summary());
  } else if (source.finite()) {
    arrival_end = std::min(arrival_end, source.horizon());
  }
  RRS_REQUIRE(arrival_end >= 0, "max_rounds must be >= 0, resolved to "
                                    << arrival_end);

  // The policy's resource granularity (e.g. 4 for dLRU-EDF's two
  // replicated halves) fixes the units the plan may split n into; the
  // engine itself only needs divisibility by the replication, which the
  // granularity is a multiple of.
  EngineOptions proto;
  const int granularity =
      make_stream_policy(name, proto)->resource_granularity(
          proto.replication);

  Stopwatch watch;
  ShardedRunRecord record;
  record.plan = make_shard_plan(source.num_colors(), num_shards, n,
                                granularity, options.color_weights);
  const auto shard_count = static_cast<std::size_t>(num_shards);

  // The one data path: every shard engine pulls its own per-color view of
  // the source.  A lone shard is the whole workload, so a source without
  // views runs directly there.
  std::vector<std::unique_ptr<ArrivalSource>> views(shard_count);
  const auto open_views = [&] {
    for (std::size_t s = 0; s < shard_count; ++s) {
      views[s] = source.view(record.plan.shard_colors[s]);
      RRS_REQUIRE(views[s] != nullptr || num_shards == 1,
                  "sharding into " << num_shards
                                   << " shards needs a source with "
                                      "per-color views; got "
                                   << source.summary());
    }
  };
  const auto slot_source = [&](std::size_t s) -> ArrivalSource& {
    return views[s] != nullptr ? *views[s] : source;
  };
  open_views();
  // One shard owns every color and all n resources under any weights, so
  // its plan can never change: re-sharding epochs only apply for K > 1.
  const Round reshard_every = num_shards > 1 ? options.reshard_every : 0;

  ThreadPool& pool = global_pool();

  // Map the global fault plan onto the shards' contiguous resource blocks
  // (validated against the global pool first, so errors name global
  // indices).  Hottest-resource events are copied to every shard.
  std::vector<FaultPlan> shard_faults;
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    validate_fault_plan(*options.fault_plan, n);
    shard_faults = split_fault_plan(*options.fault_plan,
                                    record.plan.shard_resources);
  }

  if (!options.shard_observers.empty()) {
    RRS_REQUIRE(options.shard_observers.size() == shard_count,
                "shard_observers must have one entry per shard: got "
                    << options.shard_observers.size() << " for "
                    << num_shards << " shards");
  }

  record.shards.resize(shard_count);
  std::vector<EraObservers> eras;
  std::vector<std::unique_ptr<Policy>> policies(shard_count);
  std::vector<std::unique_ptr<Engine>> engines(shard_count);
  // Exported state awaiting import into the next era's engines, indexed by
  // GLOBAL color; empty when no migration is pending.
  std::vector<EngineColorState> imports;
  bool rebuild = true;

  // Builds one era's observers, policies, and engines over the views.
  const auto build_era = [&](Round start_round) {
    EraObservers era;
    era.color_maps = record.plan.shard_colors;
    if (!options.shard_observers.empty()) {
      era.obs = options.shard_observers;
    } else if (options.observer != nullptr) {
      era.owned.reserve(shard_count);
      for (std::size_t s = 0; s < shard_count; ++s) {
        era.owned.push_back(
            std::make_unique<Observer>(options.observer->config));
        era.obs.push_back(era.owned.back().get());
      }
    }
    eras.push_back(std::move(era));
    for (std::size_t s = 0; s < shard_count; ++s) {
      EngineOptions engine_options;
      policies[s] = make_stream_policy(name, engine_options);
      engine_options.num_resources = record.plan.shard_resources[s];
      engine_options.record_schedule = false;
      engine_options.max_rounds = arrival_end;
      engine_options.drain_pending = true;
      engine_options.fast_forward = options.fast_forward;
      if (!shard_faults.empty()) {
        engine_options.fault_plan = &shard_faults[s];
        engine_options.charge_repair = options.charge_repair;
      }
      if (!eras.back().obs.empty()) {
        engine_options.observer = eras.back().obs[s];
      }
      engines[s] = std::make_unique<Engine>(slot_source(s), *policies[s],
                                            engine_options, start_round);
    }
  };

  Round seg_begin = 0;
  if (options.resume) {
    // Newest valid checkpoint set wins; a set whose manifest or any
    // sidecar fails validation is skipped to the next-oldest.  Every
    // attempt starts from fresh views and engines: a failed partial
    // restore may have mutated them.
    const std::filesystem::path dir(options.checkpoint_dir);
    bool restored = false;
    std::string last_error;
    for (const CheckpointFile& m : list_checkpoints(dir, ".manifest")) {
      build_era(0);
      try {
        std::ifstream min(m.path, std::ios::binary);
        RRS_REQUIRE(min.good(), "cannot open checkpoint manifest "
                                    << m.path.string());
        CheckpointReader r(min);
        r.open_section(kTagManifest);
        RRS_REQUIRE(r.str() == name, "manifest algorithm mismatch");
        RRS_REQUIRE(r.i64() == n, "manifest resource count mismatch");
        RRS_REQUIRE(r.i64() == num_shards, "manifest shard count mismatch");
        RRS_REQUIRE(r.i64() == arrival_end, "manifest arrival_end mismatch");
        const Round round = r.i64();
        RRS_REQUIRE(round == m.round && round > 0 && round <= arrival_end,
                    "manifest round out of range");
        RRS_REQUIRE(r.boolean() == options.charge_repair,
                    "manifest charge_repair mismatch");
        RRS_REQUIRE(r.boolean() == options.fast_forward,
                    "manifest fast_forward mismatch");
        const std::uint64_t plan_events =
            options.fault_plan == nullptr ? 0
                                          : options.fault_plan->events.size();
        RRS_REQUIRE(r.u64() == plan_events, "manifest fault-plan mismatch");
        RRS_REQUIRE(r.u64() == record.plan.shard_of_color.size(),
                    "manifest color count mismatch");
        for (const int shard : record.plan.shard_of_color) {
          RRS_REQUIRE(r.i64() == shard, "manifest shard plan mismatch");
        }
        RRS_REQUIRE(r.u64() == record.plan.shard_resources.size(),
                    "manifest shard count mismatch");
        for (const int res : record.plan.shard_resources) {
          RRS_REQUIRE(r.i64() == res, "manifest resource split mismatch");
        }
        r.close_section();
        for (std::size_t s = 0; s < shard_count; ++s) {
          const std::filesystem::path side =
              dir / ("ckpt-" + std::to_string(round) + ".shard" +
                     std::to_string(s));
          std::ifstream sin(side, std::ios::binary);
          RRS_REQUIRE(sin.good(),
                      "cannot open checkpoint sidecar " << side.string());
          engines[s]->restore(sin, &slot_source(s));
        }
        seg_begin = round;
        restored = true;
        break;
      } catch (const InputError& e) {
        last_error = e.what();
        eras.pop_back();
        for (auto& eng : engines) eng.reset();
        for (auto& p : policies) p.reset();
        open_views();
      }
    }
    RRS_REQUIRE(restored, "no usable checkpoint set in "
                              << options.checkpoint_dir
                              << (last_error.empty() ? ""
                                                     : "; last failure: ")
                              << last_error);
    rebuild = false;
  }

  // The era/segment loop.  Each iteration runs rounds
  // [seg_begin, seg_end); with reshard_every == 0 there is exactly one
  // segment covering the whole arrival range.
  do {
    const Round seg_end =
        reshard_every > 0 ? std::min(seg_begin + reshard_every, arrival_end)
                          : arrival_end;

    if (rebuild) {
      rebuild = false;
      build_era(seg_begin);
      if (!imports.empty()) {
        for (std::size_t s = 0; s < shard_count; ++s) {
          const std::vector<ColorId>& colors = record.plan.shard_colors[s];
          for (std::size_t l = 0; l < colors.size(); ++l) {
            engines[s]->import_color(
                static_cast<ColorId>(l),
                imports[static_cast<std::size_t>(colors[l])]);
          }
        }
        imports.clear();
      }
    }

    const auto run_segment = [&](Round until) {
      pool.parallel_for(shard_count, [&](std::size_t s) {
        Observer* const slot_obs =
            eras.back().obs.empty() ? nullptr : eras.back().obs[s];
        Stopwatch shard_watch;
        try {
          engines[s]->run_rounds(slot_source(s), until);
        } catch (const InvariantError&) {
          if (slot_obs != nullptr) slot_obs->dump_trace();
          throw;
        }
        record.shards[s].seconds += shard_watch.seconds();
      });
    };

    // With a checkpoint round inside this segment, run to it, write the
    // coordinated set (sidecars first, manifest renamed into place last as
    // the commit point), then continue — the run itself is unperturbed.
    const Round ckpt_round =
        options.checkpoint_at > seg_begin && options.checkpoint_at < seg_end
            ? options.checkpoint_at
            : 0;
    if (ckpt_round > 0) {
      run_segment(ckpt_round);
      const std::filesystem::path dir(options.checkpoint_dir);
      std::filesystem::create_directories(dir);
      const std::string stem = "ckpt-" + std::to_string(ckpt_round);
      for (std::size_t s = 0; s < shard_count; ++s) {
        const std::filesystem::path side =
            dir / (stem + ".shard" + std::to_string(s));
        const std::filesystem::path tmp = side.string() + ".tmp";
        {
          std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
          RRS_REQUIRE(out.good(),
                      "cannot write checkpoint sidecar " << tmp.string());
          engines[s]->checkpoint(out, &slot_source(s));
        }
        std::filesystem::rename(tmp, side);
      }
      const std::filesystem::path manifest = dir / (stem + ".manifest");
      const std::filesystem::path mtmp = manifest.string() + ".tmp";
      {
        std::ofstream out(mtmp, std::ios::binary | std::ios::trunc);
        RRS_REQUIRE(out.good(),
                    "cannot write checkpoint manifest " << mtmp.string());
        CheckpointWriter w;
        w.begin_section(kTagManifest);
        w.str(name);
        w.i64(n);
        w.i64(num_shards);
        w.i64(arrival_end);
        w.i64(ckpt_round);
        w.boolean(options.charge_repair);
        w.boolean(options.fast_forward);
        w.u64(options.fault_plan == nullptr
                  ? 0
                  : options.fault_plan->events.size());
        w.u64(record.plan.shard_of_color.size());
        for (const int shard : record.plan.shard_of_color) w.i64(shard);
        w.u64(record.plan.shard_resources.size());
        for (const int res : record.plan.shard_resources) w.i64(res);
        w.end_section();
        w.finish(out);
      }
      std::filesystem::rename(mtmp, manifest);
    }
    run_segment(seg_end);

    if (seg_end < arrival_end) {
      // Epoch boundary: re-derive the plan from the rates each shard's view
      // served this epoch (counts + 1, so idle colors keep a positive
      // weight).
      std::vector<double> weights(
          static_cast<std::size_t>(source.num_colors()), 1.0);
      for (std::size_t s = 0; s < shard_count; ++s) {
        const std::vector<std::int64_t> counts =
            views[s]->take_observed_counts();
        const std::vector<ColorId>& colors = record.plan.shard_colors[s];
        for (std::size_t l = 0; l < colors.size(); ++l) {
          weights[static_cast<std::size_t>(colors[l])] =
              static_cast<double>(counts[l]) + 1.0;
        }
      }
      ShardPlan next = make_shard_plan(source.num_colors(), num_shards, n,
                                       granularity, weights);
      // A plan is "changed" when either the color partition or the
      // resource split moved — the latter alone still needs new engines
      // (a shard's n is fixed at construction).
      if (next.shard_of_color != record.plan.shard_of_color ||
          next.shard_resources != record.plan.shard_resources) {
        int moved = 0;
        for (std::size_t c = 0; c < next.shard_of_color.size(); ++c) {
          if (next.shard_of_color[c] != record.plan.shard_of_color[c]) {
            ++moved;
          }
        }
        // Exact cost handoff: every color's pending jobs and policy
        // scratch leave through the engine export surface, keyed by
        // global color for the next era's engines.
        imports.assign(static_cast<std::size_t>(source.num_colors()),
                       EngineColorState{});
        for (std::size_t s = 0; s < shard_count; ++s) {
          const std::vector<ColorId>& colors = record.plan.shard_colors[s];
          for (std::size_t l = 0; l < colors.size(); ++l) {
            imports[static_cast<std::size_t>(colors[l])] =
                engines[s]->export_color(static_cast<ColorId>(l));
          }
          accumulate_slot(record.shards[s], name,
                          record.plan.shard_resources[s],
                          engines[s]->abandon());
          engines[s].reset();
          policies[s].reset();
        }
        // The abandoned era's "pending at finish" gauge counts jobs that
        // just migrated and live on — zero it so the merged final
        // snapshot reports only jobs actually pending at run end.
        for (Observer* obs : eras.back().obs) {
          obs->final_snapshot.pending = 0;
        }
        for (std::size_t s = 0; s < shard_count; ++s) {
          views[s]->reassign(next.shard_colors[s]);
        }
        record.reshard_rounds.push_back(seg_end);
        record.reshard_moved_colors.push_back(moved);
        record.plan = std::move(next);
        rebuild = true;
      }
    }
    seg_begin = seg_end;
  } while (seg_begin < arrival_end);

  // Finish (drain + terminal sweep) the final era's engines.
  pool.parallel_for(shard_count, [&](std::size_t s) {
    Observer* const slot_obs =
        eras.back().obs.empty() ? nullptr : eras.back().obs[s];
    Stopwatch shard_watch;
    try {
      accumulate_slot(record.shards[s], name, record.plan.shard_resources[s],
                      engines[s]->finish());
    } catch (const InvariantError&) {
      if (slot_obs != nullptr) slot_obs->dump_trace();
      throw;
    }
    record.shards[s].seconds += shard_watch.seconds();
  });

  // Merge: the color partition makes shard costs exactly additive.
  record.merged.algorithm = name;
  record.merged.n = n;
  for (const StreamRunRecord& shard : record.shards) {
    record.merged.cost.reconfig_events += shard.cost.reconfig_events;
    record.merged.cost.reconfig_cost += shard.cost.reconfig_cost;
    record.merged.cost.drops += shard.cost.drops;
    record.merged.cost.churn_reconfigs += shard.cost.churn_reconfigs;
    record.merged.degraded.fault_events += shard.degraded.fault_events;
    record.merged.degraded.repair_events += shard.degraded.repair_events;
    record.merged.degraded.churn_evictions += shard.degraded.churn_evictions;
    record.merged.degraded.degraded_rounds += shard.degraded.degraded_rounds;
    record.merged.degraded.drops_while_degraded +=
        shard.degraded.drops_while_degraded;
    record.merged.executed += shard.executed;
    record.merged.work_units += shard.work_units;
    record.merged.arrived += shard.arrived;
    record.merged.rounds = std::max(record.merged.rounds, shard.rounds);
    record.merged.peak_pending += shard.peak_pending;
    record.merged.admission_rejected += shard.admission_rejected;
    for (const auto& [key, value] : shard.stats) {
      auto it =
          std::find_if(record.merged.stats.begin(), record.merged.stats.end(),
                       [&key](const auto& kv) { return kv.first == key; });
      if (it == record.merged.stats.end()) {
        record.merged.stats.emplace_back(key, value);
      } else {
        it->second += value;
      }
    }
  }
  record.merged.seconds = watch.seconds();

  if (options.observer != nullptr) {
    merge_shard_observers(*options.observer, eras, source, record);
  }
  return record;
}

}  // namespace rrs
