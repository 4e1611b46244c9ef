#include "sim/runner.h"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "algs/edf.h"
#include "core/checkpoint.h"
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

/// Manifest section tag for checkpoint sets.
constexpr std::uint32_t kTagManifest = 1;

/// Segment length between stop-flag checks when no checkpoint cadence or
/// re-shard epoch sets one.
constexpr Round kStopCheckRounds = 1024;

volatile std::sig_atomic_t* g_stop_flag = nullptr;

// Async-signal-safe: writes only the sig_atomic_t flag.
void stop_signal_handler(int /*signum*/) {
  if (g_stop_flag != nullptr) *g_stop_flag = 1;
}

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

using PolicyStats = std::vector<std::pair<std::string, std::int64_t>>;

/// The one record fold: adds `part` (an EngineResult or a shard's
/// StreamRunRecord, whose policy stats are `stats`) into `into`.  Costs
/// and counters sum, rounds take the max and policy stats sum per key.
/// peak_pending sums over parts that ran side by side (the shards) and
/// takes the max over parts that ran one after another (one shard's
/// re-shard eras).  Folding one part into an empty record copies it.
template <class Part>
void fold(StreamRunRecord& into, const Part& part, const PolicyStats& stats,
          bool side_by_side) {
  into.cost.reconfig_events += part.cost.reconfig_events;
  into.cost.reconfig_cost += part.cost.reconfig_cost;
  into.cost.drops += part.cost.drops;
  into.cost.churn_reconfigs += part.cost.churn_reconfigs;
  into.degraded.fault_events += part.degraded.fault_events;
  into.degraded.repair_events += part.degraded.repair_events;
  into.degraded.churn_evictions += part.degraded.churn_evictions;
  into.degraded.degraded_rounds += part.degraded.degraded_rounds;
  into.degraded.drops_while_degraded += part.degraded.drops_while_degraded;
  into.executed += part.executed;
  into.work_units += part.work_units;
  into.arrived += part.arrived;
  into.rounds = std::max(into.rounds, part.rounds);
  into.peak_pending = side_by_side
                          ? into.peak_pending + part.peak_pending
                          : std::max(into.peak_pending, part.peak_pending);
  into.admission_rejected += part.admission_rejected;
  for (const auto& [key, value] : stats) {
    auto it = std::find_if(into.stats.begin(), into.stats.end(),
                           [&key](const auto& kv) { return kv.first == key; });
    if (it == into.stats.end()) {
      into.stats.emplace_back(key, value);
    } else {
      it->second += value;
    }
  }
}

/// The rejection table: every option combination the driver refuses, in
/// one place, checked before any engine is built.  `views` are the shard
/// views opened for `plan` (all null at K = 1, where the engine pulls the
/// source itself).  Returns the resolved arrival horizon, on which every
/// shard engine must agree.
Round validate(const ArrivalSource& source, int n, Round max_rounds,
               const ShardedRunOptions& options, const ShardPlan& plan,
               const std::vector<std::unique_ptr<ArrivalSource>>& views) {
  const int num_shards = plan.num_shards;
  RRS_REQUIRE(options.reshard_every >= 0,
              "reshard_every must be >= 0, got " << options.reshard_every);
  RRS_REQUIRE(options.checkpoint_every >= 0,
              "checkpoint_every must be >= 0, got "
                  << options.checkpoint_every);
  RRS_REQUIRE(options.checkpoint_keep >= 1,
              "checkpoint_keep must be >= 1, got " << options.checkpoint_keep);

  Round arrival_end = max_rounds;
  if (arrival_end == kInfiniteHorizon) {
    arrival_end = source.horizon();
    RRS_REQUIRE(arrival_end != kInfiniteHorizon,
                "an infinite source needs max_rounds; got "
                    << source.summary());
  } else if (source.finite()) {
    arrival_end = std::min(arrival_end, source.horizon());
  }
  RRS_REQUIRE(arrival_end >= 0, "max_rounds must be >= 0, resolved to "
                                    << arrival_end);

  for (const auto& view : views) {
    RRS_REQUIRE(view != nullptr || num_shards == 1,
                "sharding into " << num_shards
                                 << " shards needs a source with per-color "
                                    "views; got "
                                 << source.summary());
  }
  RRS_REQUIRE(options.pending_budget == 0 || num_shards == 1,
              "pending_budget needs num_shards == 1: one global budget "
              "cannot be split across "
                  << num_shards << " shards exactly");
  RRS_REQUIRE(options.shard_observers.empty() ||
                  options.shard_observers.size() ==
                      static_cast<std::size_t>(num_shards),
              "shard_observers must have one entry per shard: got "
                  << options.shard_observers.size() << " for " << num_shards
                  << " shards");
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    // Against the global pool first, so errors name global indices.
    validate_fault_plan(*options.fault_plan, n);
  }

  const bool checkpoints = options.checkpoint_every > 0 || options.resume;
  RRS_REQUIRE(!checkpoints || !options.checkpoint_dir.empty(),
              "checkpoint_every and resume need checkpoint_dir");
  RRS_REQUIRE(options.stop_flag == nullptr || !options.checkpoint_dir.empty(),
              "stop_flag needs checkpoint_dir: a stopped run ends in a "
              "checkpoint");
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
    RRS_REQUIRE(!checkpoints,
                "checkpoints need reshard_every == 0: a set holds one "
                "engine generation per shard");
    RRS_REQUIRE(options.stop_flag == nullptr,
                "stop_flag needs reshard_every == 0: a stopped run ends in "
                "a checkpoint");
  }
  return arrival_end;
}

std::string shard_suffix(std::size_t shard) {
  return ".shard" + std::to_string(shard);
}

std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      Round round, const std::string& suffix) {
  return dir / ("ckpt-" + std::to_string(round) + suffix);
}

/// Writes a file through a temp file renamed into place, so readers only
/// ever see complete files.
void write_atomically(const std::filesystem::path& path,
                      const std::function<void(std::ostream&)>& write) {
  const std::filesystem::path tmp(path.string() + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    RRS_REQUIRE(out.good(), "cannot write checkpoint " << tmp.string());
    write(out);
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

bool install_signal_stop(volatile std::sig_atomic_t* flag) {
  RRS_REQUIRE(flag != nullptr, "install_signal_stop: flag must be non-null");
  g_stop_flag = flag;
  const bool term_ok = std::signal(SIGTERM, stop_signal_handler) != SIG_ERR;
  const bool int_ok = std::signal(SIGINT, stop_signal_handler) != SIG_ERR;
  return term_ok && int_ok;
}

std::vector<CheckpointFile> list_checkpoints(const std::filesystem::path& dir,
                                             const std::string& suffix) {
  std::vector<CheckpointFile> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;  // missing directory: nothing to resume from
  constexpr std::string_view prefix = "ckpt-";
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string stem = entry.path().filename().string();
    if (stem.size() <= prefix.size() + suffix.size()) continue;
    if (stem.compare(0, prefix.size(), prefix) != 0) continue;
    if (stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits = stem.substr(
        prefix.size(), stem.size() - prefix.size() - suffix.size());
    Round round = 0;
    const auto [ptr, err] = std::from_chars(
        digits.data(), digits.data() + digits.size(), round);
    if (err != std::errc{} || ptr != digits.data() + digits.size() ||
        round < 0) {
      continue;
    }
    out.push_back({round, entry.path()});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.round > b.round;
            });
  return out;
}

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
  ShardedRunOptions options;
  options.fault_plan = fault_plan;
  options.charge_repair = charge_repair;
  options.observer = observer;
  options.fast_forward = fast_forward;
  return run_streaming_sharded(source, name, n, 1, max_rounds, options)
      .merged;
}

ShardedRunRecord run_streaming_sharded(ArrivalSource& source,
                                       const std::string& name, int n,
                                       int num_shards, Round max_rounds,
                                       const ShardedRunOptions& options) {
  Stopwatch watch;
  // The policy's resource granularity (e.g. 4 for dLRU-EDF's two
  // replicated halves) fixes the units the plan may split n into; the
  // engine itself only needs divisibility by the replication, which the
  // granularity is a multiple of.
  EngineOptions proto;
  const int granularity =
      make_stream_policy(name, proto)->resource_granularity(
          proto.replication);

  ShardedRunRecord record;
  record.plan = make_shard_plan(source.num_colors(), num_shards, n,
                                granularity, options.color_weights);
  const auto shard_count = static_cast<std::size_t>(num_shards);

  // Every shard engine of K > 1 pulls its own per-color view of the
  // source; the lone engine of K = 1 pulls the source itself.
  std::vector<std::unique_ptr<ArrivalSource>> views(shard_count);
  const auto open_views = [&] {
    if (num_shards == 1) return;
    for (std::size_t s = 0; s < shard_count; ++s) {
      views[s] = source.view(record.plan.shard_colors[s]);
    }
  };
  const auto slot_source = [&](std::size_t s) -> ArrivalSource& {
    return views[s] != nullptr ? *views[s] : source;
  };
  open_views();
  const Round arrival_end =
      validate(source, n, max_rounds, options, record.plan, views);
  // One shard owns every color and all n resources under any weights, so
  // its plan can never change: re-sharding epochs only apply for K > 1.
  const Round reshard_every = num_shards > 1 ? options.reshard_every : 0;
  // At K = 1 the caller's observer is the engine's own: nothing to merge.
  const bool direct_observer =
      num_shards == 1 && options.shard_observers.empty();

  // Map the global fault plan onto the shards' contiguous resource blocks.
  // Hottest-resource events are copied to every shard.
  std::vector<FaultPlan> shard_faults;
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    shard_faults = split_fault_plan(*options.fault_plan,
                                    record.plan.shard_resources);
  }

  record.shards.resize(shard_count);
  std::vector<EraObservers> eras;
  std::vector<std::unique_ptr<Policy>> policies(shard_count);
  std::vector<std::unique_ptr<Engine>> engines(shard_count);

  // Builds one era's observers, policies, and engines.
  const auto build_era = [&](Round start_round) {
    EraObservers era;
    era.color_maps = record.plan.shard_colors;
    if (direct_observer) {
      if (options.observer != nullptr) era.obs.push_back(options.observer);
    } else if (!options.shard_observers.empty()) {
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
      // Let in-flight jobs execute or expire after arrivals end, matching
      // a materialized run whose horizon extends to the last deadline.
      engine_options.drain_pending = true;
      engine_options.fast_forward = options.fast_forward;
      engine_options.pending_budget = options.pending_budget;
      engine_options.charge_repair = options.charge_repair;
      if (!shard_faults.empty()) engine_options.fault_plan = &shard_faults[s];
      if (!eras.back().obs.empty()) {
        engine_options.observer = eras.back().obs[s];
      }
      engines[s] = std::make_unique<Engine>(slot_source(s), *policies[s],
                                            engine_options, start_round);
    }
  };

  // Runs `step(s)` for every shard engine (inline at K = 1, on the pool
  // otherwise), timing each and dumping a shard's trace ring when it dies
  // on an InvariantError.
  const auto for_each_shard = [&](const auto& step) {
    parallel_for(shard_count, [&](std::size_t s) {
      Observer* const slot_obs =
          eras.back().obs.empty() ? nullptr : eras.back().obs[s];
      Stopwatch shard_watch;
      try {
        step(s);
      } catch (const InvariantError&) {
        if (slot_obs != nullptr) slot_obs->dump_trace();
        throw;
      }
      record.shards[s].seconds += shard_watch.seconds();
    });
  };

  // A set's manifest names the run it belongs to: resume accepts a set
  // only when its manifest is byte-identical to the one this run would
  // write at that round.
  const auto manifest_bytes = [&](Round at) {
    CheckpointWriter w;
    w.begin_section(kTagManifest);
    w.str(name);
    w.i64(n);
    w.i64(num_shards);
    w.i64(arrival_end);
    w.i64(at);
    w.boolean(options.charge_repair);
    w.boolean(options.fast_forward);
    w.u64(options.fault_plan == nullptr ? 0
                                        : options.fault_plan->events.size());
    w.u64(record.plan.shard_of_color.size());
    for (const int shard : record.plan.shard_of_color) w.i64(shard);
    w.u64(record.plan.shard_resources.size());
    for (const int res : record.plan.shard_resources) w.i64(res);
    w.end_section();
    std::ostringstream out(std::ios::binary);
    w.finish(out);
    return std::move(out).str();
  };

  // Commits one checkpoint set at the engines' current round: sidecars
  // first, the manifest renamed into place last as the commit point, then
  // rotation down to checkpoint_keep sets (each set's manifest deleted
  // before its sidecars, so no half-deleted set ever looks committed).
  const std::filesystem::path dir(options.checkpoint_dir);
  const auto write_checkpoint = [&](Round at) {
    std::filesystem::create_directories(dir);
    for (std::size_t s = 0; s < shard_count; ++s) {
      write_atomically(checkpoint_path(dir, at, shard_suffix(s)),
                       [&](std::ostream& out) {
                         engines[s]->checkpoint(out, &slot_source(s));
                       });
    }
    const std::filesystem::path manifest =
        checkpoint_path(dir, at, ".manifest");
    write_atomically(manifest,
                     [&](std::ostream& out) { out << manifest_bytes(at); });
    ++record.checkpoints_written;
    record.final_checkpoint = manifest.string();
    const std::vector<CheckpointFile> sets =
        list_checkpoints(dir, ".manifest");
    for (std::size_t i = static_cast<std::size_t>(options.checkpoint_keep);
         i < sets.size(); ++i) {
      std::filesystem::remove(sets[i].path);
      for (std::size_t s = 0; s < shard_count; ++s) {
        std::filesystem::remove(
            checkpoint_path(dir, sets[i].round, shard_suffix(s)));
      }
    }
  };

  Round round = 0;
  if (options.resume) {
    // Newest valid set wins; a set whose manifest or any sidecar fails
    // validation is skipped to the next-oldest.  Every attempt starts from
    // fresh views and engines: a failed partial restore may have mutated
    // them.
    std::string last_error;
    for (const CheckpointFile& m : list_checkpoints(dir, ".manifest")) {
      build_era(0);
      try {
        std::ifstream in(m.path, std::ios::binary);
        const std::string bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
        RRS_REQUIRE(bytes == manifest_bytes(m.round),
                    "checkpoint manifest " << m.path.string()
                                           << " does not match this run");
        for (std::size_t s = 0; s < shard_count; ++s) {
          const std::filesystem::path side =
              checkpoint_path(dir, m.round, shard_suffix(s));
          std::ifstream sin(side, std::ios::binary);
          RRS_REQUIRE(sin.good(),
                      "cannot open checkpoint sidecar " << side.string());
          engines[s]->restore(sin, &slot_source(s));
        }
        round = m.round;
        record.recovered_from = m.round;
        break;
      } catch (const InputError& e) {
        last_error = e.what();
        eras.pop_back();
        for (auto& engine : engines) engine.reset();
        for (auto& policy : policies) policy.reset();
        open_views();
      }
    }
    RRS_REQUIRE(record.recovered_from >= 0,
                "no usable checkpoint set in "
                    << options.checkpoint_dir
                    << (last_error.empty() ? "" : "; last failure: ")
                    << last_error);
  } else {
    build_era(0);
  }

  // Re-shard boundary: re-derive the plan from the rates each shard's view
  // served this epoch (counts + 1, so idle colors keep a positive weight)
  // and, if it changed, migrate every color into a new era's engines.
  const auto reshard = [&](Round at) {
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
    // A plan is "changed" when either the color partition or the resource
    // split moved — the latter alone still needs new engines (a shard's n
    // is fixed at construction).
    if (next.shard_of_color == record.plan.shard_of_color &&
        next.shard_resources == record.plan.shard_resources) {
      return;
    }
    int moved = 0;
    for (std::size_t c = 0; c < next.shard_of_color.size(); ++c) {
      if (next.shard_of_color[c] != record.plan.shard_of_color[c]) ++moved;
    }
    // Exact cost handoff: every color's pending jobs and policy scratch
    // leave through the engine export surface, keyed by global color for
    // the next era's engines.
    std::vector<EngineColorState> imports(
        static_cast<std::size_t>(source.num_colors()));
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::vector<ColorId>& colors = record.plan.shard_colors[s];
      for (std::size_t l = 0; l < colors.size(); ++l) {
        imports[static_cast<std::size_t>(colors[l])] =
            engines[s]->export_color(static_cast<ColorId>(l));
      }
      EngineResult result = engines[s]->abandon();
      fold(record.shards[s], result, result.policy_stats, false);
      engines[s].reset();
      policies[s].reset();
    }
    // The abandoned era's "pending at finish" gauge counts jobs that just
    // migrated and live on — zero it so the merged final snapshot reports
    // only jobs actually pending at run end.
    for (Observer* obs : eras.back().obs) obs->final_snapshot.pending = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      views[s]->reassign(next.shard_colors[s]);
    }
    record.reshard_rounds.push_back(at);
    record.reshard_moved_colors.push_back(moved);
    record.plan = std::move(next);
    build_era(at);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::vector<ColorId>& colors = record.plan.shard_colors[s];
      for (std::size_t l = 0; l < colors.size(); ++l) {
        engines[s]->import_color(static_cast<ColorId>(l),
                                 imports[static_cast<std::size_t>(colors[l])]);
      }
    }
  };

  // The segment loop.  Segment boundaries fall at multiples (from round
  // 0, so a resumed run stops at the same rounds as an uninterrupted one)
  // of the re-shard epoch, the checkpoint cadence, or — with only a stop
  // flag to honor — kStopCheckRounds; with none of them there is one
  // segment covering the whole arrival range.
  const Round step = reshard_every > 0             ? reshard_every
                     : options.checkpoint_every > 0 ? options.checkpoint_every
                     : options.stop_flag != nullptr ? kStopCheckRounds
                                                    : 0;
  bool stopped = false;
  while (round < arrival_end) {
    if (options.stop_flag != nullptr && *options.stop_flag != 0) {
      stopped = true;
      break;
    }
    const Round until =
        step > 0 ? std::min(arrival_end, round - round % step + step)
                 : arrival_end;
    for_each_shard(
        [&](std::size_t s) { engines[s]->run_rounds(slot_source(s), until); });
    round = until;
    if (round == arrival_end) break;
    if (options.checkpoint_every > 0) write_checkpoint(round);
    if (reshard_every > 0) reshard(round);
  }

  if (stopped) {
    // Stop-and-checkpoint: commit the exact stop point, then surrender the
    // counters without the drain — a resumed run completes the job.
    write_checkpoint(round);
  }
  for_each_shard([&](std::size_t s) {
    EngineResult result =
        stopped ? engines[s]->abandon() : engines[s]->finish();
    fold(record.shards[s], result, result.policy_stats, false);
  });

  // Merge: the color partition makes shard costs exactly additive.
  record.merged.algorithm = name;
  record.merged.n = n;
  for (std::size_t s = 0; s < shard_count; ++s) {
    StreamRunRecord& shard = record.shards[s];
    shard.algorithm = name;
    shard.n = record.plan.shard_resources[s];
    fold(record.merged, shard, shard.stats, true);
  }
  record.finished = !stopped;
  record.stopped_at = stopped ? round : record.merged.rounds;
  record.merged.seconds = watch.seconds();

  if (options.observer != nullptr && !direct_observer) {
    merge_shard_observers(*options.observer, eras, source, record);
  }
  return record;
}

}  // namespace rrs
