// Adaptive re-sharding: epoch boundaries, live migration, and the plan
// math underneath.
//
// The load-bearing pins:
//   * MigrationCompositionPin — the runner's era loop (observe rates ->
//     replan -> export/import every color -> fresh engines) produces
//     exactly the totals of the same composition performed by hand through
//     the public Engine / ArrivalSource::view / make_shard_plan API.
//   * GeneratorVsMaterializedPin — generator views and views of the
//     generator's materialized Instance agree bit-identically on a run
//     that actually re-shards, including where it re-sharded.
//   * K=1 / plan-stable runs are bit-identical to their non-adaptive
//     counterparts: re-sharding that never migrates must be a no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <memory>
#include <vector>

#include "algs/registry.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/shard_plan.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "util/check.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"

namespace rrs {
namespace {

/// Fields of a run that must be reproducible (seconds is wall clock).
struct Reproducible {
  CostBreakdown cost;
  std::int64_t executed;
  std::int64_t work_units;
  std::int64_t arrived;
  Round rounds;
  std::int64_t peak_pending;
  std::vector<std::pair<std::string, std::int64_t>> stats;

  friend bool operator==(const Reproducible&, const Reproducible&) = default;
};

Reproducible reproducible(const StreamRunRecord& record) {
  return {record.cost,    record.executed,     record.work_units,
          record.arrived, record.rounds,       record.peak_pending,
          record.stats};
}

// --- ShardPlan at odd granularity ------------------------------------------

TEST(ShardPlanOddGranularity, LargestRemainderSplitsIndivisibleUnits) {
  // n = 20 with unit 4 gives 5 units over 3 shards: no proportional split
  // is exact, so the largest-remainder rule decides who gets the extras.
  const std::vector<double> weights = {5.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const ShardPlan plan = make_shard_plan(6, 3, 20, 4, weights);
  int total = 0;
  for (const int r : plan.shard_resources) {
    EXPECT_GE(r, 4);       // every shard keeps at least one unit
    EXPECT_EQ(r % 4, 0);   // and only whole units
    total += r;
  }
  EXPECT_EQ(total, 20);  // nothing lost, nothing invented
  // The weight-5 color dominates its shard, which must get the most units.
  const int heavy_shard = plan.shard_of_color[0];
  for (int s = 0; s < 3; ++s) {
    EXPECT_GE(plan.shard_resources[static_cast<std::size_t>(heavy_shard)],
              plan.shard_resources[static_cast<std::size_t>(s)]);
  }
}

TEST(ShardPlanOddGranularity, RebalanceIsDeterministic) {
  // Rebalancing feeds observed (float) weights back into the planner every
  // epoch; identical weights must always yield the identical plan or the
  // "did the plan change" test in the runner would oscillate.
  const std::vector<double> weights = {7.5, 3.25, 3.25, 1.0, 1.0, 0.5, 0.5};
  const ShardPlan first = make_shard_plan(7, 3, 20, 4, weights);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const ShardPlan again = make_shard_plan(7, 3, 20, 4, weights);
    EXPECT_EQ(again.shard_of_color, first.shard_of_color);
    EXPECT_EQ(again.shard_colors, first.shard_colors);
    EXPECT_EQ(again.shard_resources, first.shard_resources);
  }
}

// --- No-op re-sharding must be invisible ------------------------------------

TEST(ReshardTest, K1AdaptiveBitIdenticalToRunStreaming) {
  // One shard can never migrate: every boundary recomputes the same trivial
  // plan, so the era loop must reduce exactly to the plain engine run.
  PoissonParams params;
  params.horizon = 256;
  params.seed = 9;
  PoissonSource serial_source(params);
  const StreamRunRecord serial =
      run_streaming(serial_source, "dlru-edf", 8);

  PoissonSource sharded_source(params);
  ShardedRunOptions options;
  options.reshard_every = 64;
  const ShardedRunRecord record = run_streaming_sharded(
      sharded_source, "dlru-edf", 8, 1, kInfiniteHorizon, options);
  EXPECT_TRUE(record.reshard_rounds.empty());
  EXPECT_EQ(reproducible(record.merged), reproducible(serial));
}

TEST(ReshardTest, StableRatesKeepThePlanAndTheResults) {
  // Constant, well-separated per-color rates with matching initial
  // color_weights: every epoch observes the same counts, every boundary
  // recomputes the same plan, and the adaptive run must be bit-identical
  // to the single-plan run — zero migrations, zero drift.
  const auto build = [] {
    InstanceBuilder builder;
    builder.delta(4);
    std::vector<ColorId> colors;
    for (int c = 0; c < 6; ++c) colors.push_back(builder.add_color(8));
    for (Round k = 0; k < 200; ++k) {
      builder.add_jobs(colors[0], k, 2);  // the heavy color
      for (int c = 1; c < 6; ++c) builder.add_jobs(colors[c], k, 1);
    }
    return builder.build();
  };
  const Instance inst = build();
  ShardedRunOptions options;
  options.color_weights = {2.0, 1.0, 1.0, 1.0, 1.0, 1.0};

  MaterializedSource fixed_source(inst);
  const ShardedRunRecord fixed = run_streaming_sharded(
      fixed_source, "dlru-edf", 16, 2, /*max_rounds=*/200, options);

  options.reshard_every = 50;
  MaterializedSource adaptive_source(inst);
  const ShardedRunRecord adaptive = run_streaming_sharded(
      adaptive_source, "dlru-edf", 16, 2, /*max_rounds=*/200, options);

  EXPECT_TRUE(adaptive.reshard_rounds.empty());
  EXPECT_EQ(adaptive.plan.shard_of_color, fixed.plan.shard_of_color);
  EXPECT_EQ(reproducible(adaptive.merged), reproducible(fixed.merged));
  ASSERT_EQ(adaptive.shards.size(), fixed.shards.size());
  for (std::size_t s = 0; s < fixed.shards.size(); ++s) {
    EXPECT_EQ(reproducible(adaptive.shards[s]), reproducible(fixed.shards[s]))
        << "shard " << s;
  }
}

// --- The migration pin ------------------------------------------------------

/// A two-phase instance whose hot color flips at round 100: the uniform
/// initial plan is wrong for the observed rates, so the round-100 boundary
/// must migrate.
Instance make_flipping_instance() {
  InstanceBuilder builder;
  builder.delta(4);
  std::vector<ColorId> colors;
  for (int c = 0; c < 6; ++c) colors.push_back(builder.add_color(8));
  for (Round k = 0; k < 100; ++k) {
    builder.add_jobs(colors[0], k, 2);
    for (int c = 1; c < 6; ++c) builder.add_jobs(colors[c], k, 1);
  }
  for (Round k = 100; k < 200; ++k) {
    builder.add_jobs(colors[1], k, 2);
    for (int c = 2; c < 6; ++c) builder.add_jobs(colors[c], k, 1);
  }
  return builder.build();
}

TEST(ReshardTest, MigrationCompositionPin) {
  const Instance inst = make_flipping_instance();
  constexpr int kShards = 2;
  constexpr int kResources = 16;
  constexpr Round kBoundary = 100;
  constexpr Round kEnd = 200;

  // The adaptive run under test.
  ShardedRunOptions options;
  options.reshard_every = kBoundary;
  MaterializedSource run_source(inst);
  const ShardedRunRecord record = run_streaming_sharded(
      run_source, "dlru-edf", kResources, kShards, kEnd, options);
  ASSERT_EQ(record.reshard_rounds, std::vector<Round>{kBoundary});
  ASSERT_EQ(record.reshard_moved_colors.size(), 1u);
  EXPECT_GT(record.reshard_moved_colors[0], 0);

  // The same composition by hand, through the public API only: era 1 under
  // the uniform plan, observe rates, replan, export/import every color,
  // era 2 under the new plan.
  const int granularity = make_policy("dlru-edf")->resource_granularity(2);
  const ShardPlan plan1 =
      make_shard_plan(inst.num_colors(), kShards, kResources, granularity);

  MaterializedSource manual_source(inst);
  std::vector<std::unique_ptr<ArrivalSource>> views;
  for (const std::vector<ColorId>& colors : plan1.shard_colors) {
    views.push_back(manual_source.view(colors));
  }
  std::vector<EngineResult> results;
  std::vector<EngineColorState> exported(
      static_cast<std::size_t>(inst.num_colors()));
  std::vector<double> weights(static_cast<std::size_t>(inst.num_colors()),
                              1.0);
  for (int s = 0; s < kShards; ++s) {
    ArrivalSource& view = *views[static_cast<std::size_t>(s)];
    EngineOptions engine_options;
    engine_options.num_resources =
        plan1.shard_resources[static_cast<std::size_t>(s)];
    engine_options.replication = 2;
    engine_options.record_schedule = false;
    engine_options.max_rounds = kEnd;
    engine_options.drain_pending = true;
    const std::unique_ptr<Policy> policy = make_policy("dlru-edf");
    Engine engine(view, *policy, engine_options);
    engine.run_rounds(view, kBoundary);
    const std::vector<std::int64_t> counts = view.take_observed_counts();
    const std::vector<ColorId>& colors =
        plan1.shard_colors[static_cast<std::size_t>(s)];
    for (std::size_t l = 0; l < colors.size(); ++l) {
      weights[static_cast<std::size_t>(colors[l])] =
          static_cast<double>(counts[l]) + 1.0;
      exported[static_cast<std::size_t>(colors[l])] =
          engine.export_color(static_cast<ColorId>(l));
    }
    results.push_back(engine.abandon());
  }

  const ShardPlan plan2 = make_shard_plan(inst.num_colors(), kShards,
                                          kResources, granularity, weights);
  EXPECT_EQ(plan2.shard_of_color, record.plan.shard_of_color);
  EXPECT_NE(plan2.shard_of_color, plan1.shard_of_color);
  for (int s = 0; s < kShards; ++s) {
    ArrivalSource& view = *views[static_cast<std::size_t>(s)];
    view.reassign(plan2.shard_colors[static_cast<std::size_t>(s)]);
    EngineOptions engine_options;
    engine_options.num_resources =
        plan2.shard_resources[static_cast<std::size_t>(s)];
    engine_options.replication = 2;
    engine_options.record_schedule = false;
    engine_options.max_rounds = kEnd;
    engine_options.drain_pending = true;
    const std::unique_ptr<Policy> policy = make_policy("dlru-edf");
    Engine engine(view, *policy, engine_options, kBoundary);
    const std::vector<ColorId>& colors =
        plan2.shard_colors[static_cast<std::size_t>(s)];
    for (std::size_t l = 0; l < colors.size(); ++l) {
      engine.import_color(static_cast<ColorId>(l),
                          exported[static_cast<std::size_t>(colors[l])]);
    }
    engine.run_rounds(view, kEnd);
    results.push_back(engine.finish());
  }

  CostBreakdown cost;
  std::int64_t executed = 0, work_units = 0, arrived = 0;
  for (const EngineResult& r : results) {
    cost.reconfig_events += r.cost.reconfig_events;
    cost.reconfig_cost += r.cost.reconfig_cost;
    cost.drops += r.cost.drops;
    cost.churn_reconfigs += r.cost.churn_reconfigs;
    executed += r.executed;
    work_units += r.work_units;
    arrived += r.arrived;
  }
  EXPECT_EQ(record.merged.cost, cost);
  EXPECT_EQ(record.merged.executed, executed);
  EXPECT_EQ(record.merged.work_units, work_units);
  EXPECT_EQ(record.merged.arrived, arrived);
  // Unit drop costs: every arrived job either executed or was dropped.
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
}

// --- Generator vs materialized cross-validation -----------------------------

FlashCrowdParams reshard_crowd_params() {
  FlashCrowdParams params;
  params.spike_start = 96;
  params.spike_end = 256;
  params.horizon = 320;
  params.seed = 21;
  return params;
}

TEST(ReshardTest, GeneratorVsMaterializedPin) {
  // A flash crowd forces the plan to chase the spike color.  Generator
  // views (per-shard clones replaying per-color RNG streams, reassigned by
  // replay) and views of the generator's materialized Instance (filtered
  // random access, reassigned in place) are entirely different data paths
  // and must agree bit-identically — on the results and on where they
  // re-sharded.  Both runs stop arrivals at the generator's horizon.
  const FlashCrowdParams params = reshard_crowd_params();
  ShardedRunOptions options;
  options.reshard_every = 64;

  FlashCrowdSource generated_source(params);
  const ShardedRunRecord generated = run_streaming_sharded(
      generated_source, "dlru-edf", 16, 2, params.horizon, options);

  FlashCrowdSource to_materialize(params);
  const Instance instance = materialize(to_materialize);
  MaterializedSource materialized_source(instance);
  const ShardedRunRecord materialized = run_streaming_sharded(
      materialized_source, "dlru-edf", 16, 2, params.horizon, options);

  EXPECT_FALSE(generated.reshard_rounds.empty());  // the spike must migrate
  EXPECT_EQ(generated.reshard_rounds, materialized.reshard_rounds);
  EXPECT_EQ(generated.reshard_moved_colors,
            materialized.reshard_moved_colors);
  EXPECT_EQ(generated.plan.shard_of_color, materialized.plan.shard_of_color);
  EXPECT_EQ(generated.plan.shard_resources,
            materialized.plan.shard_resources);
  EXPECT_EQ(reproducible(generated.merged), reproducible(materialized.merged));
  ASSERT_EQ(generated.shards.size(), materialized.shards.size());
  for (std::size_t s = 0; s < generated.shards.size(); ++s) {
    EXPECT_EQ(reproducible(generated.shards[s]),
              reproducible(materialized.shards[s]))
        << "shard " << s;
  }
  EXPECT_EQ(generated.merged.executed + generated.merged.cost.drops,
            generated.merged.arrived);
}

TEST(ReshardTest, AdaptiveRunIsDeterministic) {
  std::vector<Reproducible> merged;
  std::vector<std::vector<Round>> boundaries;
  for (int repeat = 0; repeat < 3; ++repeat) {
    FlashCrowdSource source(reshard_crowd_params());
    ShardedRunOptions options;
    options.reshard_every = 64;
    const ShardedRunRecord record = run_streaming_sharded(
        source, "dlru-edf", 16, 4, kInfiniteHorizon, options);
    merged.push_back(reproducible(record.merged));
    boundaries.push_back(record.reshard_rounds);
  }
  EXPECT_EQ(merged[0], merged[1]);
  EXPECT_EQ(merged[0], merged[2]);
  EXPECT_EQ(boundaries[0], boundaries[1]);
  EXPECT_EQ(boundaries[0], boundaries[2]);
}

TEST(ReshardTest, MergedObserverCoversEveryEra) {
  // The merged observer must account for the whole run even though the
  // engines (and their per-era observers) were torn down mid-run, and its
  // trace must carry one reshard event per boundary that migrated.
  FlashCrowdSource source(reshard_crowd_params());
  ShardedRunOptions options;
  options.reshard_every = 64;
  Observer merged;
  options.observer = &merged;
  const ShardedRunRecord record = run_streaming_sharded(
      source, "dlru-edf", 16, 2, kInfiniteHorizon, options);
  ASSERT_FALSE(record.reshard_rounds.empty());

  EXPECT_EQ(merged.final_snapshot.executed, record.merged.executed);
  EXPECT_EQ(merged.final_snapshot.arrived, record.merged.arrived);
  EXPECT_EQ(merged.final_snapshot.drop_weight, record.merged.cost.drops);
  EXPECT_EQ(merged.final_snapshot.pending, 0);  // drained run: nothing left
  std::size_t reshard_events = 0;
  for (const TraceEvent& event : merged.trace.events()) {
    if (event.kind == TraceKind::kReshard) ++reshard_events;
  }
  EXPECT_EQ(reshard_events, record.reshard_rounds.size());
}

TEST(ReshardTest, RejectsIncompatibleFeatures) {
  ShardedRunOptions options;
  options.reshard_every = 64;

  {
    FlashCrowdSource source(reshard_crowd_params());
    FaultPlan faults;
    faults.events.push_back({32, 0, true});
    ShardedRunOptions with_faults = options;
    with_faults.fault_plan = &faults;
    EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 16, 2,
                                             kInfiniteHorizon, with_faults),
                 InputError);
  }
  {
    FlashCrowdSource source(reshard_crowd_params());
    Observer a, b;
    ShardedRunOptions with_shard_obs = options;
    with_shard_obs.shard_observers = {&a, &b};
    EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 16, 2,
                                             kInfiniteHorizon,
                                             with_shard_obs),
                 InputError);
  }
  {
    FlashCrowdSource source(reshard_crowd_params());
    ObsConfig config;
    config.snapshot_every = 32;
    Observer periodic(config);
    ShardedRunOptions with_series = options;
    with_series.observer = &periodic;
    EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 16, 2,
                                             kInfiniteHorizon, with_series),
                 InputError);
  }
  {
    // Checkpoint sets hold one engine generation per shard, and a stopped
    // run ends in one: neither cadence, resume nor a stop flag may
    // re-shard.  Nothing is written before the rejection.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "reshard_ckpt";
    std::filesystem::remove_all(dir);
    volatile std::sig_atomic_t flag = 0;
    ShardedRunOptions cadence = options;
    cadence.checkpoint_dir = dir.string();
    cadence.checkpoint_every = 128;
    ShardedRunOptions resume = options;
    resume.checkpoint_dir = dir.string();
    resume.resume = true;
    ShardedRunOptions stop = options;
    stop.checkpoint_dir = dir.string();
    stop.stop_flag = &flag;
    for (const ShardedRunOptions& supervised : {cadence, resume, stop}) {
      FlashCrowdSource source(reshard_crowd_params());
      EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 16, 2,
                                               kInfiniteHorizon, supervised),
                   InputError);
    }
    EXPECT_FALSE(std::filesystem::exists(dir));
  }
  {
    FlashCrowdSource source(reshard_crowd_params());
    ShardedRunOptions negative = options;
    negative.reshard_every = -1;
    EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 16, 2,
                                             kInfiniteHorizon, negative),
                 InputError);
  }
}

}  // namespace
}  // namespace rrs
