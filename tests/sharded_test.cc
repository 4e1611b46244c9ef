// Sharded streaming execution: the color-partitioned multi-engine path.
//
// Three layers are covered.  ShardPlan: the partition covers every color
// exactly once, resources split proportionally in replication units, and
// plans are deterministic.  Per-color views: the union of the per-shard
// views is exactly the underlying stream (colors relabeled densely per
// shard; a materialized view keeps the Instance's job ids).
// run_streaming_sharded: with K = 1 the
// merged record is bit-identical to run_streaming for every engine
// algorithm x workload family x seed, and fixed (seed, K > 1) runs are
// deterministic across repetitions with exactly additive costs.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/shard_plan.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

const char* const kStreamingAlgorithms[] = {
    "dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf",
};

const char* const kFamilies[] = {
    "random-batched", "poisson", "flash-crowd", "datacenter",
};

/// Fresh streaming source for (family, seed); mirrors streaming_test.
std::unique_ptr<ArrivalSource> make_source(const std::string& family,
                                           std::uint64_t seed) {
  if (family == "random-batched") {
    RandomBatchedParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<RandomBatchedSource>(params);
  }
  if (family == "poisson") {
    PoissonParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<PoissonSource>(params);
  }
  if (family == "flash-crowd") {
    FlashCrowdParams params;
    params.spike_start = 128;
    params.spike_end = 192;
    params.horizon = 512;
    params.seed = seed;
    return std::make_unique<FlashCrowdSource>(params);
  }
  if (family == "datacenter") {
    DatacenterParams params;
    params.horizon = 1024;
    params.seed = seed;
    return std::make_unique<DatacenterSource>(params);
  }
  ADD_FAILURE() << "unknown family " << family;
  return nullptr;
}

// --- ShardPlan -------------------------------------------------------------

TEST(ShardPlanTest, PartitionCoversEveryColorExactlyOnce) {
  const ShardPlan plan = make_shard_plan(17, 4, 16, 2);
  ASSERT_EQ(plan.num_shards, 4);
  ASSERT_EQ(plan.num_colors(), 17);
  std::set<ColorId> seen;
  for (int s = 0; s < plan.num_shards; ++s) {
    const auto& colors = plan.shard_colors[static_cast<std::size_t>(s)];
    EXPECT_FALSE(colors.empty());
    EXPECT_TRUE(std::is_sorted(colors.begin(), colors.end()));
    for (const ColorId c : colors) {
      EXPECT_TRUE(seen.insert(c).second) << "color " << c << " duplicated";
      EXPECT_EQ(plan.shard_of_color[static_cast<std::size_t>(c)], s);
    }
  }
  EXPECT_EQ(seen.size(), 17u);
}

TEST(ShardPlanTest, ResourcesSplitInReplicationUnitsSummingToBudget) {
  const ShardPlan plan = make_shard_plan(12, 3, 16, 2);
  EXPECT_EQ(plan.total_resources(), 16);
  for (const int r : plan.shard_resources) {
    EXPECT_GE(r, 2);
    EXPECT_EQ(r % 2, 0);
  }
}

TEST(ShardPlanTest, SingleShardIsTheIdentity) {
  const ShardPlan plan = make_shard_plan(8, 1, 8, 2);
  ASSERT_EQ(plan.shard_colors.size(), 1u);
  for (ColorId c = 0; c < 8; ++c) {
    EXPECT_EQ(plan.shard_colors[0][static_cast<std::size_t>(c)], c);
    EXPECT_EQ(plan.shard_of_color[static_cast<std::size_t>(c)], 0);
  }
  EXPECT_EQ(plan.shard_resources[0], 8);
}

TEST(ShardPlanTest, WeightedPlanGivesHeavyShardMoreResources) {
  // Color 0 carries almost all load; its shard must get most resources.
  std::vector<double> weights(8, 1.0);
  weights[0] = 100.0;
  const ShardPlan plan = make_shard_plan(8, 2, 16, 2, weights);
  const int heavy = plan.shard_of_color[0];
  const int light = 1 - heavy;
  EXPECT_GT(plan.shard_resources[static_cast<std::size_t>(heavy)],
            plan.shard_resources[static_cast<std::size_t>(light)]);
  EXPECT_EQ(plan.total_resources(), 16);
}

TEST(ShardPlanTest, HeaviestColorsSpreadAcrossShards) {
  // Two dominant colors must not land on the same shard under LPT.
  std::vector<double> weights = {50.0, 50.0, 1.0, 1.0, 1.0, 1.0};
  const ShardPlan plan = make_shard_plan(6, 2, 8, 2, weights);
  EXPECT_NE(plan.shard_of_color[0], plan.shard_of_color[1]);
}

TEST(ShardPlanTest, DeterministicAcrossRepetitions) {
  std::vector<double> weights;
  {
    const auto probe = make_source("poisson", 42);
    weights = observe_color_weights(*probe, 128);
  }
  const ColorId colors = static_cast<ColorId>(weights.size());
  const ShardPlan a = make_shard_plan(colors, 4, 16, 2, weights);
  const ShardPlan b = make_shard_plan(colors, 4, 16, 2, weights);
  EXPECT_EQ(a.shard_of_color, b.shard_of_color);
  EXPECT_EQ(a.shard_resources, b.shard_resources);
  EXPECT_EQ(a.shard_colors, b.shard_colors);
}

TEST(ShardPlanTest, RejectsInvalidShapes) {
  EXPECT_THROW((void)make_shard_plan(4, 5, 16, 2), InputError);   // K > colors
  EXPECT_THROW((void)make_shard_plan(8, 3, 4, 2), InputError);    // units < K
  EXPECT_THROW((void)make_shard_plan(8, 2, 7, 2), InputError);    // indivisible
  EXPECT_THROW((void)make_shard_plan(0, 1, 8, 2), InputError);    // no colors
  const std::vector<double> bad = {1.0, 0.0};
  EXPECT_THROW((void)make_shard_plan(2, 1, 8, 2, bad), InputError);
}

TEST(ShardPlanTest, ObservedWeightsCountArrivalsPlusOne) {
  const auto probe = make_source("random-batched", 3);
  const auto reference = make_source("random-batched", 3);
  const std::vector<double> weights = observe_color_weights(*probe, 64);
  std::vector<double> expected(
      static_cast<std::size_t>(reference->num_colors()), 1.0);
  for (Round k = 0; k < 64; ++k) {
    for (const Job& job : reference->arrivals_in_round(k)) {
      expected[static_cast<std::size_t>(job.color)] += 1.0;
    }
  }
  EXPECT_EQ(weights, expected);
}

// --- Per-color views --------------------------------------------------------

/// Pulls `rounds` rounds from `full` and from the per-shard views of `plan`,
/// checking that view s serves exactly the full stream's jobs of shard s's
/// colors, relabeled to local ids, in the same order.  Job ids are compared
/// only when `same_ids` (generator views number their own emissions
/// densely, starting at 0).
void expect_views_partition(ArrivalSource& full, const ArrivalSource& parent,
                            const ShardPlan& plan, Round rounds,
                            bool same_ids) {
  std::vector<std::vector<std::vector<Job>>> expected(
      static_cast<std::size_t>(plan.num_shards));
  for (auto& per_round : expected) {
    per_round.resize(static_cast<std::size_t>(rounds));
  }
  for (Round k = 0; k < rounds; ++k) {
    for (const Job& job : full.arrivals_in_round(k)) {
      const auto s =
          static_cast<std::size_t>(
              plan.shard_of_color[static_cast<std::size_t>(job.color)]);
      expected[s][static_cast<std::size_t>(k)].push_back(job);
    }
  }

  // Views pull independently, so one thread may walk shard 0 to the end
  // before shard 1 starts.
  for (int s = 0; s < plan.num_shards; ++s) {
    const std::vector<ColorId>& colors =
        plan.shard_colors[static_cast<std::size_t>(s)];
    const std::unique_ptr<ArrivalSource> view = parent.view(colors);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->horizon(), parent.horizon());
    EXPECT_EQ(view->num_colors(), static_cast<ColorId>(colors.size()));
    EXPECT_EQ(view->materialized(), nullptr);
    JobId next_local_id = 0;
    for (Round k = 0; k < rounds; ++k) {
      const std::span<const Job> got = view->arrivals_in_round(k);
      const auto& want =
          expected[static_cast<std::size_t>(s)][static_cast<std::size_t>(k)];
      ASSERT_EQ(got.size(), want.size()) << "shard " << s << " round " << k;
      for (std::size_t i = 0; i < want.size(); ++i) {
        // Arrival and the per-color metadata survive the restriction; the
        // color is relabeled to the shard-local id.
        EXPECT_EQ(got[i].id, same_ids ? want[i].id : next_local_id++);
        EXPECT_EQ(got[i].arrival, want[i].arrival);
        EXPECT_EQ(got[i].delay_bound, want[i].delay_bound);
        EXPECT_EQ(got[i].drop_cost, want[i].drop_cost);
        EXPECT_EQ(got[i].length, want[i].length);
        const ColorId global =
            colors[static_cast<std::size_t>(got[i].color)];
        EXPECT_EQ(global, want[i].color);
        EXPECT_EQ(view->delay_bound(got[i].color), want[i].delay_bound);
        EXPECT_EQ(view->drop_cost(got[i].color), want[i].drop_cost);
      }
    }
  }
}

TEST(ShardViewTest, ViewsPartitionTheUnderlyingStream) {
  const Round rounds = 128;
  {
    SCOPED_TRACE("generator");
    const auto parent = make_source("poisson", 9);
    const ShardPlan plan = make_shard_plan(parent->num_colors(), 3, 8, 2);
    const auto full = make_source("poisson", 9);
    expect_views_partition(*full, *parent, plan, rounds, /*same_ids=*/false);
  }
  {
    SCOPED_TRACE("materialized");
    const auto generated = make_source("poisson", 9);
    const Instance instance = materialize(*generated, rounds);
    MaterializedSource parent(instance);
    const ShardPlan plan = make_shard_plan(parent.num_colors(), 3, 8, 2);
    MaterializedSource full(instance);
    expect_views_partition(full, parent, plan, rounds, /*same_ids=*/true);
  }
}

// --- run_streaming_sharded -------------------------------------------------

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

class SingleShardBitIdentity : public ::testing::TestWithParam<Cell> {};

TEST_P(SingleShardBitIdentity, MatchesRunStreaming) {
  const auto& [algorithm, family, seed] = GetParam();

  const auto plain_source = make_source(family, seed);
  const StreamRunRecord plain =
      run_streaming(*plain_source, algorithm, 8);

  const auto sharded_source = make_source(family, seed);
  const ShardedRunRecord sharded =
      run_streaming_sharded(*sharded_source, algorithm, 8, 1);

  EXPECT_EQ(sharded.merged.cost, plain.cost) << family << " seed " << seed;
  EXPECT_EQ(sharded.merged.executed, plain.executed);
  EXPECT_EQ(sharded.merged.arrived, plain.arrived);
  EXPECT_EQ(sharded.merged.rounds, plain.rounds);
  EXPECT_EQ(sharded.merged.peak_pending, plain.peak_pending);
  EXPECT_EQ(sharded.merged.stats, plain.stats);
  ASSERT_EQ(sharded.shards.size(), 1u);
  EXPECT_EQ(sharded.shards[0].cost, plain.cost);
  EXPECT_EQ(sharded.shards[0].n, 8);
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const char* const algorithm : kStreamingAlgorithms) {
    for (const char* const family : kFamilies) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        cells.emplace_back(algorithm, family, seed);
      }
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     "_s" + std::to_string(std::get<2>(info.param));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, SingleShardBitIdentity,
                         ::testing::ValuesIn(all_cells()), cell_name);

/// Fields of a sharded run that must be reproducible (seconds is wall
/// clock and is deliberately excluded).
struct Reproducible {
  CostBreakdown cost;
  std::int64_t executed;
  std::int64_t arrived;
  Round rounds;
  std::int64_t peak_pending;
  std::vector<std::pair<std::string, std::int64_t>> stats;

  friend bool operator==(const Reproducible&, const Reproducible&) = default;
};

Reproducible reproducible(const StreamRunRecord& record) {
  return {record.cost,   record.executed,     record.arrived,
          record.rounds, record.peak_pending, record.stats};
}

TEST(ShardedRunTest, FixedSeedAndShardCountIsDeterministic) {
  for (const int shards : {2, 3}) {
    std::vector<std::vector<Reproducible>> runs;
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto source = make_source("random-batched", 7);
      const ShardedRunRecord record =
          run_streaming_sharded(*source, "dlru-edf", 16, shards);
      std::vector<Reproducible> fields;
      fields.push_back(reproducible(record.merged));
      for (const StreamRunRecord& shard : record.shards) {
        fields.push_back(reproducible(shard));
      }
      runs.push_back(std::move(fields));
    }
    EXPECT_EQ(runs[0], runs[1]) << shards << " shards";
    EXPECT_EQ(runs[0], runs[2]) << shards << " shards";
  }
}

TEST(ShardedRunTest, MergedRecordAggregatesShards) {
  const auto source = make_source("datacenter", 5);
  const ShardedRunRecord record =
      run_streaming_sharded(*source, "dlru-edf", 16, 4);
  ASSERT_EQ(record.shards.size(), 4u);
  EXPECT_EQ(record.plan.num_shards, 4);

  CostBreakdown cost_sum;
  std::int64_t executed = 0, arrived = 0, peak = 0;
  Round rounds = 0;
  int resources = 0;
  for (const StreamRunRecord& shard : record.shards) {
    cost_sum.reconfig_events += shard.cost.reconfig_events;
    cost_sum.reconfig_cost += shard.cost.reconfig_cost;
    cost_sum.drops += shard.cost.drops;
    executed += shard.executed;
    arrived += shard.arrived;
    peak += shard.peak_pending;
    rounds = std::max(rounds, shard.rounds);
    resources += shard.n;
  }
  EXPECT_EQ(record.merged.cost, cost_sum);
  EXPECT_EQ(record.merged.executed, executed);
  EXPECT_EQ(record.merged.arrived, arrived);
  EXPECT_EQ(record.merged.peak_pending, peak);
  EXPECT_EQ(record.merged.rounds, rounds);
  EXPECT_EQ(record.merged.n, 16);
  EXPECT_EQ(resources, 16);
  // Datacenter drop costs are weighted (> 1 per job), so `drops` is a
  // cost, not a count: conservation here is an inequality.
  EXPECT_GE(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
  EXPECT_LE(record.merged.executed, record.merged.arrived);
}

TEST(ShardedRunTest, ShardCountsAgreeOnArrivals) {
  // The same stream split K ways always carries the same jobs.
  std::vector<std::int64_t> arrived;
  for (const int shards : {1, 2, 4}) {
    const auto source = make_source("flash-crowd", 11);
    const ShardedRunRecord record =
        run_streaming_sharded(*source, "dlru-edf", 16, shards);
    arrived.push_back(record.merged.arrived);
  }
  EXPECT_EQ(arrived[0], arrived[1]);
  EXPECT_EQ(arrived[0], arrived[2]);
}

TEST(ShardedRunTest, WeightedPlanRunsAndConserves) {
  std::vector<double> weights;
  {
    const auto probe = make_source("poisson", 13);
    weights = observe_color_weights(*probe, 128);
  }
  const auto source = make_source("poisson", 13);
  ShardedRunOptions options;
  options.color_weights = weights;
  const ShardedRunRecord record =
      run_streaming_sharded(*source, "dlru-edf", 8, 2, kInfiniteHorizon,
                            options);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
  EXPECT_GT(record.merged.arrived, 0);
}

TEST(ShardedRunTest, InfiniteSourceNeedsMaxRounds) {
  PoissonParams params;
  params.horizon = kInfiniteHorizon;
  params.seed = 5;
  PoissonSource source(params);
  EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 8, 2),
               InputError);
}

TEST(ShardedRunTest, InfiniteSourceRunsWithMaxRounds) {
  PoissonParams params;
  params.horizon = kInfiniteHorizon;
  params.seed = 5;
  PoissonSource source(params);
  const ShardedRunRecord record =
      run_streaming_sharded(source, "dlru-edf", 8, 2, /*max_rounds=*/512);
  EXPECT_GE(record.merged.rounds, 512);
  EXPECT_GT(record.merged.arrived, 0);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
}

TEST(ShardedRunTest, SeqEdfRunsUnreplicated) {
  // seq-edf uses replication 1, so the plan splits n into units of 1.
  const auto source = make_source("random-batched", 2);
  const ShardedRunRecord record =
      run_streaming_sharded(*source, "seq-edf", 4, 3);
  EXPECT_EQ(record.plan.resource_unit, 1);
  EXPECT_EQ(record.plan.total_resources(), 4);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
}

TEST(ShardedRunTest, ZeroArrivalShardsMergeCleanly) {
  // Two colors, but every job belongs to one of them: the other shard
  // streams zero arrivals for the whole run and must still terminate and
  // merge as an all-zero record.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId hot = builder.add_color(8);
  (void)builder.add_color(8);  // cold color: declared, never requested
  builder.add_jobs(hot, 0, 12);
  const Instance inst = builder.build();
  MaterializedSource source(inst);

  const ShardedRunRecord record =
      run_streaming_sharded(source, "dlru-edf", 8, 2);
  ASSERT_EQ(record.shards.size(), 2u);
  int empty_shards = 0;
  for (const StreamRunRecord& shard : record.shards) {
    if (shard.arrived > 0) continue;
    ++empty_shards;
    EXPECT_EQ(shard.executed, 0);
    EXPECT_EQ(shard.cost, CostBreakdown{});
    EXPECT_EQ(shard.peak_pending, 0);
  }
  EXPECT_EQ(empty_shards, 1);
  EXPECT_EQ(record.merged.arrived, 12);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops, 12);
}

TEST(ShardedRunTest, SnapshotMergeIsAdditiveAndOrderIndependent) {
  // Property: merging the K per-shard final snapshots in ANY permutation
  // yields the merged observer's snapshot, and each per-shard snapshot is
  // bit-identical to a K=1 run of that shard's relabeled sub-workload —
  // so the merge is exactly additive, with no order sensitivity.
  constexpr int kShards = 3;
  Observer merged;
  std::vector<Observer> shard_store(kShards, Observer{});
  ShardedRunOptions options;
  options.observer = &merged;
  for (Observer& obs : shard_store) options.shard_observers.push_back(&obs);

  const auto source = make_source("poisson", 21);
  const Round arrival_end = source->horizon();
  const ShardedRunRecord record = run_streaming_sharded(
      *source, "dlru-edf", 24, kShards, kInfiniteHorizon, options);

  // Every permutation of the per-shard snapshots merges to the same total.
  std::vector<std::size_t> order = {0, 1, 2};
  std::sort(order.begin(), order.end());
  do {
    Snapshot folded;
    for (const std::size_t s : order) {
      merge_into(folded, shard_store[s].final_snapshot);
    }
    EXPECT_EQ(folded, merged.final_snapshot)
        << "permutation " << order[0] << order[1] << order[2];
  } while (std::next_permutation(order.begin(), order.end()));

  // Each shard's snapshot equals the K=1 run of the same relabeled
  // sub-workload (the partition makes shards fully independent).
  const auto resplit_source = make_source("poisson", 21);
  for (int s = 0; s < kShards; ++s) {
    Observer solo;
    const std::unique_ptr<ArrivalSource> view = resplit_source->view(
        record.plan.shard_colors[static_cast<std::size_t>(s)]);
    (void)run_streaming(
        *view, "dlru-edf",
        record.plan.shard_resources[static_cast<std::size_t>(s)],
        arrival_end, nullptr, false, &solo);
    EXPECT_EQ(solo.final_snapshot,
              shard_store[static_cast<std::size_t>(s)].final_snapshot)
        << "shard " << s;
  }
}

TEST(ShardedRunTest, MergedObserverMatchesMergedRecord) {
  Observer merged;
  ShardedRunOptions options;
  options.observer = &merged;
  const auto source = make_source("datacenter", 5);
  const ShardedRunRecord record = run_streaming_sharded(
      *source, "dlru-edf", 16, 4, kInfiniteHorizon, options);
  EXPECT_EQ(merged.stats.arrived(), record.merged.arrived);
  EXPECT_EQ(merged.stats.executed(), record.merged.executed);
  EXPECT_EQ(merged.stats.drop_weight(), record.merged.cost.drops);
  EXPECT_EQ(merged.stats.reconfig_events(),
            record.merged.cost.reconfig_events);
  EXPECT_EQ(merged.final_snapshot.round, record.merged.rounds);
  EXPECT_EQ(merged.final_snapshot.pending, 0);
}

// --- non-uniform cost models across shards ---------------------------------

/// A contended instance with non-uniform weights, lengths > 1, per-color
/// cold prices, and warm discounts — so shard engines charge through the
/// restricted matrix, not the scalar fast path.
Instance make_nonuniform_instance() {
  InstanceBuilder builder;
  builder.delta(4);
  std::vector<ColorId> colors;
  for (int c = 0; c < 9; ++c) {
    colors.push_back(
        builder.add_color(/*d=*/4 << (c % 3), /*drop_cost=*/1 + (c % 4),
                          /*length=*/1 + (c % 3)));
  }
  for (const ColorId c : colors) {
    builder.reconfig_cost(c, 2 + static_cast<Cost>(c % 5));
  }
  builder.transition_cost(colors[0], colors[1], 1);
  builder.transition_cost(colors[1], colors[0], 0);
  builder.transition_cost(colors[3], colors[4], 2);
  builder.transition_cost(colors[7], colors[8], 1);
  for (Round t = 0; t < 256; ++t) {
    for (const ColorId c : colors) {
      if (t % (2 + static_cast<Round>(c % 4)) == 0) builder.add_jobs(c, t, 2);
    }
  }
  return builder.build();
}

TEST(ShardedNonUniform, SingleShardBitIdenticalWithLengthsAndMatrixDelta) {
  const Instance instance = make_nonuniform_instance();
  ASSERT_EQ(instance.cost_model().tier(), CostModel::Tier::kMatrix);
  ASSERT_FALSE(instance.unit_lengths());
  for (const std::string algorithm :
       {"dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf"}) {
    SCOPED_TRACE(algorithm);
    MaterializedSource plain_source(instance);
    const StreamRunRecord plain = run_streaming(plain_source, algorithm, 8);

    MaterializedSource sharded_source(instance);
    const ShardedRunRecord sharded =
        run_streaming_sharded(sharded_source, algorithm, 8, 1);
    EXPECT_EQ(sharded.merged.cost, plain.cost);
    EXPECT_EQ(sharded.merged.executed, plain.executed);
    EXPECT_EQ(sharded.merged.work_units, plain.work_units);
    EXPECT_EQ(sharded.merged.arrived, plain.arrived);
    EXPECT_EQ(sharded.merged.rounds, plain.rounds);
    EXPECT_EQ(sharded.merged.peak_pending, plain.peak_pending);
    EXPECT_EQ(sharded.merged.stats, plain.stats);
    EXPECT_GT(plain.work_units, plain.executed)
        << "lengths > 1 must leave partial units behind";
  }
}

TEST(ShardedNonUniform, MergedCostsExactlyAdditiveUnderMatrixDelta) {
  const Instance instance = make_nonuniform_instance();
  MaterializedSource source(instance);
  const ShardedRunRecord record =
      run_streaming_sharded(source, "dlru-edf", 12, 3);
  ASSERT_EQ(record.shards.size(), 3u);

  CostBreakdown cost_sum;
  std::int64_t executed = 0, work_units = 0, arrived = 0;
  for (const StreamRunRecord& shard : record.shards) {
    cost_sum.reconfig_events += shard.cost.reconfig_events;
    cost_sum.reconfig_cost += shard.cost.reconfig_cost;
    cost_sum.drops += shard.cost.drops;
    cost_sum.churn_reconfigs += shard.cost.churn_reconfigs;
    executed += shard.executed;
    work_units += shard.work_units;
    arrived += shard.arrived;
  }
  EXPECT_EQ(record.merged.cost, cost_sum);
  EXPECT_EQ(record.merged.executed, executed);
  EXPECT_EQ(record.merged.work_units, work_units);
  EXPECT_EQ(record.merged.arrived, arrived);
  // Warm discounts make per-event prices vary: the merged reconfig cost
  // cannot be events * Delta here.
  EXPECT_NE(record.merged.cost.reconfig_cost,
            record.merged.cost.reconfig_events * instance.delta());

  // Determinism across repetitions.
  MaterializedSource source2(instance);
  const ShardedRunRecord again =
      run_streaming_sharded(source2, "dlru-edf", 12, 3);
  EXPECT_EQ(again.merged.cost, record.merged.cost);
  EXPECT_EQ(again.merged.work_units, record.merged.work_units);
}

TEST(ShardedRunTest, RejectsMismatchedShardObserverCount) {
  Observer only_one;
  ShardedRunOptions options;
  options.shard_observers = {&only_one};
  const auto source = make_source("poisson", 1);
  EXPECT_THROW((void)run_streaming_sharded(*source, "dlru-edf", 8, 2,
                                           kInfiniteHorizon, options),
               InputError);
}

TEST(ShardedRunTest, RejectsUnknownAlgorithmAndBadShardCounts) {
  const auto source = make_source("poisson", 1);
  EXPECT_THROW(
      (void)run_streaming_sharded(*source, "no-such-algorithm", 8, 2),
      InputError);
  const auto source2 = make_source("poisson", 1);
  EXPECT_THROW((void)run_streaming_sharded(*source2, "dlru-edf", 8, 0),
               InputError);
  const auto source3 = make_source("poisson", 1);
  // 8 resources at dLRU-EDF's granularity of 4 hold 2 blocks; 5 shards
  // cannot fit.
  EXPECT_THROW((void)run_streaming_sharded(*source3, "dlru-edf", 8, 5),
               InputError);
}

// --- The driver's rejection table ------------------------------------------
//
// run_streaming_sharded validates its whole option table before it builds
// any engine (see ShardedRunOptions).  Rows pinned elsewhere: re-sharding
// x {fault plan, caller shard observers, snapshot series, checkpoints,
// stop flag} in ReshardTest.RejectsIncompatibleFeatures; K > 1 without
// views in OpaqueSourceSharding; an infinite source without max_rounds
// in StreamingContract and ShardedRunTest; the shard observer count in
// ShardedRunTest.RejectsMismatchedShardObserverCount.

/// A fresh checkpoint directory path that does not exist yet.
std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("reject_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Expects the driver to refuse `options` for dlru-edf on 8 resources
/// split `shards` ways over a Poisson source, without creating the
/// checkpoint directory.
void expect_rejected(const ShardedRunOptions& options, int shards) {
  const auto source = make_source("poisson", 1);
  EXPECT_THROW((void)run_streaming_sharded(*source, "dlru-edf", 8, shards,
                                           kInfiniteHorizon, options),
               InputError);
  if (!options.checkpoint_dir.empty()) {
    EXPECT_FALSE(std::filesystem::exists(options.checkpoint_dir));
  }
}

TEST(RejectionTable, CheckpointsNeedDirectory) {
  ShardedRunOptions cadence;
  cadence.checkpoint_every = 64;
  expect_rejected(cadence, 1);
  ShardedRunOptions resume;
  resume.resume = true;
  expect_rejected(resume, 2);
}

TEST(RejectionTable, StopFlagNeedsDirectory) {
  volatile std::sig_atomic_t flag = 0;
  ShardedRunOptions options;
  options.stop_flag = &flag;
  expect_rejected(options, 1);
  expect_rejected(options, 2);
}

TEST(RejectionTable, PendingBudgetIsSerialOnly) {
  ShardedRunOptions options;
  options.pending_budget = 16;
  expect_rejected(options, 2);
  const auto source = make_source("poisson", 1);
  EXPECT_NO_THROW((void)run_streaming_sharded(*source, "dlru-edf", 8, 1,
                                              kInfiniteHorizon, options));
}

TEST(RejectionTable, NegativeCadenceAndEmptyRotation) {
  ShardedRunOptions cadence;
  cadence.checkpoint_dir = fresh_dir("negative_cadence");
  cadence.checkpoint_every = -1;
  expect_rejected(cadence, 1);
  ShardedRunOptions keep;
  keep.checkpoint_dir = fresh_dir("keep_zero");
  keep.checkpoint_every = 64;
  keep.checkpoint_keep = 0;
  expect_rejected(keep, 1);
}

}  // namespace
}  // namespace rrs
