// Checkpoint/restore round-trip pins: for every streaming algorithm x
// workload family, checkpointing at an arbitrary mid-stream round and
// restoring into a fresh engine (and fresh source) must finish with
// results bit-identical to the uninterrupted run — costs, schedules,
// observer stats, snapshot series — serial and sharded (K=2), with and
// without fast-forward.  Plus pending-budget admission-control semantics
// on the flash-crowd family.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/generator_source.h"
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
std::unique_ptr<GeneratorSource> make_source(const std::string& family,
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

/// run_streaming's engine options, with the matrix's toggles applied.
EngineOptions stream_options(const std::string& algorithm, bool fast_forward,
                             std::unique_ptr<Policy>& policy) {
  EngineOptions options;
  policy = make_stream_policy(algorithm, options);
  options.num_resources = 8;
  options.record_schedule = true;  // pin schedule bytes too
  options.drain_pending = true;
  options.fast_forward = fast_forward;
  return options;
}

void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.cost, b.cost) << label;
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.work_units, b.work_units) << label;
  EXPECT_EQ(a.arrived, b.arrived) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.peak_pending, b.peak_pending) << label;
  EXPECT_EQ(a.admission_rejected, b.admission_rejected) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  EXPECT_EQ(a.schedule.reconfigs, b.schedule.reconfigs) << label;
  EXPECT_EQ(a.schedule.execs, b.schedule.execs) << label;
  EXPECT_EQ(a.policy_stats, b.policy_stats) << label;
}

void expect_identical(const StreamRunRecord& a, const StreamRunRecord& b,
                      const std::string& label) {
  EXPECT_EQ(a.cost, b.cost) << label;
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.work_units, b.work_units) << label;
  EXPECT_EQ(a.arrived, b.arrived) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.peak_pending, b.peak_pending) << label;
  EXPECT_EQ(a.admission_rejected, b.admission_rejected) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  EXPECT_EQ(a.stats, b.stats) << label;
}

using Cell = std::tuple<std::string, std::string, bool>;

class CheckpointRoundTrip : public ::testing::TestWithParam<Cell> {};

// Serial pin: run to an arbitrary mid-stream round, checkpoint (source
// embedded), restore onto a fresh engine + fresh source, finish — every
// result field matches the uninterrupted run.
TEST_P(CheckpointRoundTrip, SerialBitIdentical) {
  const auto& [algorithm, family, ff] = GetParam();
  const std::uint64_t seed = 1;
  const std::string label = algorithm + "/" + family;

  // Uninterrupted reference.
  const auto ref_source = make_source(family, seed);
  std::unique_ptr<Policy> ref_policy;
  const EngineOptions ref_options = stream_options(algorithm, ff, ref_policy);
  Engine ref_engine(*ref_source, *ref_policy, ref_options);
  const Round end = ref_engine.arrival_end();
  ASSERT_GT(end, 2);
  ref_engine.run_rounds(*ref_source, end);
  const EngineResult reference = ref_engine.finish();

  // Interrupted: checkpoint at an arbitrary interior round.
  const Round mid = end / 3 + 1;
  const auto cut_source = make_source(family, seed);
  std::unique_ptr<Policy> cut_policy;
  const EngineOptions cut_options = stream_options(algorithm, ff, cut_policy);
  Engine cut_engine(*cut_source, *cut_policy, cut_options);
  cut_engine.run_rounds(*cut_source, mid);
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  cut_engine.checkpoint(bytes, cut_source.get());

  // Restore onto a fresh engine and a fresh (position-zero) source.
  const auto resumed_source = make_source(family, seed);
  std::unique_ptr<Policy> resumed_policy;
  const EngineOptions resumed_options =
      stream_options(algorithm, ff, resumed_policy);
  Engine resumed_engine(*resumed_source, *resumed_policy, resumed_options);
  resumed_engine.restore(bytes, resumed_source.get());
  EXPECT_EQ(resumed_engine.round(), mid) << label;
  resumed_engine.run_rounds(*resumed_source, end);
  const EngineResult resumed = resumed_engine.finish();

  expect_identical(reference, resumed, label);
}

// Sharded pin (K=2): a run that writes a coordinated checkpoint set
// mid-stream is bit-identical to one that never checkpoints, and a
// resumed run from that set finishes bit-identical too.
TEST_P(CheckpointRoundTrip, ShardedBitIdentical) {
  const auto& [algorithm, family, ff] = GetParam();
  const std::uint64_t seed = 2;
  const std::string label = algorithm + "/" + family;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()));
  std::filesystem::remove_all(dir);

  ShardedRunOptions base;
  base.fast_forward = ff;

  const auto ref_source = make_source(family, seed);
  const ShardedRunRecord reference = run_streaming_sharded(
      *ref_source, algorithm, 8, 2, kInfiniteHorizon, base);

  // Same run, checkpointing mid-stream: results unperturbed.  The drain
  // can push merged.rounds past the arrival horizon, so the checkpoint
  // round is picked inside the horizon itself.
  ShardedRunOptions writing = base;
  writing.checkpoint_dir = dir.string();
  writing.checkpoint_every = ref_source->horizon() / 2;
  ASSERT_GT(writing.checkpoint_every, 0);
  const auto ckpt_source = make_source(family, seed);
  const ShardedRunRecord checkpointed = run_streaming_sharded(
      *ckpt_source, algorithm, 8, 2, kInfiniteHorizon, writing);
  expect_identical(reference.merged, checkpointed.merged, label);

  // Resume from the set and finish: still bit-identical.
  ShardedRunOptions resuming = base;
  resuming.checkpoint_dir = dir.string();
  resuming.resume = true;
  const auto res_source = make_source(family, seed);
  const ShardedRunRecord resumed = run_streaming_sharded(
      *res_source, algorithm, 8, 2, kInfiniteHorizon, resuming);
  expect_identical(reference.merged, resumed.merged, label);
  ASSERT_EQ(reference.shards.size(), resumed.shards.size());
  for (std::size_t s = 0; s < reference.shards.size(); ++s) {
    expect_identical(reference.shards[s], resumed.shards[s],
                     label + " shard " + std::to_string(s));
  }
  std::filesystem::remove_all(dir);
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const char* const algorithm : kStreamingAlgorithms) {
    for (const char* const family : kFamilies) {
      for (const bool ff : {true, false}) {
        cells.emplace_back(algorithm, family, ff);
      }
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     (std::get<2>(info.param) ? "_ff" : "_noff");
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CheckpointRoundTrip,
                         ::testing::ValuesIn(all_cells()), cell_name);

/// A K=2 dlru-edf sharded run over `source` that checkpoints every
/// `every` rounds into `dir`, or (every == 0) resumes from the newest
/// usable set there.
ShardedRunRecord run_sharded_ckpt(ArrivalSource& source,
                                  const std::filesystem::path& dir,
                                  Round every) {
  ShardedRunOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = every;
  options.resume = every == 0;
  return run_streaming_sharded(source, "dlru-edf", 8, 2, kInfiniteHorizon,
                               options);
}

void expect_identical(const ShardedRunRecord& a, const ShardedRunRecord& b,
                      const std::string& label) {
  expect_identical(a.merged, b.merged, label);
  ASSERT_EQ(a.shards.size(), b.shards.size()) << label;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    expect_identical(a.shards[s], b.shards[s],
                     label + " shard " + std::to_string(s));
  }
}

// Sharded checkpoint over a trace (K=2): shards serve views of a
// MaterializedSource under a matrix Delta with lengths > 1.  A view's
// sidecar records its color set; checkpointing leaves the run unperturbed
// and a resumed run finishes bit-identical, merged and per shard.
TEST(CheckpointShardedTrace, MaterializedViewsResumeBitIdentical) {
  InstanceBuilder builder;
  builder.delta(4);
  for (ColorId c = 0; c < 6; ++c) {
    (void)builder.add_color(/*d=*/4 << (c % 3), /*drop_cost=*/1 + (c % 3),
                            /*length=*/1 + (c % 2));
    builder.reconfig_cost(c, 3 + static_cast<Cost>(c % 4));
    for (Round t = 0; t < 240; t += 2 + c % 3) builder.add_jobs(c, t, 2);
  }
  builder.transition_cost(0, 1, 1);
  builder.transition_cost(4, 5, 2);
  const Instance instance = builder.build();
  ASSERT_EQ(instance.cost_model().tier(), CostModel::Tier::kMatrix);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_sharded_trace";
  std::filesystem::remove_all(dir);
  MaterializedSource ref_source(instance);
  const ShardedRunRecord reference =
      run_streaming_sharded(ref_source, "dlru-edf", 8, 2);
  EXPECT_GT(reference.merged.work_units, reference.merged.executed);

  MaterializedSource ckpt_source(instance);
  expect_identical(reference, run_sharded_ckpt(ckpt_source, dir, 97),
                   "checkpointed");
  MaterializedSource res_source(instance);
  expect_identical(reference, run_sharded_ckpt(res_source, dir, 0), "resumed");
  std::filesystem::remove_all(dir);
}

// Resume falls back past a corrupt set: the newer set's shard-1 sidecar is
// damaged, so shard 0's generator view is restored (and advanced) before
// the attempt fails.  The older set must then start from fresh views and
// finish bit-identical to the uninterrupted run.
TEST(CheckpointShardedFallback, CorruptNewestSetFallsBackToOlder) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_sharded_fallback";
  std::filesystem::remove_all(dir);
  const auto ref_source = make_source("random-batched", 3);
  const ShardedRunRecord reference =
      run_streaming_sharded(*ref_source, "dlru-edf", 8, 2);
  // Sets at rounds 120 and 240 (horizon 256).
  (void)run_sharded_ckpt(*make_source("random-batched", 3), dir, 120);

  const std::filesystem::path damaged = dir / "ckpt-240.shard1";
  ASSERT_TRUE(std::filesystem::exists(damaged));
  const auto middle =
      static_cast<std::streamoff>(std::filesystem::file_size(damaged) / 2);
  std::fstream f(damaged, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(middle);
  const int byte = f.get();
  f.seekp(middle);
  f.put(static_cast<char>(byte ^ 0x5a));
  f.close();

  const ShardedRunRecord resumed =
      run_sharded_ckpt(*make_source("random-batched", 3), dir, 0);
  EXPECT_EQ(resumed.recovered_from, 120);
  expect_identical(reference, resumed, "fallback");
  std::filesystem::remove_all(dir);
}

// Observer state rides inside the checkpoint: the restored run's stats and
// snapshot series equal the uninterrupted run's.
TEST(CheckpointObserver, StatsAndSnapshotSeriesRoundTrip) {
  ObsConfig config;
  config.snapshot_every = 32;

  const auto run = [&](Observer& obs, bool interrupt) {
    const auto source = make_source("flash-crowd", 3);
    std::unique_ptr<Policy> policy;
    EngineOptions options = stream_options("dlru-edf", true, policy);
    options.observer = &obs;
    Engine engine(*source, *policy, options);
    const Round end = engine.arrival_end();
    if (!interrupt) {
      engine.run_rounds(*source, end);
      return engine.finish();
    }
    const Round mid = end / 2;
    engine.run_rounds(*source, mid);
    std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
    engine.checkpoint(bytes, source.get());

    const auto resumed_source = make_source("flash-crowd", 3);
    std::unique_ptr<Policy> resumed_policy;
    EngineOptions resumed_options =
        stream_options("dlru-edf", true, resumed_policy);
    resumed_options.observer = &obs;
    Engine resumed(*resumed_source, *resumed_policy, resumed_options);
    resumed.restore(bytes, resumed_source.get());
    resumed.run_rounds(*resumed_source, end);
    return resumed.finish();
  };

  Observer straight(config);
  const EngineResult a = run(straight, false);
  Observer restored(config);
  const EngineResult b = run(restored, true);

  expect_identical(a, b, "observer round trip");
  ASSERT_FALSE(straight.snapshots.empty());
  EXPECT_EQ(straight.snapshots, restored.snapshots);
  EXPECT_EQ(straight.final_snapshot, restored.final_snapshot);
  EXPECT_EQ(to_json_line(straight.final_snapshot),
            to_json_line(restored.final_snapshot));
  EXPECT_EQ(straight.stats.admission_rejected(),
            restored.stats.admission_rejected());
}

// Restoring into an engine built with different options must reject, not
// half-apply.
TEST(CheckpointMismatch, RejectsDifferentOptionsOrPolicy) {
  const auto source = make_source("poisson", 5);
  std::unique_ptr<Policy> policy;
  const EngineOptions options = stream_options("dlru-edf", true, policy);
  Engine engine(*source, *policy, options);
  engine.run_rounds(*source, 16);
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  engine.checkpoint(bytes, source.get());
  const std::string frame = bytes.str();

  {
    // Different resource count.
    const auto s2 = make_source("poisson", 5);
    std::unique_ptr<Policy> p2;
    EngineOptions o2 = stream_options("dlru-edf", true, p2);
    o2.num_resources = 4;
    Engine e2(*s2, *p2, o2);
    std::istringstream in(frame, std::ios::binary);
    EXPECT_THROW(e2.restore(in, s2.get()), InputError);
  }
  {
    // Different policy.
    const auto s2 = make_source("poisson", 5);
    std::unique_ptr<Policy> p2;
    const EngineOptions o2 = stream_options("dlru", true, p2);
    Engine e2(*s2, *p2, o2);
    std::istringstream in(frame, std::ios::binary);
    EXPECT_THROW(e2.restore(in, s2.get()), InputError);
  }
  {
    // Restoring WITHOUT a source must still work: the embedded source
    // state is skipped, for callers that reposition the source themselves.
    const auto s2 = make_source("poisson", 5);
    std::unique_ptr<Policy> p2;
    const EngineOptions o2 = stream_options("dlru-edf", true, p2);
    Engine e2(*s2, *p2, o2);
    std::istringstream in(frame, std::ios::binary);
    e2.restore(in, nullptr);
    EXPECT_EQ(e2.round(), 16);
  }
}

// --- pending-budget admission control --------------------------------------

/// Forwards to the wrapped policy and keeps every round's admitted
/// arrivals (what the engine ingested after admission control).
class AdmittedRecorder final : public Policy {
 public:
  explicit AdmittedRecorder(std::unique_ptr<Policy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void begin(const ArrivalSource& source, int num_resources,
             int speed) override {
    inner_->begin(source, num_resources, speed);
  }
  void on_round(RoundContext& ctx) override {
    if (ctx.first_mini() && !ctx.final_sweep() && !ctx.arrivals().empty()) {
      std::vector<Job> jobs(ctx.arrivals().begin(), ctx.arrivals().end());
      admitted.emplace_back(ctx.round(), std::move(jobs));
    }
    inner_->on_round(ctx);
  }
  void on_capacity_change(Round round, int up, int total,
                          std::span<const ColorId> evicted) override {
    inner_->on_capacity_change(round, up, total, evicted);
  }
  [[nodiscard]] int resource_granularity(int replication) const override {
    return inner_->resource_granularity(replication);
  }
  [[nodiscard]] bool supports_fast_forward() const override {
    return inner_->supports_fast_forward();
  }
  [[nodiscard]] Round next_policy_event(Round k) const override {
    return inner_->next_policy_event(k);
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> stats()
      const override {
    return inner_->stats();
  }

  std::vector<std::pair<Round, std::vector<Job>>> admitted;

 private:
  std::unique_ptr<Policy> inner_;
};

StreamRunRecord run_with_budget(
    std::int64_t budget, std::int64_t* peak, Observer* obs = nullptr,
    std::vector<std::pair<Round, std::vector<Job>>>* admitted = nullptr) {
  const auto source = make_source("flash-crowd", 7);
  std::unique_ptr<Policy> inner;
  EngineOptions options = stream_options("dlru-edf", true, inner);
  options.num_resources = 4;  // starve the spike so pending piles up
  options.record_schedule = false;
  options.pending_budget = budget;
  options.observer = obs;
  AdmittedRecorder recorder(std::move(inner));
  Policy* policy = &recorder;
  Engine engine(*source, *policy, options);
  engine.run_rounds(*source, engine.arrival_end());
  EngineResult result = engine.finish();
  if (peak != nullptr) *peak = result.peak_pending;
  if (admitted != nullptr) *admitted = std::move(recorder.admitted);
  StreamRunRecord record;
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

TEST(AdmissionControl, FlashCrowdHoldsBudgetAndCountsRejections) {
  std::int64_t unbounded_peak = 0;
  const StreamRunRecord off = run_with_budget(0, &unbounded_peak);
  ASSERT_GT(unbounded_peak, 32) << "spike too small to exercise the budget";

  Observer obs;
  std::int64_t peak = 0;
  std::vector<std::pair<Round, std::vector<Job>>> admitted;
  const StreamRunRecord on = run_with_budget(32, &peak, &obs, &admitted);
  EXPECT_LE(peak, 32);
  // Shedding takes the later jobs of a color-round first, so each batch's
  // survivors are a prefix of its ids and still ingest as one run.
  const auto source = make_source("flash-crowd", 7);
  Round pulled = 0;
  std::int64_t shed_rounds = 0;
  for (const auto& [round, jobs] : admitted) {
    std::span<const Job> all;
    while (pulled <= round) all = source->arrivals_in_round(pulled++);
    ASSERT_LE(jobs.size(), all.size()) << "round " << round;
    if (jobs.size() < all.size()) ++shed_rounds;
    std::size_t i = 0;
    for (std::size_t a = 0; a < all.size();) {
      const ColorId color = all[a].color;
      std::size_t kept = 0;
      while (i < jobs.size() && jobs[i].color == color) {
        ASSERT_LT(a + kept, all.size());
        EXPECT_EQ(jobs[i], all[a + kept])
            << "round " << round << " color " << color;
        ++i;
        ++kept;
      }
      while (a < all.size() && all[a].color == color) ++a;
    }
    EXPECT_EQ(i, jobs.size()) << "round " << round;
  }
  EXPECT_GT(shed_rounds, 0);
  EXPECT_GT(on.admission_rejected, 0);
  EXPECT_EQ(on.arrived, off.arrived) << "shed jobs still count as arrivals";
  EXPECT_EQ(obs.stats.admission_rejected(), on.admission_rejected);
  EXPECT_EQ(obs.final_snapshot.admission_rejected, on.admission_rejected);
  EXPECT_LE(on.admission_rejected, obs.final_snapshot.drop_count)
      << "admission rejections are a subset of drops";
}

TEST(AdmissionControl, UnhitBudgetIsBitIdenticalToOff) {
  std::int64_t peak = 0;
  const StreamRunRecord off = run_with_budget(0, &peak);
  const StreamRunRecord unhit = run_with_budget(peak + 1, nullptr);
  expect_identical(off, unhit, "unhit budget");
  EXPECT_EQ(unhit.admission_rejected, 0);
}

TEST(AdmissionControl, BudgetStateSurvivesCheckpoint) {
  // Checkpoint mid-spike with the budget active; the restored run's
  // admission counters match the uninterrupted budgeted run exactly.
  const auto run = [&](bool interrupt) {
    const auto source = make_source("flash-crowd", 9);
    std::unique_ptr<Policy> policy;
    EngineOptions options = stream_options("dlru-edf", true, policy);
    options.num_resources = 4;
    options.record_schedule = false;
    options.pending_budget = 24;
    Engine engine(*source, *policy, options);
    const Round end = engine.arrival_end();
    if (!interrupt) {
      engine.run_rounds(*source, end);
      return engine.finish();
    }
    engine.run_rounds(*source, 160);  // inside the spike
    std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
    engine.checkpoint(bytes, source.get());
    const auto s2 = make_source("flash-crowd", 9);
    std::unique_ptr<Policy> p2;
    EngineOptions o2 = stream_options("dlru-edf", true, p2);
    o2.num_resources = 4;
    o2.record_schedule = false;
    o2.pending_budget = 24;
    Engine resumed(*s2, *p2, o2);
    resumed.restore(bytes, s2.get());
    resumed.run_rounds(*s2, end);
    return resumed.finish();
  };
  const EngineResult straight = run(false);
  const EngineResult resumed = run(true);
  ASSERT_GT(straight.admission_rejected, 0);
  expect_identical(straight, resumed, "budgeted round trip");
}

// The same budgeted run through the driver: a checkpoint set written
// inside the spike resumes to the uninterrupted run's records, admission
// rejections included.
TEST(AdmissionControl, DriverBudgetResumesBitIdentical) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_driver_budget";
  std::filesystem::remove_all(dir);
  ShardedRunOptions options;
  options.pending_budget = 24;
  const auto run = [&](const ShardedRunOptions& o) {
    return run_streaming_sharded(*make_source("flash-crowd", 9), "dlru-edf",
                                 4, 1, kInfiniteHorizon, o);
  };
  const ShardedRunRecord reference = run(options);
  ASSERT_GT(reference.merged.admission_rejected, 0);

  ShardedRunOptions writing = options;
  writing.checkpoint_dir = dir.string();
  writing.checkpoint_every = 160;
  expect_identical(reference.merged, run(writing).merged, "checkpointed");
  // Keep only the set at round 160, inside the spike.
  for (const CheckpointFile& m : list_checkpoints(dir, ".manifest")) {
    if (m.round != 160) std::filesystem::remove(m.path);
  }

  ShardedRunOptions resuming = options;
  resuming.checkpoint_dir = dir.string();
  resuming.resume = true;
  const ShardedRunRecord resumed = run(resuming);
  EXPECT_EQ(resumed.recovered_from, 160);
  expect_identical(reference.merged, resumed.merged, "resumed");
  std::filesystem::remove_all(dir);
}

// --- format pin -----------------------------------------------------------

// tests/data/dense_mid_run.rrsckpt was written by checkpoint format 1.0
// with the per-job pending store: the dense benchmark's generator
// parameters (32 colors, delay bounds 4..64, Delta 8) at horizon 1024,
// dlru-edf on 8 resources, checkpointed after round 700 with the source
// embedded.  The pending section keeps its per-job layout whatever the
// store looks like in memory, so the same run must still write exactly
// these bytes, and the file must still resume bit-identically.
constexpr Round kPinnedRound = 700;
constexpr std::uint64_t kPinnedPayloadBytes = 7464;
constexpr std::uint32_t kPinnedPayloadCrc = 0xa6e80e09;

std::unique_ptr<GeneratorSource> dense_source() {
  RandomBatchedParams params;
  params.seed = 1;
  params.delta = 8;
  params.num_colors = 32;
  params.min_scale = 2;
  params.max_scale = 6;
  params.horizon = 1024;
  return std::make_unique<RandomBatchedSource>(params);
}

EngineOptions dense_options(std::unique_ptr<Policy>& policy) {
  EngineOptions options;
  policy = make_stream_policy("dlru-edf", options);
  options.num_resources = 8;
  options.record_schedule = false;
  options.drain_pending = true;
  return options;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(RRS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Little-endian unsigned field of `bytes` at `offset`.
std::uint64_t le_field(const std::string& bytes, std::size_t offset,
                       std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes[offset + i])}
         << (8 * i);
  }
  return v;
}

TEST(CheckpointFormat, DenseMidRunBytesArePinned) {
  const auto source = dense_source();
  std::unique_ptr<Policy> policy;
  const EngineOptions options = dense_options(policy);
  Engine engine(*source, *policy, options);
  engine.run_rounds(*source, kPinnedRound);
  std::ostringstream out(std::ios::binary);
  engine.checkpoint(out, source.get());
  const std::string bytes = out.str();
  // Header: magic[8] major u32 minor u32 length u64 crc u32.
  ASSERT_GE(bytes.size(), 28u);
  EXPECT_EQ(le_field(bytes, 8, 4), 1u) << "format change needs a new pin";
  EXPECT_EQ(le_field(bytes, 12, 4), 0u) << "format change needs a new pin";
  EXPECT_EQ(le_field(bytes, 16, 8), kPinnedPayloadBytes);
  EXPECT_EQ(le_field(bytes, 24, 4), kPinnedPayloadCrc);
  EXPECT_EQ(bytes, read_fixture("dense_mid_run.rrsckpt"));
}

TEST(CheckpointFormat, CommittedDenseCheckpointResumesBitIdentical) {
  const auto ref_source = dense_source();
  std::unique_ptr<Policy> ref_policy;
  const EngineOptions ref_options = dense_options(ref_policy);
  Engine ref_engine(*ref_source, *ref_policy, ref_options);
  ref_engine.run_rounds(*ref_source, ref_engine.arrival_end());
  const EngineResult reference = ref_engine.finish();

  std::istringstream in(read_fixture("dense_mid_run.rrsckpt"),
                        std::ios::binary);
  const auto source = dense_source();
  std::unique_ptr<Policy> policy;
  const EngineOptions options = dense_options(policy);
  Engine engine(*source, *policy, options);
  engine.restore(in, source.get());
  EXPECT_EQ(engine.round(), kPinnedRound);
  engine.run_rounds(*source, engine.arrival_end());
  const EngineResult resumed = engine.finish();
  expect_identical(reference, resumed, "committed dense checkpoint");
  EXPECT_GT(resumed.arrived, 0);
}

// The driver's serial checkpoint set holds one sidecar, and it is exactly
// the engine's own checkpoint: the committed fixture, byte for byte.
TEST(CheckpointFormat, DriverSidecarIsTheEngineCheckpoint) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_driver_k1";
  std::filesystem::remove_all(dir);
  ShardedRunOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = kPinnedRound;
  const ShardedRunRecord record = run_streaming_sharded(
      *dense_source(), "dlru-edf", 8, 1, kInfiniteHorizon, options);
  EXPECT_EQ(record.checkpoints_written, 1);
  EXPECT_TRUE(std::filesystem::exists(dir / "ckpt-700.manifest"));
  std::ifstream in(dir / "ckpt-700.shard0", std::ios::binary);
  const std::string sidecar{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  EXPECT_EQ(sidecar, read_fixture("dense_mid_run.rrsckpt"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rrs
