// Sparse-round fast-forward equivalence: a run with
// EngineOptions::fast_forward on must be bit-identical — costs, drops,
// recorded schedules, rounds, degraded accounting, policy stats, snapshot
// series — to the same run with it off, across every engine-driven
// algorithm, workload family, and seed, with and without fault plans,
// and through the sharded runner (± adaptive re-sharding).  The trickle
// family keeps jobs pending on ineligible colors, so most of its skipped
// spans are idle-pending ones; a counting policy wrapper shows that those
// spans are really jumped.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/fault_plan.h"
#include "core/instance.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "util/rng.h"
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
    "random-batched", "poisson", "flash-crowd", "datacenter", "trickle",
};

/// A trickle stream whose jobs wait on ineligible colors.  A color turns
/// eligible only once its weighted arrivals reach Delta = 24, and it sees
/// about one batch of 1..3 jobs per 120 rounds, so most jobs pend
/// uncached until they expire.  Lengths 1..3 exercise partial execution
/// once a color is cached.
const Instance& trickle_instance(std::uint64_t seed) {
  static std::map<std::uint64_t, Instance> built;
  const auto it = built.find(seed);
  if (it != built.end()) return it->second;
  constexpr Round kDelays[] = {32, 64, 128, 64, 32, 128};
  InstanceBuilder builder;
  builder.delta(24);
  for (int c = 0; c < 6; ++c) {
    builder.add_color(kDelays[c], /*drop_cost=*/1 + c % 2,
                      /*length=*/1 + c % 3);
  }
  Rng rng(seed);
  for (Round k = 0; k < 4096; ++k) {
    for (ColorId c = 0; c < 6; ++c) {
      if (rng.bernoulli(1.0 / 120)) builder.add_jobs(c, k, rng.uniform(1, 3));
    }
  }
  return built.emplace(seed, builder.build()).first->second;
}

/// Fresh streaming source for (family, seed).  Rates are kept low (sparse
/// streams) so the fast-forward path actually fires.
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
    params.horizon = 512;
    params.mean_rate = 0.002;  // sparse: most rounds carry nothing
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
  if (family == "trickle") {
    return std::make_unique<MaterializedSource>(trickle_instance(seed));
  }
  ADD_FAILURE() << "unknown family " << family;
  return nullptr;
}

/// Forwards every Policy hook to a wrapped policy, so the engine behaves
/// exactly as it would unwrapped, and counts on_round calls.  It also
/// notes each round whose decision saw pending jobs, and the round and
/// size of every drop the policy is shown.
class CountingPolicy final : public Policy {
 public:
  explicit CountingPolicy(std::unique_ptr<Policy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void begin(const ArrivalSource& source, int num_resources,
             int speed) override {
    inner_->begin(source, num_resources, speed);
  }
  void on_round(RoundContext& ctx) override {
    ++calls_;
    if (ctx.first_mini() && ctx.dropped().total > 0) {
      drops_.emplace_back(ctx.round(), ctx.dropped().total);
    }
    if (ctx.first_mini() && !ctx.final_sweep() && ctx.pending().total() > 0) {
      pending_rounds_.push_back(ctx.round());
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
  [[nodiscard]] bool export_color_state(ColorId color,
                                        PolicyColorState& out) const override {
    return inner_->export_color_state(color, out);
  }
  void import_color_state(ColorId color,
                          const PolicyColorState& state) override {
    inner_->import_color_state(color, state);
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> stats()
      const override {
    return inner_->stats();
  }
  void checkpoint_state(CheckpointWriter& w) const override {
    inner_->checkpoint_state(w);
  }
  void restore_state(CheckpointReader& r) override {
    inner_->restore_state(r);
  }

  [[nodiscard]] std::int64_t calls() const { return calls_; }
  [[nodiscard]] const std::vector<Round>& pending_rounds() const {
    return pending_rounds_;
  }
  [[nodiscard]] const std::vector<std::pair<Round, std::int64_t>>& drops()
      const {
    return drops_;
  }

 private:
  std::unique_ptr<Policy> inner_;
  std::int64_t calls_ = 0;
  std::vector<Round> pending_rounds_;
  std::vector<std::pair<Round, std::int64_t>> drops_;
};

/// What a cell layers on run_streaming's engine options.
struct Knobs {
  const FaultPlan* fault_plan = nullptr;
  Observer* observer = nullptr;
  std::int64_t pending_budget = 0;
};

/// One engine run with its schedule recorded and its policy counted.
struct EngineRun {
  EngineResult result;
  std::int64_t policy_calls = 0;
  std::vector<Round> pending_rounds;  ///< rounds whose decision saw jobs
  std::vector<std::pair<Round, std::int64_t>> drops;  ///< (round, jobs)
};

/// run_streaming's engine options for `algorithm` on 8 resources, with
/// the schedule recorded and `knobs` applied; `policy` receives the fresh
/// policy.
EngineOptions engine_options(const std::string& algorithm, bool fast_forward,
                             const Knobs& knobs,
                             std::unique_ptr<Policy>& policy) {
  EngineOptions options;
  policy = make_stream_policy(algorithm, options);
  options.num_resources = 8;
  options.record_schedule = true;
  options.drain_pending = true;
  options.fault_plan = knobs.fault_plan;
  options.charge_repair = true;
  options.observer = knobs.observer;
  options.pending_budget = knobs.pending_budget;
  options.fast_forward = fast_forward;
  return options;
}

EngineRun run_engine(const std::string& family, std::uint64_t seed,
                     const std::string& algorithm, bool fast_forward,
                     const Knobs& knobs = {}) {
  std::unique_ptr<Policy> inner;
  const EngineOptions options =
      engine_options(algorithm, fast_forward, knobs, inner);
  CountingPolicy policy(std::move(inner));
  const auto source = make_source(family, seed);
  EngineRun run;
  run.result = run_policy(*source, policy, options);
  run.policy_calls = policy.calls();
  run.pending_rounds = policy.pending_rounds();
  run.drops = policy.drops();
  return run;
}

/// The recorded schedule as text, one event per line, so two schedules
/// compare byte for byte and a mismatch prints as a line diff.
std::string schedule_text(const Schedule& schedule) {
  std::ostringstream out;
  out << "resources " << schedule.num_resources << " speed "
      << schedule.speed << '\n';
  for (const ReconfigEvent& e : schedule.reconfigs) {
    out << "reconfig " << e.round << ' ' << e.mini << ' ' << e.resource
        << ' ' << e.color << '\n';
  }
  for (const ExecEvent& e : schedule.execs) {
    out << "exec " << e.round << ' ' << e.mini << ' ' << e.resource << ' '
        << e.job << '\n';
  }
  return out.str();
}

void expect_identical(const EngineResult& on, const EngineResult& off,
                      const std::string& what) {
  EXPECT_EQ(on.cost, off.cost) << what;
  EXPECT_EQ(on.executed, off.executed) << what;
  EXPECT_EQ(on.work_units, off.work_units) << what;
  EXPECT_EQ(on.arrived, off.arrived) << what;
  EXPECT_EQ(on.rounds, off.rounds) << what;
  EXPECT_EQ(on.peak_pending, off.peak_pending) << what;
  EXPECT_EQ(on.admission_rejected, off.admission_rejected) << what;
  EXPECT_EQ(on.degraded, off.degraded) << what;
  EXPECT_EQ(schedule_text(on.schedule), schedule_text(off.schedule)) << what;
  EXPECT_EQ(on.policy_stats, off.policy_stats) << what;
}

/// Also pins when each job expired: a skip past a pending deadline would
/// drop the same jobs, at the same total cost, but rounds later.
void expect_identical(const EngineRun& on, const EngineRun& off,
                      const std::string& what) {
  expect_identical(on.result, off.result, what);
  EXPECT_EQ(on.drops, off.drops) << what;
}

void expect_identical(const StreamRunRecord& on, const StreamRunRecord& off,
                      const std::string& what) {
  EXPECT_EQ(on.cost, off.cost) << what;
  EXPECT_EQ(on.executed, off.executed) << what;
  EXPECT_EQ(on.work_units, off.work_units) << what;
  EXPECT_EQ(on.arrived, off.arrived) << what;
  EXPECT_EQ(on.rounds, off.rounds) << what;
  EXPECT_EQ(on.peak_pending, off.peak_pending) << what;
  EXPECT_EQ(on.degraded, off.degraded) << what;
  EXPECT_EQ(on.stats, off.stats) << what;
}

/// Rounds of a sequential (fast-forward off) run whose decision saw
/// pending jobs and which applied no work unit: the idle-pending rounds
/// that fast-forward now skips unless an event pins them.
std::set<Round> idle_pending_rounds(const EngineRun& off) {
  std::set<Round> worked;
  for (const ExecEvent& e : off.result.schedule.execs) worked.insert(e.round);
  std::set<Round> idle;
  for (const Round k : off.pending_rounds) {
    if (!worked.contains(k)) idle.insert(k);
  }
  return idle;
}

/// Middle round of the first stretch of `length` consecutive idle-pending
/// rounds starting at or after `from`; -1 when there is none.
Round idle_span_middle(const std::set<Round>& idle, Round length,
                       Round from = 0) {
  Round start = -1;
  Round prev = -2;
  for (auto it = idle.lower_bound(from); it != idle.end(); ++it) {
    if (*it != prev + 1) start = *it;
    prev = *it;
    if (prev - start + 1 == length) return start + length / 2;
  }
  return -1;
}

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

class FastForwardMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(FastForwardMatrix, BitIdenticalToSequentialRun) {
  const auto& [algorithm, family, seed] = GetParam();
  const EngineRun off = run_engine(family, seed, algorithm, false);
  const EngineRun on = run_engine(family, seed, algorithm, true);
  expect_identical(on, off, algorithm + "/" + family);
  EXPECT_LE(on.policy_calls, off.policy_calls);
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

INSTANTIATE_TEST_SUITE_P(Matrix, FastForwardMatrix,
                         ::testing::ValuesIn(all_cells()), cell_name);

TEST(FastForwardFaults, IdenticalUnderCapacityChurn) {
  MtbfParams mtbf;
  mtbf.num_resources = 8;
  mtbf.horizon = 512;
  mtbf.mean_up = 100;
  mtbf.mean_down = 20;
  mtbf.seed = 5;
  const FaultPlan plan = make_mtbf_plan(mtbf);
  Knobs knobs;
  knobs.fault_plan = &plan;

  for (const char* const algorithm : kStreamingAlgorithms) {
    const EngineRun off = run_engine("poisson", 7, algorithm, false, knobs);
    const EngineRun on = run_engine("poisson", 7, algorithm, true, knobs);
    expect_identical(on, off, std::string(algorithm) + " under faults");
    EXPECT_GT(on.result.degraded.fault_events, 0) << "plan must actually fire";
  }
}

TEST(FastForwardSnapshots, SnapshotSeriesIsByteIdentical) {
  const auto run = [](bool fast_forward, std::string* json_out) {
    ObsConfig config;
    config.snapshot_every = 64;
    Observer observer(config);
    std::ostringstream sink;
    observer.snapshot_out = &sink;
    const auto source = make_source("poisson", 9);
    const StreamRunRecord record =
        run_streaming(*source, "dlru-edf", 8, kInfiniteHorizon, nullptr,
                      false, &observer, fast_forward);
    *json_out = sink.str();
    return record;
  };

  std::string on_json;
  std::string off_json;
  const StreamRunRecord on = run(true, &on_json);
  const StreamRunRecord off = run(false, &off_json);
  expect_identical(on, off, "observed run");
  EXPECT_FALSE(on_json.empty());
  // Snapshots fire at the same rounds with the same cumulative counters:
  // the JSON-lines series must match byte for byte.
  EXPECT_EQ(on_json, off_json);
}

TEST(FastForwardSharded, IdenticalAcrossShards) {
  for (const std::string family : {"poisson", "trickle"}) {
    for (const Round reshard_every : {Round{0}, Round{128}}) {
      ShardedRunOptions on_options;
      on_options.reshard_every = reshard_every;
      on_options.fast_forward = true;
      ShardedRunOptions off_options = on_options;
      off_options.fast_forward = false;

      const auto on_source = make_source(family, 11);
      const ShardedRunRecord on = run_streaming_sharded(
          *on_source, "dlru-edf", 16, 2, kInfiniteHorizon, on_options);
      const auto off_source = make_source(family, 11);
      const ShardedRunRecord off = run_streaming_sharded(
          *off_source, "dlru-edf", 16, 2, kInfiniteHorizon, off_options);

      const std::string what =
          family + " reshard_every=" + std::to_string(reshard_every);
      expect_identical(on.merged, off.merged, what);
      ASSERT_EQ(on.shards.size(), off.shards.size());
      for (std::size_t s = 0; s < on.shards.size(); ++s) {
        expect_identical(on.shards[s], off.shards[s],
                         what + " shard " + std::to_string(s));
      }
      EXPECT_EQ(on.reshard_rounds, off.reshard_rounds) << what;
      EXPECT_EQ(on.reshard_moved_colors, off.reshard_moved_colors) << what;
    }
  }
}

// --- idle-pending spans ----------------------------------------------------
//
// Each cell below places an event inside a stretch of rounds that the
// sequential trickle run spends with jobs pending and no work applied, so
// the fast-forwarded run must stop for the event in the middle of a span
// it would otherwise jump.

/// The ranked algorithms at both speeds (ds-seq-edf runs two mini-rounds).
const char* const kSpanAlgorithms[] = {"dlru-edf", "edf", "ds-seq-edf"};

TEST(FastForwardIdleSpans, CrossesFaultEvents) {
  for (const char* const algorithm : kSpanAlgorithms) {
    const std::set<Round> idle =
        idle_pending_rounds(run_engine("trickle", 1, algorithm, false));
    const Round mid = idle_span_middle(idle, 16);
    ASSERT_GE(mid, 0) << algorithm << ": no idle-pending span";
    FaultPlan plan;
    plan.events.push_back({mid - 2, 0, true});
    plan.events.push_back({mid, 5, true});
    plan.events.push_back({mid + 1, 0, false});
    plan.events.push_back({mid + 3, 5, false});
    Knobs knobs;
    knobs.fault_plan = &plan;
    const EngineRun off = run_engine("trickle", 1, algorithm, false, knobs);
    const EngineRun on = run_engine("trickle", 1, algorithm, true, knobs);
    expect_identical(on, off, std::string(algorithm) + " faults in a span");
    EXPECT_EQ(on.result.degraded.fault_events, 2) << algorithm;
    EXPECT_EQ(on.result.degraded.repair_events, 2) << algorithm;
    EXPECT_LT(on.policy_calls, off.policy_calls) << algorithm;
  }
}

TEST(FastForwardIdleSpans, CrossesSnapshotRounds) {
  for (const char* const algorithm : kSpanAlgorithms) {
    const std::set<Round> idle =
        idle_pending_rounds(run_engine("trickle", 2, algorithm, false));
    const Round mid = idle_span_middle(idle, 16);
    ASSERT_GE(mid, 0) << algorithm << ": no idle-pending span";
    const auto run = [&](bool fast_forward, std::string* json_out) {
      ObsConfig config;
      config.snapshot_every = mid + 1;  // the first snapshot is round mid
      Observer observer(config);
      std::ostringstream sink;
      observer.snapshot_out = &sink;
      Knobs knobs;
      knobs.observer = &observer;
      EngineRun result =
          run_engine("trickle", 2, algorithm, fast_forward, knobs);
      *json_out = sink.str();
      return result;
    };
    std::string on_json;
    std::string off_json;
    const EngineRun on = run(true, &on_json);
    const EngineRun off = run(false, &off_json);
    expect_identical(on, off, std::string(algorithm) + " snapshot in a span");
    EXPECT_FALSE(on_json.empty());
    EXPECT_EQ(on_json, off_json) << algorithm;
    EXPECT_LT(on.policy_calls, off.policy_calls) << algorithm;
  }
}

TEST(FastForwardIdleSpans, CrossesAdmissionBudget) {
  // A budget of 3 sheds whenever waiting jobs pile up, so spans start
  // and end at rounds where admission control acted.
  Knobs knobs;
  knobs.pending_budget = 3;
  for (const char* const algorithm : kSpanAlgorithms) {
    const EngineRun off = run_engine("trickle", 3, algorithm, false, knobs);
    const EngineRun on = run_engine("trickle", 3, algorithm, true, knobs);
    expect_identical(on, off,
                     std::string(algorithm) + " under a pending budget");
    EXPECT_GT(on.result.admission_rejected, 0) << algorithm;
    EXPECT_GE(idle_span_middle(idle_pending_rounds(off), 16), 0)
        << algorithm << ": no idle-pending span";
    EXPECT_LT(on.policy_calls * 4, off.policy_calls) << algorithm;
  }
}

TEST(FastForwardIdleSpans, MidSpanCheckpointResumes) {
  // Checkpoint in the middle of an idle-pending span, then resume from it
  // on a fresh engine, source and policy.  The "no work last round" flag
  // is not checkpointed, and a skip never starts a run_rounds() segment,
  // so both the resumed run and the run that wrote the checkpoint execute
  // the cut round: a later checkpoint is byte-identical between them, and
  // both finish bit-identical to the sequential run.
  for (const char* const algorithm : kSpanAlgorithms) {
    const std::string what = std::string(algorithm) + " mid-span resume";
    const EngineRun off = run_engine("trickle", 1, algorithm, false);
    const std::set<Round> idle = idle_pending_rounds(off);
    const Round cut = idle_span_middle(idle, 16);
    ASSERT_GE(cut, 0) << algorithm << ": no idle-pending span";
    const Round later = idle_span_middle(idle, 16, cut + 64);
    ASSERT_GT(later, cut) << algorithm << ": no second idle-pending span";

    const auto checkpoint = [](const Engine& engine,
                               const ArrivalSource& source) {
      std::ostringstream out(std::ios::binary);
      engine.checkpoint(out, &source);
      return out.str();
    };

    std::unique_ptr<Policy> writer_policy;
    const EngineOptions options =
        engine_options(algorithm, true, {}, writer_policy);
    const auto writer_source = make_source("trickle", 1);
    Engine writer(*writer_source, *writer_policy, options);
    writer.run_rounds(*writer_source, cut);
    const std::string at_cut = checkpoint(writer, *writer_source);
    writer.run_rounds(*writer_source, later);
    const std::string writer_later = checkpoint(writer, *writer_source);
    writer.run_rounds(*writer_source, writer.arrival_end());
    const EngineResult written = writer.finish();

    std::unique_ptr<Policy> resumed_policy;
    const EngineOptions resumed_options =
        engine_options(algorithm, true, {}, resumed_policy);
    const auto resumed_source = make_source("trickle", 1);
    Engine resumed(*resumed_source, *resumed_policy, resumed_options);
    std::istringstream in(at_cut, std::ios::binary);
    resumed.restore(in, resumed_source.get());
    ASSERT_EQ(resumed.round(), cut) << what;
    resumed.run_rounds(*resumed_source, later);
    EXPECT_EQ(checkpoint(resumed, *resumed_source), writer_later) << what;
    resumed.run_rounds(*resumed_source, resumed.arrival_end());
    const EngineResult finished = resumed.finish();

    expect_identical(written, off.result, what + " (writer)");
    expect_identical(finished, off.result, what + " (resumed)");
  }
}

TEST(FastForwardSkips, IdlePendingSpansAreJumped) {
  // On the trickle stream many rounds hold jobs that no policy may serve
  // yet.  The sequential run calls on_round for every one of them; the
  // fast-forwarded run stops only at events.
  for (const char* const algorithm : kStreamingAlgorithms) {
    const EngineRun off = run_engine("trickle", 1, algorithm, false);
    const EngineRun on = run_engine("trickle", 1, algorithm, true);
    expect_identical(on, off, algorithm);
    // Skipping only empty-pending spans would run every round that holds
    // jobs; most of those are jumped too.
    EXPECT_LT(on.pending_rounds.size() * 2, off.pending_rounds.size())
        << algorithm;
    EXPECT_LT(on.policy_calls * 4, off.policy_calls)
        << algorithm << ": " << on.policy_calls << " calls with "
        << "fast-forward vs " << off.policy_calls << " without";
  }
}

TEST(FastForwardSkips, LongGapIsActuallyJumped) {
  // A two-burst instance with a 100k-round gap: the run must stay exact,
  // finish the full horizon (rounds includes the skipped span), and call
  // the policy only at the gap's deadline-block boundaries.
  InstanceBuilder builder;
  const ColorId c = builder.add_color(/*d=*/8);
  builder.add_jobs(c, 0, 4);
  builder.add_jobs(c, 100000, 4);
  const Instance instance = builder.build();

  const auto run = [&](bool fast_forward) {
    EngineOptions options;
    CountingPolicy policy(make_stream_policy("edf", options));
    options.num_resources = 4;
    options.drain_pending = true;
    options.fast_forward = fast_forward;
    MaterializedSource source(instance);
    EngineRun out;
    out.result = run_policy(source, policy, options);
    out.policy_calls = policy.calls();
    out.drops = policy.drops();
    return out;
  };
  const EngineRun on = run(true);
  const EngineRun off = run(false);

  expect_identical(on, off, "two-burst gap");
  EXPECT_EQ(on.result.arrived, 8);
  EXPECT_GT(on.result.rounds, 100000);
  // Sequential: one call per round plus the final sweep.  Fast-forward:
  // one per block boundary of D = 8, plus the burst rounds.
  EXPECT_EQ(off.policy_calls, off.result.rounds + 1);
  EXPECT_LE(on.policy_calls, on.result.rounds / 8 + 16);
  EXPECT_LT(on.policy_calls * 4, off.policy_calls);
}

/// A source with no optional capabilities: no fast-forward hint, no
/// per-color views, no checkpointing.  Counts its pulls.
class OpaqueSource final : public ArrivalSource {
 public:
  explicit OpaqueSource(const Instance& instance) : inner_(instance) {}
  [[nodiscard]] Cost delta() const override { return inner_.delta(); }
  [[nodiscard]] ColorId num_colors() const override {
    return inner_.num_colors();
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return inner_.delay_bound(color);
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return inner_.drop_cost(color);
  }
  [[nodiscard]] Round horizon() const override { return inner_.horizon(); }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    ++pulls_;
    return inner_.arrivals_in_round(k);
  }
  [[nodiscard]] std::int64_t pulls() const { return pulls_; }

 private:
  MaterializedSource inner_;
  std::int64_t pulls_ = 0;
};

TEST(FastForwardContract, DefaultSourceHintNeverSkips) {
  // The base-class next_event_round returns k: an unaudited source is
  // never skipped past, so fast-forward on it degrades to the plain loop.
  InstanceBuilder builder;
  const ColorId c = builder.add_color(/*d=*/4);
  builder.add_jobs(c, 0, 2);
  builder.add_jobs(c, 500, 2);
  const Instance instance = builder.build();

  OpaqueSource opaque(instance);
  const StreamRunRecord through = run_streaming(opaque, "edf", 4);
  MaterializedSource plain(instance);
  const StreamRunRecord reference = run_streaming(plain, "edf", 4);
  expect_identical(through, reference, "opaque source");
  // Every arrival-range round was pulled individually.
  EXPECT_GE(opaque.pulls(), 500);
}

TEST(OpaqueSourceSharding, RejectedAcrossShardsRunsAsOneShard) {
  // A source without per-color views cannot be split: K = 2 is an
  // InputError naming the source, while K = 1 runs it directly,
  // bit-identical to run_streaming.
  InstanceBuilder builder;
  const ColorId a = builder.add_color(/*d=*/4);
  const ColorId b = builder.add_color(/*d=*/8);
  for (Round k = 0; k < 64; k += 4) {
    builder.add_jobs(a, k, 3);
    builder.add_jobs(b, k + 1, 2);
  }
  const Instance instance = builder.build();

  OpaqueSource split(instance);
  try {
    (void)run_streaming_sharded(split, "dlru-edf", 8, 2);
    ADD_FAILURE() << "K = 2 over a view-less source must throw";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find(split.summary()), std::string::npos)
        << e.what();
  }

  OpaqueSource whole(instance);
  const ShardedRunRecord sharded =
      run_streaming_sharded(whole, "dlru-edf", 8, 1);
  OpaqueSource serial(instance);
  const StreamRunRecord reference = run_streaming(serial, "dlru-edf", 8);
  expect_identical(sharded.merged, reference, "opaque source, K = 1");
  ASSERT_EQ(sharded.shards.size(), 1u);
  expect_identical(sharded.shards[0], reference, "opaque shard 0");
  EXPECT_GT(reference.arrived, 0);
}

}  // namespace
}  // namespace rrs
