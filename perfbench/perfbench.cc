// perfbench: the repository's benchmark program.
//
// Runs one named workload for one seed through the library's public API,
// measures it for a fixed number of seconds, checks every simulated output,
// and prints one JSON result line (the last line of stdout).  With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it records
// spans at the layer boundaries and reports the per-layer metrics.
// README.md in this directory explains the workloads, metrics and layers.
//
//   perfbench --workload <dense|sparse|datacenter-sharded|certify>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-out <file>]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/validator.h"
#include "obs/observer.h"
#include "offline/exact_bnb.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/runner.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/datacenter.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace {

using namespace rrs;

/// Seed whose simulated totals are pinned below.
constexpr std::uint64_t kReferenceSeed = 1;
/// Every streaming workload runs the paper's Delta-LRU-EDF.
const std::string kAlgorithm = "dlru-edf";
/// Passes measured even when --seconds runs out sooner.
constexpr int kMinPasses = 3;
/// Times each pass builds its inputs; every build is one setup_s sample.
constexpr int kSetupRepeats = 8;

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// ---------------------------------------------------------------------------
// Host speed.  On a shared host, other tenants slow every pass by up to
// about 1.8x, drifting over tens of seconds, so raw pass times of the same
// work spread far wider than any useful bound.  A fixed reference kernel is
// timed before and after every timed pass, and the pass's seconds are
// scaled by kReferenceNominal over the mean of those two reference times:
// timed metrics are in seconds of a host that runs the reference in
// kReferenceNominal.  The kernel depends on nothing in the library, so no
// library change moves it.

constexpr std::int64_t kReferenceRounds = 16000;
constexpr double kReferenceNominal = 0.0125;  // seconds, quiet 2.1 GHz Xeon

/// Keeps the reference kernel's result observable.
volatile std::uint64_t reference_sink = 0;

/// A fixed event-queue simulation: each round, arrivals enter a deadline
/// heap, expired entries leave, a few are served, and every 16th round a
/// small array is sorted.  The same mix of heap, branch and small-array
/// work as a dense engine round.
std::uint64_t reference_kernel() {
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>>
      heap;
  std::array<std::int64_t, 64> counts{};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sum = 0;
  for (std::int64_t round = 0; round < kReferenceRounds; ++round) {
    const auto arrivals = static_cast<int>(next() % 24);
    for (int a = 0; a < arrivals; ++a) {
      const std::uint64_t r = next();
      heap.push(round + 4 + static_cast<std::int64_t>(r % 60));
      ++counts[r & 63];
    }
    while (!heap.empty() && heap.top() <= round) {
      heap.pop();
      ++sum;
    }
    for (int served = 0; served < 8 && !heap.empty(); ++served) {
      sum += static_cast<std::uint64_t>(heap.top());
      heap.pop();
    }
    if (round % 16 == 0) {
      std::sort(counts.begin(), counts.end());
      sum += static_cast<std::uint64_t>(counts[32]);
    }
  }
  return sum;
}

double reference_seconds() {
  const Stopwatch watch;
  reference_sink = reference_kernel();
  return watch.seconds();
}

/// Times the reference kernel between consecutive timed passes.
class HostSpeed {
 public:
  HostSpeed() : before_(reference_seconds()) {}

  /// Scale for the pass that just ended: kReferenceNominal over the mean
  /// of the reference times before and after it (below 1 on a slowed
  /// host).  Multiply the pass's seconds by it.
  double pass_scale() {
    const double after = reference_seconds();
    const double scale = kReferenceNominal / (0.5 * (before_ + after));
    before_ = after;
    return scale;
  }

  /// The most recent reference time.
  [[nodiscard]] double last_reference() const { return before_; }

 private:
  double before_;
};

/// "n samples: min / q1 / median / q3 / max" for the summary line.
std::string distribution(const std::vector<double>& values) {
  std::ostringstream os;
  os << values.size() << " samples: " << quantile(values, 0.0) << " / "
     << quantile(values, 0.25) << " / " << median(values) << " / "
     << quantile(values, 0.75) << " / " << quantile(values, 1.0);
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Derives an independent sub-seed (SplitMix64 finalizer over the inputs).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) +
                    0xbf58476d1ce4e5b9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Output checks and failure accounting.

/// The checks of one pass; any failed expectation fails the pass.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Attempted and failed passes of one run, with the first few reasons.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> reasons;

  /// Runs one pass; a failed check or an exception fails it.
  void run(const std::function<void(Checks&)>& pass) {
    ++attempted;
    Checks checks;
    try {
      pass(checks);
    } catch (const std::exception& e) {
      checks.expect(false, std::string("exception: ") + e.what());
    }
    if (!checks.ok()) {
      ++failed;
      for (const std::string& why : checks.failures()) {
        if (reasons.size() < 8) reasons.push_back(why);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Spans.  Every traced call into a layer is either its own span or folded
// into an aggregate span (calls, summed seconds) under the enclosing
// run_rounds segment, so the log stays bounded over millions of rounds.
// A span's self time is its duration minus the durations of its children.

struct Span {
  std::string name;  ///< "<layer>.<call>"
  int parent = -1;
  double start = 0.0;    ///< seconds since the log's origin
  double seconds = 0.0;  ///< duration (summed over calls for aggregates)
  std::int64_t calls = 1;
};

class SpanLog {
 public:

  int open(const std::string& name, int parent) {
    spans_.push_back({name, parent, clock_.seconds(), 0.0, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.seconds = clock_.seconds() - span.start;
  }
  void aggregate(const std::string& name, int parent, std::int64_t calls,
                 double seconds) {
    if (calls == 0) return;
    const double start = spans_[static_cast<std::size_t>(parent)].start;
    spans_.push_back({name, parent, start, seconds, calls});
  }

  /// Self seconds per span name, summed over all spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    const std::vector<double> self = self_by_span();
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  /// Summed duration of the root spans.
  [[nodiscard]] double root_seconds() const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.parent < 0) total += span.seconds;
    }
    return total;
  }

  /// Smallest self time of any span (negative means children overlap).
  [[nodiscard]] double min_self() const {
    const std::vector<double> self = self_by_span();
    return self.empty() ? 0.0 : *std::min_element(self.begin(), self.end());
  }

  void write(std::ostream& out) const {
    out << std::setprecision(9);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_s\": " << s.start
          << ", \"seconds\": " << s.seconds << ", \"calls\": " << s.calls
          << "}\n";
    }
  }

 private:
  /// Each span's duration minus the durations of its children.
  [[nodiscard]] std::vector<double> self_by_span() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].seconds;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds;
      }
    }
    return self;
  }

  Stopwatch clock_;  ///< span times are offsets from the log's creation
  std::vector<Span> spans_;
};

/// Opens a span for its lifetime; does nothing when the log is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent)
      : log_(log), id_(log != nullptr ? log->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Writes the span log as JSON lines (nothing when `path` is empty).
void write_spans(const SpanLog& log, const std::string& path) {
  if (path.empty()) return;
  std::ofstream file(path);
  log.write(file);
  file.flush();
  if (!file) {
    std::cerr << "perfbench: could not write spans to " << path << "\n";
  }
}

/// Checks that the layer self times tile the traced wall time: no span's
/// children outlast it, and the self times sum back to the roots.
void check_tiling(const SpanLog& log, Checks& checks) {
  double total_self = 0.0;
  for (const auto& [name, seconds] : log.self_seconds()) total_self += seconds;
  const double wall = log.root_seconds();
  checks.expect(log.min_self() >= -1e-6,
                "a span's children outlast it (self time < 0)");
  checks.expect(std::abs(total_self - wall) <= 1e-9 * std::max(1.0, wall),
                "layer self times do not sum to the traced wall time");
}

// ---------------------------------------------------------------------------
// Forwarding wrappers: time every call into the workload and policy layers.
// They forward every virtual (next_event_round, supports_fast_forward and
// next_policy_event included) so the engine behaves exactly as unwrapped.

struct CallTally {
  std::int64_t calls = 0;
  double seconds = 0.0;
};

class TimedSource final : public ArrivalSource {
 public:
  explicit TimedSource(ArrivalSource& inner) : inner_(&inner) {}

  [[nodiscard]] Cost delta() const override { return inner_->delta(); }
  [[nodiscard]] ColorId num_colors() const override {
    return inner_->num_colors();
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return inner_->delay_bound(color);
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return inner_->drop_cost(color);
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return inner_->length(color);
  }
  [[nodiscard]] const CostModel& cost_model() const override {
    return inner_->cost_model();
  }
  [[nodiscard]] const std::map<Round, std::vector<ColorId>>& colors_by_delay()
      const override {
    return inner_->colors_by_delay();
  }
  [[nodiscard]] Round horizon() const override { return inner_->horizon(); }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    const Stopwatch watch;
    const std::span<const Job> jobs = inner_->arrivals_in_round(k);
    pulls.seconds += watch.seconds();
    ++pulls.calls;
    jobs_pulled += static_cast<std::int64_t>(jobs.size());
    return jobs;
  }
  [[nodiscard]] Round next_event_round(Round k, Round limit) override {
    const Stopwatch watch;
    const Round next = inner_->next_event_round(k, limit);
    scans.seconds += watch.seconds();
    ++scans.calls;
    return next;
  }
  [[nodiscard]] const Instance* materialized() const override {
    return inner_->materialized();
  }
  [[nodiscard]] std::string summary() const override {
    return inner_->summary();
  }
  void checkpoint(CheckpointWriter& w) const override { inner_->checkpoint(w); }
  void restore(CheckpointReader& r) override { inner_->restore(r); }

  CallTally pulls;  ///< arrivals_in_round (reset per segment)
  CallTally scans;  ///< next_event_round (reset per segment)
  std::int64_t jobs_pulled = 0;

 private:
  ArrivalSource* inner_;
};

class TimedPolicy final : public Policy {
 public:
  explicit TimedPolicy(Policy& inner) : inner_(&inner) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void begin(const ArrivalSource& source, int num_resources,
             int speed) override {
    inner_->begin(source, num_resources, speed);
  }
  void on_round(RoundContext& ctx) override {
    const Stopwatch watch;
    inner_->on_round(ctx);
    calls.seconds += watch.seconds();
    ++calls.calls;
    if (ctx.final_sweep()) {
      ++final_sweeps;
    } else if (ctx.first_mini()) {
      // Rounds between consecutive calls were fast-forwarded.
      if (ctx.round() < next_round) ++out_of_order;
      skipped += std::max<Round>(0, ctx.round() - next_round);
      next_round = ctx.round() + 1;
      ++rounds_called;
      if (ctx.round() < arrival_end) ++arrival_rounds_called;
    }
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
  void restore_state(CheckpointReader& r) override { inner_->restore_state(r); }

  CallTally calls;  ///< every on_round (reset per segment)
  std::int64_t final_sweeps = 0;
  std::int64_t rounds_called = 0;  ///< rounds the policy saw (mini 0)
  Round arrival_end = 0;           ///< set by the caller
  std::int64_t arrival_rounds_called = 0;  ///< of those, before arrival_end
  Round skipped = 0;               ///< rounds between calls
  Round next_round = 0;
  std::int64_t out_of_order = 0;

 private:
  Policy* inner_;
};

// ---------------------------------------------------------------------------
// Streaming workloads.

/// The simulated totals a streaming pass must reproduce exactly.
struct Totals {
  Cost reconfig_events = 0;
  Cost reconfig_cost = 0;
  Cost drops = 0;
  Cost churn_reconfigs = 0;
  std::int64_t arrived = 0;
  std::int64_t executed = 0;
  Round rounds = 0;

  friend bool operator==(const Totals&, const Totals&) = default;
};

Totals totals_of(const CostBreakdown& cost, std::int64_t arrived,
                 std::int64_t executed, Round rounds) {
  return {cost.reconfig_events, cost.reconfig_cost, cost.drops,
          cost.churn_reconfigs, arrived, executed, rounds};
}
Totals totals_of(const StreamRunRecord& r) {
  return totals_of(r.cost, r.arrived, r.executed, r.rounds);
}
Totals totals_of(const EngineResult& r) {
  return totals_of(r.cost, r.arrived, r.executed, r.rounds);
}

std::string describe(const Totals& t) {
  std::ostringstream os;
  os << "{reconfig_events " << t.reconfig_events << ", reconfig_cost "
     << t.reconfig_cost << ", drops " << t.drops << ", churn_reconfigs "
     << t.churn_reconfigs << ", arrived " << t.arrived << ", executed "
     << t.executed << ", rounds " << t.rounds << "}";
  return os.str();
}

struct StreamingSpec {
  std::string name;
  Round pass_rounds = 0;  ///< arrival rounds per pass (the pass then drains)
  int n = 0;              ///< resources
  int shards = 1;         ///< 1 = serial run_streaming
  std::function<std::unique_ptr<ArrivalSource>(std::uint64_t)> make_source;
  Totals reference;  ///< totals at kReferenceSeed (pinned)
};

std::vector<StreamingSpec> streaming_specs() {
  std::vector<StreamingSpec> specs;
  // Pending work every round: pending store, rank index, cache commit and
  // synthesis do the work; fast-forward never fires.
  specs.push_back(
      {"dense", Round{1} << 16, 8, 1,
       [](std::uint64_t seed) -> std::unique_ptr<ArrivalSource> {
         RandomBatchedParams p;
         p.seed = seed;
         p.delta = 8;
         p.num_colors = 32;
         p.min_scale = 2;  // delay bounds 4 .. 64
         p.max_scale = 6;
         p.horizon = kInfiniteHorizon;
         return std::make_unique<RandomBatchedSource>(p);
       },
       // Totals at kReferenceSeed.
       {119496, 955968, 497391, 0, 813960, 316569, 65536}});
  // About one arrival per 250 rounds: time goes into the engine's skip
  // logic and the source's next_event_round scan.
  specs.push_back(
      {"sparse", Round{1} << 20, 8, 1,
       [](std::uint64_t seed) -> std::unique_ptr<ArrivalSource> {
         PoissonParams p;
         p.seed = seed;
         p.num_colors = 8;
         p.min_delay = 64;
         p.max_delay = 128;
         p.mean_rate = 0.0005;
         p.horizon = kInfiniteHorizon;
         return std::make_unique<PoissonSource>(p);
       },
       {534, 4272, 1856, 0, 4219, 2363, 1048576}});
  // The only workload through the sharded runner: 32 services with
  // hot/cold phases and weighted drops, K = 4 shards on the shared pool.
  specs.push_back(
      {"datacenter-sharded", Round{1} << 16, 16, 4,
       [](std::uint64_t seed) -> std::unique_ptr<ArrivalSource> {
         DatacenterParams p;
         p.seed = seed;
         const std::vector<ServiceSpec> mix = default_service_mix();
         for (int copy = 0; copy < 4; ++copy) {
           p.services.insert(p.services.end(), mix.begin(), mix.end());
         }
         p.horizon = kInfiniteHorizon;
         return std::make_unique<DatacenterSource>(p);
       },
       {264034, 8449088, 247607, 0, 700587, 613904, 67578}});
  return specs;
}

/// One pass through the public runner: its totals and timings.
struct StreamingCall {
  Totals totals;
  double wall = 0.0;        ///< seconds around the public call
  double engine_max = 0.0;  ///< slowest engine's own seconds
  double engine_sum = 0.0;  ///< engine seconds summed over shards
  int engines = 1;
  Round engine_rounds = 0;  ///< rounds summed over engines
  std::int64_t peak_pending = 0;
};

/// Runs one pass through the public runner and checks what needs no
/// pinned value: sharded totals equal the sum of the shards.
StreamingCall call_runner(const StreamingSpec& spec, ArrivalSource& source,
                          Observer* observer,
                          const std::vector<Observer*>& shard_observers,
                          Checks& checks) {
  StreamingCall call;
  if (spec.shards == 1) {
    const Stopwatch watch;
    const StreamRunRecord r =
        run_streaming(source, kAlgorithm, spec.n, spec.pass_rounds, nullptr,
                      false, observer);
    call.wall = watch.seconds();
    call.engine_max = call.engine_sum = r.seconds;
    call.totals = totals_of(r);
    call.engine_rounds = r.rounds;
    call.peak_pending = r.peak_pending;
    return call;
  }
  ShardedRunOptions options;
  options.observer = observer;
  options.shard_observers = shard_observers;
  const Stopwatch watch;
  const ShardedRunRecord r = run_streaming_sharded(
      source, kAlgorithm, spec.n, spec.shards, spec.pass_rounds, options);
  call.wall = watch.seconds();
  call.totals = totals_of(r.merged);
  call.peak_pending = r.merged.peak_pending;
  Totals sum;
  for (const StreamRunRecord& shard : r.shards) {
    call.engine_sum += shard.seconds;
    call.engine_max = std::max(call.engine_max, shard.seconds);
    call.engine_rounds += shard.rounds;
    const Totals t = totals_of(shard);
    sum.reconfig_events += t.reconfig_events;
    sum.reconfig_cost += t.reconfig_cost;
    sum.drops += t.drops;
    sum.churn_reconfigs += t.churn_reconfigs;
    sum.arrived += t.arrived;
    sum.executed += t.executed;
    sum.rounds = std::max(sum.rounds, t.rounds);
  }
  call.engines = static_cast<int>(r.shards.size());
  checks.expect(call.engines == spec.shards,
                "sharded run returned the wrong number of shards");
  checks.expect(sum == call.totals,
                "merged sharded totals " + describe(call.totals) +
                    " differ from the sum of the shards " + describe(sum));
  return call;
}

/// The first pass of a run: untimed, with an Observer attached, so the
/// seed-independent invariants can use its exact counters.  Returns the
/// totals every later pass must reproduce.
Totals verification_pass(const StreamingSpec& spec, std::uint64_t seed,
                         Checks& checks) {
  const std::unique_ptr<ArrivalSource> source = spec.make_source(seed);
  Observer observer;
  const StreamingCall call = call_runner(spec, *source, &observer, {}, checks);
  const Totals& t = call.totals;
  const StreamStats& stats = observer.stats;
  checks.expect(t.rounds >= spec.pass_rounds, "pass ended before its rounds");
  checks.expect(stats.arrived() == t.arrived && stats.executed() == t.executed,
                "observer counts disagree with the run record");
  checks.expect(t.arrived == t.executed + stats.drop_count(),
                "after drain, arrived != executed + dropped");
  checks.expect(stats.drop_weight() == t.drops,
                "weighted drop count disagrees with the cost");
  checks.expect(t.churn_reconfigs == 0, "churn without a fault plan");
  if (seed == kReferenceSeed) {
    checks.expect(t == spec.reference,
                  spec.name + " totals " + describe(t) +
                      " differ from the reference " + describe(spec.reference));
  }
  return t;
}

/// Layer timings and counts of traced passes, summed.
struct StreamingTrace {
  int passes = 0;
  double wall = 0.0;
  std::int64_t jobs_pulled = 0;
  std::int64_t policy_calls = 0;
  std::int64_t rounds = 0;  ///< summed over engines
  std::int64_t peak_pending = 0;
  double phase[PhaseTimers::kNumPhases] = {};
};

/// Segment length of traced serial passes (one span per segment).
constexpr Round kSegmentRounds = Round{1} << 16;

/// A traced serial pass: the engine is driven segment by segment with the
/// timing wrappers around its source and policy, exactly as run_streaming
/// would drive it, plus an Observer with phase timers.
void traced_serial_pass(const StreamingSpec& spec, std::uint64_t seed,
                        const Totals& expected, SpanLog& log,
                        StreamingTrace& trace, Checks& checks) {
  const std::unique_ptr<ArrivalSource> inner = spec.make_source(seed);
  EngineOptions options;
  options.num_resources = spec.n;
  options.record_schedule = false;
  options.max_rounds = spec.pass_rounds;
  options.drain_pending = true;
  ObsConfig obs_config;
  obs_config.trace = false;
  obs_config.timers = true;
  Observer observer(obs_config);
  options.observer = &observer;
  const std::unique_ptr<Policy> policy =
      make_stream_policy(kAlgorithm, options);
  TimedSource source(*inner);
  TimedPolicy timed_policy(*policy);

  std::int64_t pulls = 0;
  int pass = -1;
  const auto engine_call = [&](const char* name,
                               const std::function<void()>& body) {
    source.pulls = {};
    source.scans = {};
    timed_policy.calls = {};
    int id = -1;
    {
      const ScopedSpan span(&log, name, pass);
      id = span.id();
      body();
    }
    log.aggregate("workload.arrivals_in_round", id, source.pulls.calls,
                  source.pulls.seconds);
    log.aggregate("workload.next_event_round", id, source.scans.calls,
                  source.scans.seconds);
    log.aggregate("algs.on_round", id, timed_policy.calls.calls,
                  timed_policy.calls.seconds);
    pulls += source.pulls.calls;
  };
  EngineResult result;
  {
    const ScopedSpan span(&log, "bench.pass", -1);
    pass = span.id();
    std::unique_ptr<Engine> engine;
    engine_call("core.engine_init", [&] {
      engine = std::make_unique<Engine>(source, timed_policy, options);
    });
    timed_policy.arrival_end = engine->arrival_end();
    for (Round k = engine->round(); k < engine->arrival_end();) {
      const Round until = std::min(engine->arrival_end(), k + kSegmentRounds);
      engine_call("core.run_rounds",
                  [&] { engine->run_rounds(source, until); });
      k = until;
    }
    engine_call("core.finish", [&] { result = engine->finish(); });
  }

  const Totals t = totals_of(result);
  checks.expect(t == expected, "traced pass totals " + describe(t) +
                                   " differ from untraced " +
                                   describe(expected));
  // Counts reconcile exactly: every round is either a policy call or
  // skipped; every executed arrival round pulled once; jobs pulled are
  // the engine's arrivals; the observer's policy laps are the calls.
  const Round skipped =
      timed_policy.skipped + std::max<Round>(0, t.rounds -
                                                    timed_policy.next_round);
  checks.expect(timed_policy.out_of_order == 0, "policy rounds out of order");
  checks.expect(timed_policy.rounds_called + skipped == t.rounds,
                "policy calls + skipped rounds != rounds");
  checks.expect(timed_policy.final_sweeps == 1, "expected one final sweep");
  checks.expect(pulls == timed_policy.arrival_rounds_called,
                "source pulls != policy calls in arrival rounds");
  checks.expect(source.jobs_pulled == t.arrived,
                "jobs pulled != jobs the engine counted as arrived");
  checks.expect(observer.timers.laps(EnginePhase::kPolicy) ==
                    timed_policy.rounds_called,
                "observer policy laps != policy calls");

  ++trace.passes;
  trace.jobs_pulled += source.jobs_pulled;
  trace.policy_calls += timed_policy.rounds_called;
  trace.rounds += t.rounds;
  trace.peak_pending = std::max(trace.peak_pending, result.peak_pending);
  for (int p = 0; p < PhaseTimers::kNumPhases; ++p) {
    trace.phase[p] += observer.timers.seconds(static_cast<EnginePhase>(p));
  }
}

/// A traced sharded pass: per-shard observers with phase timers; layer
/// times come from the runner's per-shard seconds and the observers.
void traced_sharded_pass(const StreamingSpec& spec, std::uint64_t seed,
                         const Totals& expected, SpanLog& log,
                         StreamingTrace& trace, Checks& checks) {
  const std::unique_ptr<ArrivalSource> source = spec.make_source(seed);
  ObsConfig obs_config;
  obs_config.trace = false;
  obs_config.timers = true;
  std::vector<std::unique_ptr<Observer>> owned;
  std::vector<Observer*> shard_observers;
  for (int s = 0; s < spec.shards; ++s) {
    owned.push_back(std::make_unique<Observer>(obs_config));
    shard_observers.push_back(owned.back().get());
  }
  StreamingCall call;
  {
    const ScopedSpan pass(&log, "bench.pass", -1);
    const ScopedSpan runner(&log, "sim.run_streaming_sharded", pass.id());
    call = call_runner(spec, *source, nullptr, shard_observers, checks);
  }
  checks.expect(call.totals == expected,
                "traced pass totals " + describe(call.totals) +
                    " differ from untraced " + describe(expected));

  ++trace.passes;
  trace.jobs_pulled += call.totals.arrived;
  trace.rounds += call.engine_rounds;
  trace.peak_pending = std::max(trace.peak_pending, call.peak_pending);
  for (const Observer* obs : shard_observers) {
    trace.policy_calls += obs->timers.laps(EnginePhase::kPolicy);
    double phases = 0.0;
    for (int p = 0; p < PhaseTimers::kNumPhases; ++p) {
      const double s = obs->timers.seconds(static_cast<EnginePhase>(p));
      trace.phase[p] += s;
      phases += s;
    }
    checks.expect(phases <= call.engine_max + 1e-6,
                  "a shard's phase times exceed the slowest shard");
  }
}

struct Outcome {
  Tally tally;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> provenance;
  std::string summary;
};

void run_streaming_workload(const StreamingSpec& spec, std::uint64_t seed,
                            double seconds, bool trace_on,
                            const std::string& trace_out, Outcome& out) {
  out.provenance["pass_rounds"] = std::to_string(spec.pass_rounds);
  out.provenance["resources"] = std::to_string(spec.n);
  out.provenance["shards"] = std::to_string(spec.shards);

  Totals expected;
  out.tally.run([&](Checks& checks) {
    expected = verification_pass(spec, seed, checks);
  });

  // Host-scaled samples (see HostSpeed) and the raw rates for the summary.
  std::vector<double> setup;
  std::vector<double> rate;         // untraced passes
  std::vector<double> traced_rate;  // traced passes
  std::vector<double> raw_rate;
  // Sharded-runner figures, measured on the untraced passes.
  std::vector<double> driver_overhead;
  std::vector<double> efficiency;
  std::vector<double> imbalance;
  const Stopwatch run_clock;
  SpanLog log;
  StreamingTrace trace;
  HostSpeed host;
  for (int pass = 0; pass < kMinPasses * (trace_on ? 2 : 1) ||
                     run_clock.seconds() < seconds;
       ++pass) {
    const bool traced = trace_on && pass % 2 == 1;
    double wall = 0.0;  // stays 0 when the pass throws
    std::vector<double> builds;
    out.tally.run([&](Checks& checks) {
      if (traced) {
        const double before = log.root_seconds();
        if (spec.shards == 1) {
          traced_serial_pass(spec, seed, expected, log, trace, checks);
        } else {
          traced_sharded_pass(spec, seed, expected, log, trace, checks);
        }
        wall = log.root_seconds() - before;
        trace.wall += wall;
        return;
      }
      std::unique_ptr<ArrivalSource> source;
      for (int i = 0; i < kSetupRepeats; ++i) {
        source.reset();  // rebuild into the memory just released
        const Stopwatch build;
        source = spec.make_source(seed);
        builds.push_back(build.seconds());
      }
      const StreamingCall call = call_runner(spec, *source, nullptr, {},
                                             checks);
      checks.expect(call.totals == expected,
                    "pass totals " + describe(call.totals) +
                        " differ from the first pass " + describe(expected));
      wall = call.wall;
      driver_overhead.push_back(call.wall - call.engine_max);
      efficiency.push_back(call.engine_sum / (call.engines * call.wall));
      imbalance.push_back(call.engine_max / (call.engine_sum / call.engines));
    });
    const double scale = host.pass_scale();
    if (wall <= 0.0) continue;
    const double rounds = static_cast<double>(expected.rounds);
    (traced ? traced_rate : rate).push_back(rounds / (wall * scale));
    if (!traced) raw_rate.push_back(rounds / wall);
    for (const double b : builds) setup.push_back(b * scale);
  }

  const double rounds_per_s = median(rate);
  if (!trace_on) {
    out.metrics = {{"rounds_per_s", rounds_per_s, "1/s"},
                   {"peak_rss_mb", peak_rss_mb(), "MB"},
                   {"setup_s", median(setup), "s"}};
    std::ostringstream os;
    os << spec.name << ": passes of " << expected.rounds << " rounds, "
       << expected.arrived << " jobs; rounds/s over " << distribution(rate)
       << "; unscaled " << distribution(raw_rate);
    out.summary = os.str();
    return;
  }

  out.tally.run([&](Checks& checks) { check_tiling(log, checks); });
  const std::map<std::string, double> self_seconds = log.self_seconds();
  const auto per_pass = [&](double total) {
    return trace.passes > 0 ? total / trace.passes : 0.0;
  };
  const auto count = [&](std::int64_t total) {
    return per_pass(static_cast<double>(total));
  };
  const auto self = [&](const std::string& name) {
    const auto it = self_seconds.find(name);
    return it == self_seconds.end() ? 0.0 : per_pass(it->second);
  };
  const double policy_calls = count(trace.policy_calls);
  const double rounds = count(trace.rounds);
  // Shard engines are not wrapped (they serve shard-native sources), so
  // the sharded workload has no engine self time from outside.
  const double engine_self = self("core.engine_init") +
                             self("core.run_rounds") + self("core.finish");
  out.metrics = {
      {"workload.synth_s", self("workload.arrivals_in_round"), "s"},
      {"workload.scan_s", self("workload.next_event_round"), "s"},
      {"workload.jobs_pulled", count(trace.jobs_pulled), "count"},
      {"algs.policy_s", self("algs.on_round"), "s"},
      {"algs.policy_calls", policy_calls, "count"},
      {"core.engine_self_s", engine_self, "s"},
      {"core.phase.drop_s",
       per_pass(trace.phase[static_cast<int>(EnginePhase::kDrop)]), "s"},
      {"core.phase.arrival_s",
       per_pass(trace.phase[static_cast<int>(EnginePhase::kArrival)]), "s"},
      {"core.phase.policy_s",
       per_pass(trace.phase[static_cast<int>(EnginePhase::kPolicy)]), "s"},
      {"core.phase.exec_s",
       per_pass(trace.phase[static_cast<int>(EnginePhase::kExec)]), "s"},
      {"core.ff_skip_frac", rounds > 0 ? 1.0 - policy_calls / rounds : 0.0,
       "frac"},
      {"core.peak_pending", static_cast<double>(trace.peak_pending), "count"},
      {"sim.shard_imbalance", median(imbalance), "ratio"},
      {"sim.driver_overhead_s", median(driver_overhead), "s"},
      {"sim.parallel_efficiency", median(efficiency), "frac"},
      {"obs.trace_overhead_frac",
       rounds_per_s > 0 ? 1.0 - median(traced_rate) / rounds_per_s : 0.0,
       "frac"},
  };
  std::ostringstream os;
  os << spec.name << ": " << rate.size() << " untraced + " << trace.passes
     << " traced passes; traced wall " << per_pass(trace.wall)
     << " s/pass tiled by layer self times";
  out.summary = os.str();
  write_spans(log, trace_out);
}

// ---------------------------------------------------------------------------
// Certify: the offline side of the competitive ratio.  Each pass brackets
// OPT(m = 1) on a batch of seeded E15-family instances with the three
// public offline calls; every budget is a node count, so every answer is a
// function of the inputs alone.

struct CertifyFamily {
  std::string name;
  int instances = 0;
  std::int64_t node_budget = 0;
  std::function<Instance(std::uint64_t)> make;
};

std::vector<CertifyFamily> certify_families() {
  return {
      // E3 rate-limited batched cell, Delta = 2, shortened horizon: the
      // solver closes most instances exactly within the budget.
      {"e3", 128, 1024,
       [](std::uint64_t seed) {
         RandomBatchedParams p;
         p.seed = seed;
         p.delta = 2;
         p.num_colors = 8;
         p.min_scale = 2;
         p.max_scale = 4;
         p.horizon = 8;
         return make_random_batched(p);
       }},
      // E5 unbatched Poisson cell, power-of-two delay bounds: never closes
      // at this scale; the budget bounds the search.
      {"e5", 192, 256,
       [](std::uint64_t seed) {
         PoissonParams p;
         p.seed = seed;
         p.delta = 4;
         p.num_colors = 8;
         p.min_delay = 4;
         p.max_delay = 32;
         p.mean_rate = 0.15;
         p.horizon = 128;
         return make_poisson(p);
       }},
  };
}

/// Deterministic answers of one family over one pass.
struct FamilyTotals {
  Cost lower_bound = 0;
  Cost greedy = 0;
  Cost best_bound = 0;
  Cost incumbent = 0;
  std::int64_t closed = 0;
  std::int64_t nodes = 0;
  std::int64_t pruned = 0;

  friend bool operator==(const FamilyTotals&, const FamilyTotals&) = default;
};

std::string describe(const FamilyTotals& t) {
  std::ostringstream os;
  os << "{lb " << t.lower_bound << ", greedy " << t.greedy << ", best_bound "
     << t.best_bound << ", incumbent " << t.incumbent << ", closed "
     << t.closed << ", nodes " << t.nodes << ", pruned " << t.pruned << "}";
  return os.str();
}

/// Reference answers at kReferenceSeed, in certify_families() order.
const FamilyTotals kCertifyReference[] = {
    {2957, 3260, 2976, 3147, 66, 87518, 316292},
    {8492, 25266, 8439, 25266, 0, 49152, 6827},
};

/// Instances certified between two reference-kernel timings: a pass takes
/// seconds, longer than the host's speed holds still.
constexpr std::size_t kInstancesPerScale = 32;

struct CertifyPass {
  std::vector<FamilyTotals> totals;
  double wall = 0.0;    ///< the offline calls for the whole batch
  double scaled = 0.0;  ///< the same, host-scaled chunk by chunk
};

/// Certifies every instance of the batch.  Traced passes record one span
/// per instance and per offline call (the instances are the root spans, so
/// the reference kernel stays outside them).
CertifyPass certify_pass(const std::vector<CertifyFamily>& families,
                         const std::vector<std::vector<Instance>>& batch,
                         SpanLog* log, HostSpeed& host, Checks& checks) {
  CertifyPass out;
  struct Answer {
    LowerBound lb;
    Cost greedy = 0;
    BnbResult bnb;
  };
  std::vector<std::vector<Answer>> answers(families.size());
  double chunk = 0.0;
  std::size_t in_chunk = 0;
  const auto close_chunk = [&] {
    out.wall += chunk;
    out.scaled += chunk * host.pass_scale();
    chunk = 0.0;
    in_chunk = 0;
  };
  for (std::size_t f = 0; f < families.size(); ++f) {
    BnbOptions options;
    options.max_nodes = families[f].node_budget;
    options.max_seconds = 0.0;  // node budget only: host-independent
    for (const Instance& instance : batch[f]) {
      Answer& a = answers[f].emplace_back();
      const Stopwatch watch;
      {
        const ScopedSpan span(log, "bench.instance", -1);
        {
          const ScopedSpan call(log, "offline.lower_bound", span.id());
          a.lb = offline_lower_bound_full(instance, 1);
        }
        {
          const ScopedSpan call(log, "offline.greedy", span.id());
          a.greedy = best_offline_heuristic_cost(instance, 1);
        }
        const ScopedSpan call(log, "offline.bnb", span.id());
        a.bnb = exact_offline_bnb(instance, 1, options);
      }
      chunk += watch.seconds();
      if (++in_chunk == kInstancesPerScale) close_chunk();
    }
  }
  if (in_chunk > 0) close_chunk();

  // Checks (untimed): the certified interval nests inside the closed-form
  // bracket, and a closed instance's witness replays at the incumbent.
  for (std::size_t f = 0; f < families.size(); ++f) {
    FamilyTotals t;
    for (std::size_t i = 0; i < answers[f].size(); ++i) {
      const Answer& a = answers[f][i];
      const Instance& instance = batch[f][i];
      const std::string where =
          families[f].name + " instance " + std::to_string(i) + ": ";
      checks.expect(a.bnb.best_bound <= a.bnb.incumbent,
                    where + "best_bound > incumbent");
      checks.expect(a.lb.best() <= a.bnb.incumbent,
                    where + "lower bound > incumbent");
      checks.expect(a.bnb.incumbent <= a.greedy, where + "incumbent > greedy");
      if (a.bnb.closed) {
        checks.expect(a.bnb.best_bound == a.bnb.incumbent,
                      where + "closed with a gap");
        // A budget stop may close the interval through the frontier bound
        // without a witness; a witness, when present, must replay.
        if (a.bnb.has_witness) {
          const ValidationResult v = validate(instance, a.bnb.schedule);
          checks.expect(v.ok && v.cost.total() == a.bnb.incumbent,
                        where + "witness does not replay at the incumbent");
        }
      }
      t.lower_bound += a.lb.best();
      t.greedy += a.greedy;
      t.best_bound += a.bnb.best_bound;
      t.incumbent += a.bnb.incumbent;
      t.closed += a.bnb.closed ? 1 : 0;
      t.nodes += a.bnb.nodes_expanded;
      t.pruned += a.bnb.nodes_pruned_bound + a.bnb.nodes_pruned_dominated;
    }
    out.totals.push_back(t);
  }
  return out;
}

void run_certify_workload(std::uint64_t seed, double seconds, bool trace_on,
                          const std::string& trace_out, Outcome& out) {
  const std::vector<CertifyFamily> families = certify_families();
  Round horizon_rounds = 0;
  for (const CertifyFamily& f : families) {
    out.provenance[f.name + "_instances"] = std::to_string(f.instances);
    out.provenance[f.name + "_node_budget"] = std::to_string(f.node_budget);
  }

  const auto build_batch = [&] {
    std::vector<std::vector<Instance>> batch(families.size());
    for (std::size_t f = 0; f < families.size(); ++f) {
      for (int i = 0; i < families[f].instances; ++i) {
        batch[f].push_back(families[f].make(mix_seed(seed, f, i)));
      }
    }
    return batch;
  };

  // Host-scaled samples (see HostSpeed) and the raw rates for the summary.
  std::vector<double> setup;
  std::vector<double> rate;
  std::vector<double> traced_rate;
  std::vector<double> raw_rate;
  std::vector<FamilyTotals> expected;
  const Stopwatch run_clock;
  SpanLog log;
  HostSpeed host;
  int traced_passes = 0;
  for (int pass = 0; pass < kMinPasses * (trace_on ? 2 : 1) ||
                     run_clock.seconds() < seconds;
       ++pass) {
    const bool traced = trace_on && pass % 2 == 1;
    out.tally.run([&](Checks& checks) {
      std::vector<std::vector<Instance>> batch;
      std::vector<double> builds;
      for (int i = 0; i < kSetupRepeats; ++i) {
        batch.clear();  // rebuild into the memory just released
        const Stopwatch build;
        batch = build_batch();
        builds.push_back(build.seconds());
      }
      // The builds run between the previous pass's last reference timing
      // and this pass's first chunk; scale them by that reference.
      const double build_scale = kReferenceNominal / host.last_reference();
      for (const double b : builds) setup.push_back(b * build_scale);
      horizon_rounds = 0;
      for (const auto& instances : batch) {
        for (const Instance& instance : instances) {
          horizon_rounds += instance.horizon();
        }
      }
      const CertifyPass result = certify_pass(
          families, batch, traced ? &log : nullptr, host, checks);
      if (expected.empty()) {
        expected = result.totals;
        if (seed == kReferenceSeed) {
          for (std::size_t f = 0; f < families.size(); ++f) {
            checks.expect(expected[f] == kCertifyReference[f],
                          families[f].name + " answers " +
                              describe(expected[f]) +
                              " differ from the reference " +
                              describe(kCertifyReference[f]));
          }
        }
      }
      checks.expect(result.totals == expected,
                    "certify answers differ between passes");
      const auto rounds = static_cast<double>(horizon_rounds);
      if (traced) {
        traced_rate.push_back(rounds / result.scaled);
        ++traced_passes;
      } else {
        rate.push_back(rounds / result.scaled);
        raw_rate.push_back(rounds / result.wall);
      }
    });
  }

  const double rounds_per_s = median(rate);
  std::ostringstream os;
  os << "certify: " << horizon_rounds << " instance rounds per pass; rounds/s"
     << " over " << distribution(rate) << "; unscaled "
     << distribution(raw_rate) << ";";
  for (std::size_t f = 0; f < families.size() && f < expected.size(); ++f) {
    os << " " << families[f].name << " " << describe(expected[f]);
  }
  out.summary = os.str();
  if (!trace_on) {
    out.metrics = {{"rounds_per_s", rounds_per_s, "1/s"},
                   {"peak_rss_mb", peak_rss_mb(), "MB"},
                   {"setup_s", median(setup), "s"}};
    return;
  }

  out.tally.run([&](Checks& checks) { check_tiling(log, checks); });
  const std::map<std::string, double> self = log.self_seconds();
  const auto per_pass = [&](double total) {
    return traced_passes > 0 ? total / traced_passes : 0.0;
  };
  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : per_pass(it->second);
  };
  FamilyTotals all;
  for (const FamilyTotals& t : expected) {
    all.nodes += t.nodes;
    all.pruned += t.pruned;
    all.closed += t.closed;
    all.best_bound += t.best_bound;
    all.incumbent += t.incumbent;
  }
  const double bnb_s = self_of("offline.bnb");
  const auto family = [&](std::size_t f) {
    return f < expected.size() ? expected[f] : FamilyTotals{};
  };
  out.metrics = {
      {"offline.lb_s", self_of("offline.lower_bound"), "s"},
      {"offline.greedy_s", self_of("offline.greedy"), "s"},
      {"offline.bnb_s", bnb_s, "s"},
      {"offline.bnb_nodes", static_cast<double>(all.nodes), "count"},
      {"offline.bnb_nodes_per_s",
       bnb_s > 0 ? static_cast<double>(all.nodes) / bnb_s : 0.0, "1/s"},
      {"offline.bnb_prune_ratio",
       all.nodes + all.pruned > 0
           ? static_cast<double>(all.pruned) /
                 static_cast<double>(all.nodes + all.pruned)
           : 0.0,
       "frac"},
      {"offline.e3.best_bound", static_cast<double>(family(0).best_bound),
       "count"},
      {"offline.e3.incumbent", static_cast<double>(family(0).incumbent),
       "count"},
      {"offline.e5.best_bound", static_cast<double>(family(1).best_bound),
       "count"},
      {"offline.e5.incumbent", static_cast<double>(family(1).incumbent),
       "count"},
      {"offline.closed", static_cast<double>(all.closed), "count"},
      {"certify_s", per_pass(log.root_seconds()), "s"},
      {"certify_gap", static_cast<double>(all.incumbent - all.best_bound),
       "count"},
      {"obs.trace_overhead_frac",
       rounds_per_s > 0 ? 1.0 - median(traced_rate) / rounds_per_s : 0.0,
       "frac"},
  };
  write_spans(log, trace_out);
}

// ---------------------------------------------------------------------------

/// Per-layer metric names, in output order; a workload that does not run
/// a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workload.synth_s", "s"},        {"workload.scan_s", "s"},
    {"workload.jobs_pulled", "count"}, {"algs.policy_s", "s"},
    {"algs.policy_calls", "count"},   {"core.engine_self_s", "s"},
    {"core.phase.drop_s", "s"},       {"core.phase.arrival_s", "s"},
    {"core.phase.policy_s", "s"},     {"core.phase.exec_s", "s"},
    {"core.ff_skip_frac", "frac"},    {"core.peak_pending", "count"},
    {"sim.shard_imbalance", "ratio"}, {"sim.driver_overhead_s", "s"},
    {"sim.parallel_efficiency", "frac"},
    {"obs.trace_overhead_frac", "frac"},
    {"offline.lb_s", "s"},            {"offline.greedy_s", "s"},
    {"offline.bnb_s", "s"},           {"offline.bnb_nodes", "count"},
    {"offline.bnb_nodes_per_s", "1/s"},
    {"offline.bnb_prune_ratio", "frac"},
    {"offline.e3.best_bound", "count"}, {"offline.e3.incumbent", "count"},
    {"offline.e5.best_bound", "count"}, {"offline.e5.incumbent", "count"},
    {"offline.closed", "count"},      {"certify_s", "s"},
    {"certify_gap", "count"},
};

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload "
               "<dense|sparse|datacenter-sharded|certify> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("arguments come in --flag value pairs");
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace"}) {
    if (args.count(required) == 0) {
      return usage(std::string("missing ") + required);
    }
  }
  std::uint64_t seed = 0;
  double seconds = 0.0;
  try {
    seed = std::stoull(args["--seed"]);
    seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  const std::string& workload = args["--workload"];
  const std::string& trace_flag = args["--trace"];
  if (trace_flag != "0" && trace_flag != "1") return usage("--trace is 0 or 1");
  const bool trace_on = trace_flag == "1";
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  Outcome out;
  try {
    if (workload == "certify") {
      run_certify_workload(seed, seconds, trace_on, args["--trace-out"], out);
    } else {
      bool found = false;
      for (const StreamingSpec& spec : streaming_specs()) {
        if (spec.name != workload) continue;
        found = true;
        run_streaming_workload(spec, seed, seconds, trace_on,
                               args["--trace-out"], out);
      }
      if (!found) return usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  // Provenance of this result.
  out.provenance["workload"] = workload;
  out.provenance["seed"] = std::to_string(seed);
  out.provenance["seconds"] = args["--seconds"];
  out.provenance["trace"] = trace_flag;
  out.provenance["commit"] = args.count("--commit") ? args["--commit"] : "";
  out.provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  out.provenance["compiler"] = PERFBENCH_COMPILER;
  out.provenance["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out.provenance["pool_workers"] = std::to_string(global_pool().size());
  std::cout << "provenance {";
  bool first = true;
  for (const auto& [key, value] : out.provenance) {
    std::cout << (first ? "" : ", ") << "\"" << key << "\": \""
              << json_escape(value) << "\"";
    first = false;
  }
  std::cout << "}\n" << out.summary << "\n";
  for (const std::string& why : out.tally.reasons) {
    std::cout << "FAILED: " << why << "\n";
  }

  // Per-layer runs report every per-layer metric (0 where a layer is not
  // exercised by this workload); end-to-end runs report their own list.
  std::vector<Metric> metrics = out.metrics;
  if (trace_on) {
    metrics.clear();
    for (const auto& [name, unit] : kPerLayer) {
      double value = 0.0;
      for (const Metric& m : out.metrics) {
        if (m.name == name) value = m.value;
      }
      metrics.push_back({name, value, unit});
    }
  }
  const double failed_frac =
      static_cast<double>(out.tally.failed) /
      static_cast<double>(std::max<std::int64_t>(1, out.tally.attempted));
  std::cout << std::setprecision(10);
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(28) << m.name << " "
              << m.value << " " << m.unit << "\n";
  }
  std::cout << "  " << std::left << std::setw(28) << "failed_frac" << " "
            << failed_frac << "\n";

  std::cout << std::setprecision(17);
  std::cout << "{\"correct\": " << (out.tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.tally.attempted
            << ", \"failed\": " << out.tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
