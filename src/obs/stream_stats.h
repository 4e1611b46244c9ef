#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "obs/histogram.h"
#include "util/check.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Per-color streaming counters.  All integers: additive merge is exact.
struct ColorObs {
  std::int64_t arrived = 0;
  std::int64_t executed = 0;
  std::int64_t dropped = 0;
  Cost dropped_weight = 0;
  std::int64_t wait_sum = 0;
  /// Execution units applied to this color (== executed for unit lengths).
  std::int64_t work_units = 0;

  /// Matches ColorMetrics::mean_wait bit-for-bit: waits are small
  /// nonnegative integers, so double accumulation of either the int64 sum
  /// or the individual samples is exact as long as the sum stays < 2^53.
  [[nodiscard]] double mean_wait() const {
    return executed == 0 ? 0.0
                         : static_cast<double>(wait_sum) /
                               static_cast<double>(executed);
  }

  friend bool operator==(const ColorObs&, const ColorObs&) = default;
};

/// O(1)-per-event streaming statistics updated inside the engine phases.
///
/// begin() caches the per-color delay bounds and drop costs so the hot-path
/// hooks never call back into the arrival source and never allocate.  All
/// aggregates are integers (or integer-backed histograms), so merge() /
/// merge_mapped() are exact and order-independent — the foundation for the
/// sharded additive-merge guarantee.
class StreamStats {
 public:
  /// Resets and sizes per-color state.  Spans are copied.  An empty
  /// `lengths` span means unit lengths (the paper's model).
  void begin(std::span<const Round> delay_bounds,
             std::span<const Cost> drop_costs,
             std::span<const Round> lengths = {}) {
    RRS_CHECK(delay_bounds.size() == drop_costs.size());
    RRS_CHECK(lengths.empty() || lengths.size() == delay_bounds.size());
    *this = StreamStats{};
    delay_bounds_.assign(delay_bounds.begin(), delay_bounds.end());
    drop_costs_.assign(drop_costs.begin(), drop_costs.end());
    if (lengths.empty()) {
      lengths_.assign(delay_bounds_.size(), 1);
    } else {
      lengths_.assign(lengths.begin(), lengths.end());
    }
    per_color_.assign(delay_bounds_.size(), ColorObs{});
  }

  // --- hot-path hooks (all O(1), allocation-free) --------------------------

  /// Counts `count` arrivals of `color` (one color-round run at a time).
  void on_arrival(ColorId color, std::int64_t count = 1) {
    arrived_ += count;
    per_color_[static_cast<std::size_t>(color)].arrived += count;
  }

  /// Called just before a job of `color` with the given deadline executes in
  /// round `round`.  Derives wait and slack the same way compute_metrics
  /// does from the materialized schedule:
  ///   wait  = round - arrival = round - (deadline - delay_bound)
  ///   slack = deadline - 1 - round
  void on_execution(ColorId color, Round round, Round deadline) {
    const std::size_t c = static_cast<std::size_t>(color);
    const Round wait = round - (deadline - delay_bounds_[c]);
    const Round slack = deadline - 1 - round;
    wait_.record(wait);
    slack_.record(slack);
    service_.record(lengths_[c]);
    ++executed_;
    completed_weight_ += drop_costs_[c];
    ColorObs& obs = per_color_[c];
    ++obs.executed;
    obs.wait_sum += wait;
  }

  /// Called once per execution unit (including the completing one, which
  /// additionally fires on_execution).  work_units() == executed() under
  /// unit lengths.
  void on_work_unit(ColorId color) {
    ++work_units_;
    ++per_color_[static_cast<std::size_t>(color)].work_units;
  }

  void on_drop(ColorId color, std::int64_t count) {
    const std::size_t c = static_cast<std::size_t>(color);
    const Cost weight = count * drop_costs_[c];
    drop_count_ += count;
    drop_weight_ += weight;
    ColorObs& obs = per_color_[c];
    obs.dropped += count;
    obs.dropped_weight += weight;
  }

  /// Called once per cache phase that commits `events` > 0 reconfigurations.
  /// The inter-arrival histogram records gaps between distinct rounds with
  /// at least one reconfiguration (mini-rounds within a round collapse).
  void on_reconfigs(Round round, std::int64_t events) {
    reconfig_events_ += events;
    if (round != last_reconfig_round_) {
      if (last_reconfig_round_ >= 0) {
        reconfig_gap_.record(round - last_reconfig_round_);
      }
      last_reconfig_round_ = round;
      ++reconfig_rounds_;
    }
  }

  /// Called once per admission-control shedding decision with the number of
  /// arrivals rejected at ingest.  The rejected jobs also flow through
  /// on_arrival/on_drop, so this counter isolates budget-driven drops from
  /// deadline-driven ones.
  void on_admission_reject(std::int64_t count) { admission_rejected_ += count; }

  void on_failure(bool evicted_cached_color) {
    ++churn_failures_;
    if (evicted_cached_color) ++churn_evictions_;
  }

  void on_repair() { ++churn_repairs_; }

  // --- accessors -----------------------------------------------------------

  [[nodiscard]] const Histogram& wait() const { return wait_; }
  [[nodiscard]] const Histogram& slack() const { return slack_; }
  [[nodiscard]] const Histogram& service() const { return service_; }
  [[nodiscard]] const Histogram& reconfig_gap() const { return reconfig_gap_; }
  [[nodiscard]] const std::vector<ColorObs>& per_color() const {
    return per_color_;
  }
  [[nodiscard]] std::int64_t arrived() const { return arrived_; }
  [[nodiscard]] std::int64_t executed() const { return executed_; }
  [[nodiscard]] std::int64_t work_units() const { return work_units_; }
  [[nodiscard]] Cost completed_weight() const { return completed_weight_; }
  [[nodiscard]] std::int64_t drop_count() const { return drop_count_; }
  [[nodiscard]] Cost drop_weight() const { return drop_weight_; }
  [[nodiscard]] std::int64_t reconfig_events() const {
    return reconfig_events_;
  }
  [[nodiscard]] std::int64_t reconfig_rounds() const {
    return reconfig_rounds_;
  }
  [[nodiscard]] std::int64_t churn_failures() const { return churn_failures_; }
  [[nodiscard]] std::int64_t churn_repairs() const { return churn_repairs_; }
  [[nodiscard]] std::int64_t churn_evictions() const {
    return churn_evictions_;
  }
  [[nodiscard]] std::int64_t admission_rejected() const {
    return admission_rejected_;
  }

  // --- checkpoint ----------------------------------------------------------

  /// Serializes every accumulator, including the reconfig-gap cursor
  /// (last_reconfig_round_) — it is live inter-round state, unlike merge()
  /// which deliberately drops it.  The begin()-supplied per-color metadata
  /// (delay bounds, drop costs, lengths) is NOT serialized: restore requires
  /// begin() to have been called with the same color space first.
  void checkpoint(CheckpointWriter& w) const;
  void restore_checkpoint(CheckpointReader& r);

  // --- merge ---------------------------------------------------------------

  /// Additive merge over the same color space.  The reconfig-gap cursor
  /// (last_reconfig_round_) is per-engine state and does not merge: the
  /// merged gap histogram is the exact union of the per-engine gap samples.
  void merge(const StreamStats& other) {
    RRS_REQUIRE(per_color_.size() == other.per_color_.size(),
                "StreamStats::merge: color spaces differ");
    merge_aggregates(other);
    for (std::size_t c = 0; c < per_color_.size(); ++c) {
      merge_color(per_color_[c], other.per_color_[c]);
    }
  }

  /// Merge a shard's stats into this (global) stats object, relabeling the
  /// shard's dense local colors through `to_global` (local index -> global
  /// ColorId), as produced by ShardPlan::shard_colors.
  void merge_mapped(const StreamStats& other,
                    std::span<const ColorId> to_global) {
    RRS_REQUIRE(to_global.size() == other.per_color_.size(),
                "StreamStats::merge_mapped: relabeling size mismatch");
    merge_aggregates(other);
    for (std::size_t local = 0; local < to_global.size(); ++local) {
      const auto global = static_cast<std::size_t>(to_global[local]);
      RRS_REQUIRE(global < per_color_.size(),
                  "StreamStats::merge_mapped: global color out of range");
      merge_color(per_color_[global], other.per_color_[local]);
    }
  }

  friend bool operator==(const StreamStats&, const StreamStats&) = default;

 private:
  void merge_aggregates(const StreamStats& other) {
    wait_.merge(other.wait_);
    slack_.merge(other.slack_);
    service_.merge(other.service_);
    reconfig_gap_.merge(other.reconfig_gap_);
    arrived_ += other.arrived_;
    executed_ += other.executed_;
    work_units_ += other.work_units_;
    completed_weight_ += other.completed_weight_;
    drop_count_ += other.drop_count_;
    drop_weight_ += other.drop_weight_;
    reconfig_events_ += other.reconfig_events_;
    reconfig_rounds_ += other.reconfig_rounds_;
    churn_failures_ += other.churn_failures_;
    churn_repairs_ += other.churn_repairs_;
    churn_evictions_ += other.churn_evictions_;
    admission_rejected_ += other.admission_rejected_;
  }

  static void merge_color(ColorObs& into, const ColorObs& from) {
    into.arrived += from.arrived;
    into.executed += from.executed;
    into.dropped += from.dropped;
    into.dropped_weight += from.dropped_weight;
    into.wait_sum += from.wait_sum;
    into.work_units += from.work_units;
  }

  std::vector<Round> delay_bounds_;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  std::vector<ColorObs> per_color_;
  Histogram wait_;
  Histogram slack_;
  Histogram service_;
  Histogram reconfig_gap_;
  std::int64_t arrived_ = 0;
  std::int64_t executed_ = 0;
  std::int64_t work_units_ = 0;
  Cost completed_weight_ = 0;
  std::int64_t drop_count_ = 0;
  Cost drop_weight_ = 0;
  std::int64_t reconfig_events_ = 0;
  std::int64_t reconfig_rounds_ = 0;
  Round last_reconfig_round_ = -1;
  std::int64_t churn_failures_ = 0;
  std::int64_t churn_repairs_ = 0;
  std::int64_t churn_evictions_ = 0;
  std::int64_t admission_rejected_ = 0;
};

}  // namespace rrs
