#include "algs/dlru_edf.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "obs/observer.h"
#include "util/check.h"

namespace rrs {

void DLruEdfPolicy::begin(const ArrivalSource& source, int num_resources,
                          int speed) {
  (void)speed;
  RRS_REQUIRE(lru_fraction_ >= 0.0 && lru_fraction_ < 1.0,
              "lru_fraction must be in [0, 1), got " << lru_fraction_);
  RRS_REQUIRE(num_resources % 4 == 0,
              "dLRU-EDF needs n divisible by 4 (n/4 LRU colors + n/4 EDF "
              "colors, each in 2 locations); got n="
                  << num_resources);
  tracker_.begin(source);
  observed_epochs_ = 0;
  const auto colors = static_cast<std::size_t>(source.num_colors());
  is_lru_.ensure_size(colors);
  is_protected_.ensure_size(colors);
  rank_pos_.ensure_size(colors);
}

void DLruEdfPolicy::on_round(RoundContext& ctx) {
  if (ctx.first_mini()) {
    tracker_.drop_phase(ctx.round(), ctx.dropped(), ctx.cache());
    if (!ctx.final_sweep()) {
      tracker_.arrival_phase(ctx.round(), ctx.arrivals());
    }
    if (Observer* o = ctx.obs(); o != nullptr && o->config.trace) {
      const std::int64_t epochs = tracker_.num_epochs();
      if (epochs != observed_epochs_) {
        o->trace.push({ctx.round(), TraceKind::kEpochTurnover, 0, epochs});
        observed_epochs_ = epochs;
      }
    }
    if (ctx.final_sweep()) return;
  }
  reconfigure(ctx);
}

void DLruEdfPolicy::evict_worst_non_lru(CacheAssignment& cache) {
  ColorId victim = kBlack;
  std::int32_t worst = -1;
  for (const ColorId c : cache.cached_colors()) {
    if (is_lru_.contains(c) || is_protected_.contains(c)) continue;
    // Every cached non-LRU color is eligible and therefore ranked.
    RRS_CHECK_MSG(rank_pos_.contains(c),
                  "cached non-LRU color " << c << " missing from ranking");
    const std::int32_t pos = rank_pos_.at(c);
    if (pos > worst) {
      worst = pos;
      victim = c;
    }
  }
  RRS_CHECK_MSG(victim != kBlack, "no evictable non-LRU color");
  cache.erase(victim);
}

void DLruEdfPolicy::reconfigure(RoundContext& ctx) {
  CacheAssignment& cache = ctx.cache();
  const PendingJobs& pending = ctx.pending();
  const auto max_distinct = static_cast<std::size_t>(cache.max_distinct());
  // The paper's split is half/half; lru_fraction generalizes it, clamped
  // so the non-LRU pool is never empty (evictions need a victim).
  const auto lru_cap = std::min(
      max_distinct - 1,
      static_cast<std::size_t>(lru_fraction_ *
                               static_cast<double>(max_distinct)));
  const std::size_t edf_cap = max_distinct - lru_cap;

  // --- LRU half: the top lru_cap eligible colors by timestamp recency. ---
  // The tracker's two query buffers are distinct, so lru_target stays
  // valid across the edf_order() call below.
  const std::vector<ColorId>& lru_target = tracker_.lru_order(lru_cap);
  is_lru_.clear();
  for (const ColorId c : lru_target) is_lru_.set(c, 1);

  // --- EDF half: rank the eligible non-LRU colors.  Filtering the full
  // EDF order (a strict total order) preserves the exact relative ranks
  // of the surviving colors. ---
  edf_ranked_.clear();
  for (const ColorId c : tracker_.edf_order(pending)) {
    if (!is_lru_.contains(c)) edf_ranked_.push_back(c);
  }
  rank_pos_.clear();
  for (std::size_t i = 0; i < edf_ranked_.size(); ++i) {
    rank_pos_.set(edf_ranked_[i], static_cast<std::int32_t>(i));
  }

  is_protected_.clear();

  // Bring LRU-target colors in (eviction takes the worst non-LRU color;
  // one always exists because the LRU target holds at most half the
  // capacity).
  for (const ColorId c : lru_target) {
    if (cache.contains(c)) continue;
    if (cache.full()) evict_worst_non_lru(cache);
    cache.insert(c);
  }

  // X = nonidle non-LRU colors in the top edf_cap EDF ranks not cached.
  const auto top = std::min(edf_ranked_.size(), edf_cap);
  for (std::size_t i = 0; i < top; ++i) {
    const ColorId color = edf_ranked_[i];
    if (pending.idle(color) || cache.contains(color)) continue;
    if (cache.full()) evict_worst_non_lru(cache);
    cache.insert(color);
    is_protected_.set(color, 1);
  }
}

void DLruEdfPolicy::on_capacity_change(Round round, int up, int total,
                                       std::span<const ColorId> evicted) {
  (void)round;
  (void)up;
  (void)total;
  (void)evicted;
  // Both halves recompute their targets against the live max_distinct()
  // every round; only the cross-round stamped scratch needs invalidating.
  // AdaptiveSplitPolicy inherits this (its split stays valid at any n).
  is_lru_.clear();
  is_protected_.clear();
  rank_pos_.clear();
  ++capacity_changes_;
}

std::vector<std::pair<std::string, std::int64_t>> DLruEdfPolicy::stats()
    const {
  return {{"epochs", tracker_.num_epochs()},
          {"eligible_drops", tracker_.eligible_drops()},
          {"ineligible_drops", tracker_.ineligible_drops()},
          {"capacity_changes", capacity_changes_}};
}

void DLruEdfPolicy::checkpoint_state(CheckpointWriter& w) const {
  tracker_.checkpoint(w);
  w.f64(lru_fraction_);
  w.i64(capacity_changes_);
  w.i64(observed_epochs_);
}

void DLruEdfPolicy::restore_state(CheckpointReader& r) {
  tracker_.restore_checkpoint(r);
  lru_fraction_ = r.f64();
  capacity_changes_ = r.i64();
  observed_epochs_ = r.i64();
}

}  // namespace rrs
