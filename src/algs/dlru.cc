#include "algs/dlru.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "obs/observer.h"
#include "util/check.h"

namespace rrs {

void DLruPolicy::begin(const ArrivalSource& source, int num_resources,
                       int speed) {
  (void)num_resources;
  (void)speed;
  tracker_.begin(source);
  in_target_.ensure_size(static_cast<std::size_t>(source.num_colors()));
  observed_epochs_ = 0;
}

void DLruPolicy::on_round(RoundContext& ctx) {
  const Round k = ctx.round();
  if (ctx.first_mini()) {
    tracker_.drop_phase(k, ctx.dropped(), ctx.cache());
    if (!ctx.final_sweep()) tracker_.arrival_phase(k, ctx.arrivals());
    if (Observer* o = ctx.obs(); o != nullptr && o->config.trace) {
      const std::int64_t epochs = tracker_.num_epochs();
      if (epochs != observed_epochs_) {
        o->trace.push({k, TraceKind::kEpochTurnover, 0, epochs});
        observed_epochs_ = epochs;
      }
    }
    if (ctx.final_sweep()) return;
  }
  CacheAssignment& cache = ctx.cache();

  // Invariant: the cache holds exactly the top min(n/2, |eligible|)
  // eligible colors by timestamp recency.
  const auto capacity = static_cast<std::size_t>(cache.max_distinct());
  const std::vector<ColorId>& target = tracker_.lru_order(capacity);

  // Evict cached colors outside the target set, then insert the rest.
  in_target_.clear();
  for (const ColorId c : target) in_target_.set(c, 1);
  evict_scratch_.clear();
  for (const ColorId c : cache.cached_colors()) {
    if (!in_target_.contains(c)) evict_scratch_.push_back(c);
  }
  for (const ColorId c : evict_scratch_) cache.erase(c);
  for (const ColorId c : target) {
    if (!cache.contains(c)) cache.insert(c);
  }
}

void DLruPolicy::on_capacity_change(Round round, int up, int total,
                                    std::span<const ColorId> evicted) {
  (void)round;
  (void)up;
  (void)total;
  (void)evicted;
  // The target set is recomputed against the live max_distinct() every
  // round; only the cross-round membership scratch needs invalidating.
  in_target_.clear();
  ++capacity_changes_;
}

std::vector<std::pair<std::string, std::int64_t>> DLruPolicy::stats() const {
  return {{"epochs", tracker_.num_epochs()},
          {"eligible_drops", tracker_.eligible_drops()},
          {"ineligible_drops", tracker_.ineligible_drops()},
          {"capacity_changes", capacity_changes_}};
}

void DLruPolicy::checkpoint_state(CheckpointWriter& w) const {
  tracker_.checkpoint(w);
  w.i64(capacity_changes_);
  w.i64(observed_epochs_);
}

void DLruPolicy::restore_state(CheckpointReader& r) {
  tracker_.restore_checkpoint(r);
  capacity_changes_ = r.i64();
  observed_epochs_ = r.i64();
}

}  // namespace rrs
