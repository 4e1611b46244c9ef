#include "algs/edf.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "obs/observer.h"
#include "util/check.h"

namespace rrs {

void EdfPolicy::begin(const ArrivalSource& source, int num_resources,
                      int speed) {
  (void)num_resources;
  (void)speed;
  tracker_.begin(source);
  rank_pos_.ensure_size(static_cast<std::size_t>(source.num_colors()));
  observed_epochs_ = 0;
}

void EdfPolicy::on_round(RoundContext& ctx) {
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
  CacheAssignment& cache = ctx.cache();
  const PendingJobs& pending = ctx.pending();

  const std::vector<ColorId>& ranked = tracker_.edf_order(pending);

  rank_pos_.clear();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    rank_pos_.set(ranked[i], static_cast<std::int32_t>(i));
  }

  // Cache every nonidle color among the top max_distinct() ranks; when
  // full, evict the cached color with the worst rank.  Cached colors are
  // always eligible (a color only becomes ineligible while uncached), so
  // every cached color has a rank.
  const auto top = std::min(ranked.size(),
                            static_cast<std::size_t>(cache.max_distinct()));
  for (std::size_t i = 0; i < top; ++i) {
    const ColorId color = ranked[i];
    if (pending.idle(color) || cache.contains(color)) continue;
    if (cache.full()) {
      ColorId victim = kBlack;
      std::int32_t worst = -1;
      for (const ColorId c : cache.cached_colors()) {
        RRS_CHECK_MSG(rank_pos_.contains(c),
                      "cached color " << c << " missing from EDF ranking");
        const std::int32_t pos = rank_pos_.at(c);
        if (pos > worst) {
          worst = pos;
          victim = c;
        }
      }
      RRS_CHECK_MSG(worst > static_cast<std::int32_t>(i),
                    "EDF would evict a better-ranked color than it inserts");
      cache.erase(victim);
    }
    cache.insert(color);
  }
}

void EdfPolicy::on_capacity_change(Round round, int up, int total,
                                   std::span<const ColorId> evicted) {
  (void)round;
  (void)up;
  (void)total;
  (void)evicted;
  // The ranking is rebuilt from the tracker against the live max_distinct()
  // every round; only the cross-round rank scratch needs invalidating.
  rank_pos_.clear();
  ++capacity_changes_;
}

std::vector<std::pair<std::string, std::int64_t>> EdfPolicy::stats() const {
  return {{"epochs", tracker_.num_epochs()},
          {"eligible_drops", tracker_.eligible_drops()},
          {"ineligible_drops", tracker_.ineligible_drops()},
          {"capacity_changes", capacity_changes_}};
}

void EdfPolicy::checkpoint_state(CheckpointWriter& w) const {
  tracker_.checkpoint(w);
  w.i64(capacity_changes_);
  w.i64(observed_epochs_);
}

void EdfPolicy::restore_state(CheckpointReader& r) {
  tracker_.restore_checkpoint(r);
  capacity_changes_ = r.i64();
  observed_epochs_ = r.i64();
}

}  // namespace rrs
