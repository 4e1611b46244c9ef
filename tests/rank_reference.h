// Reference rankings for the Section 3 reconfiguration schemes, computed
// from scratch by sorting.  EligibilityTracker::edf_order / lru_order keep
// both orders incrementally; the tests pin them against these sorts.
//
//   * the EDF color ranking (Section 3.1.2 / 3.3): eligible colors ranked
//     first on idleness (nonidle first), then ascending color deadline,
//     then ascending delay bound, then a consistent order of colors (we use
//     ascending ColorId everywhere, as the paper requires one consistent
//     order across all algorithms);
//   * the dLRU recency ranking (Section 3.1.1): descending timestamp,
//     ties broken by the same consistent order.
#pragma once

#include <algorithm>
#include <vector>

#include "core/color_state.h"
#include "core/pending.h"
#include "core/types.h"

namespace rrs::testing {

/// Sort key for the EDF color ranking; smaller compares as better rank.
/// Under the generalized cost model, equal deadlines break toward heavier
/// per-job drop weights (more droppable value at stake) and then toward
/// shorter job lengths (more completions per slot); both fields are the
/// constant 1 under the paper's uniform model, so the ranking degenerates
/// to the original (idle, deadline, delay bound, color) order there.
struct EdfKey {
  bool idle = false;
  Round color_deadline = 0;
  Cost weight = 1;    ///< per-job drop cost of the color (descending)
  Round length = 1;   ///< per-job execution length (ascending)
  Round delay_bound = 0;
  ColorId color = 0;

  friend bool operator<(const EdfKey& a, const EdfKey& b) {
    if (a.idle != b.idle) return !a.idle;  // nonidle ranks first
    if (a.color_deadline != b.color_deadline)
      return a.color_deadline < b.color_deadline;
    if (a.weight != b.weight) return a.weight > b.weight;  // heavier first
    if (a.length != b.length) return a.length < b.length;  // shorter first
    if (a.delay_bound != b.delay_bound) return a.delay_bound < b.delay_bound;
    return a.color < b.color;
  }
};

/// Sort key for the dLRU recency ranking; smaller compares as better rank.
struct LruKey {
  Round timestamp = 0;
  ColorId color = 0;

  friend bool operator<(const LruKey& a, const LruKey& b) {
    if (a.timestamp != b.timestamp)
      return a.timestamp > b.timestamp;  // most recent first
    return a.color < b.color;
  }
};

/// Sorts `colors` best-rank-first by the EDF color ranking.
inline void edf_sort(std::vector<ColorId>& colors,
                     const EligibilityTracker& tracker,
                     const PendingJobs& pending) {
  std::vector<EdfKey> keys;
  keys.reserve(colors.size());
  for (const ColorId c : colors) {
    keys.push_back(EdfKey{pending.idle(c), tracker.color_deadline(c),
                          tracker.drop_cost(c), tracker.length(c),
                          tracker.delay_bound(c), c});
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < colors.size(); ++i) colors[i] = keys[i].color;
}

/// Sorts `colors` most-recent-timestamp-first (dLRU order) as of round
/// `now`, ties by ascending ColorId.
inline void lru_sort(std::vector<ColorId>& colors,
                     const EligibilityTracker& tracker, Round now) {
  std::vector<LruKey> keys;
  keys.reserve(colors.size());
  for (const ColorId c : colors) {
    keys.push_back(LruKey{tracker.timestamp(c, now), c});
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < colors.size(); ++i) colors[i] = keys[i].color;
}

}  // namespace rrs::testing
