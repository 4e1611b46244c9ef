// The configuration-multiset state space shared by the exact offline
// solvers (the round-synchronous DP in optimal.cc and the best-first
// branch-and-bound in exact_bnb.cc).
//
// A state is (round, configured multiset, pending profile).  The profile
// holds, per color, the deadlines of pending jobs with multiplicity plus
// the execution units already applied to the earliest job — exactly the
// information the four-phase round semantics need.  Both solvers share:
//
//   * the canonical encoding (so transposition keys compare),
//   * the drop/arrival/execute phase transforms,
//   * configuration-multiset enumeration with the configure-on-demand
//     pruning (only colors with pending jobs, plus currently configured
//     ones, are candidates — delaying a reconfiguration to the round where
//     it first executes never costs more),
//   * transition pricing between multisets: per-target for the scalar and
//     vector tiers, an exact min-cost bijection for the matrix tier
//     (bitmask DP for m <= 8, Hungarian beyond), and
//   * the forward replay that turns a per-round configuration sequence
//     into a validator-checkable Schedule charging exactly the solver's
//     transition prices.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"

namespace rrs::offdp {

/// Per-color pending queue: deadlines of pending jobs with multiplicity,
/// ascending, plus the execution units already applied to the earliest
/// pending job (0 <= front_done < length(color); dropping the front job
/// forfeits the partial work and charges the full drop weight).
struct ColorQueue {
  std::vector<std::pair<Round, Cost>> buckets;
  Round front_done = 0;

  friend bool operator==(const ColorQueue&, const ColorQueue&) = default;
};

/// Pending profile, kept canonical so profiles compare.
using Profile = std::vector<ColorQueue>;

/// Flattened state key: configured multiset (sorted) + profile.
using Key = std::vector<std::int64_t>;

/// Appends the canonical comparable key of (cache, profile) to `out`: the
/// cache entries, a separator (-7), then per color with pending jobs the
/// color, its front_done and one (-deadline - 2, count) pair per bucket
/// (deadline entries are <= -2, so a nonnegative entry starts the next
/// color).
void encode(const std::vector<ColorId>& cache, const Profile& profile,
            Key& out);

/// Inverse of encode for a key of an m-slot cache: fills `cache` and
/// `profile` (whose size, the color count, is kept; colors absent from
/// the key come back empty).  Both reuse their capacity.
void decode(std::span<const std::int64_t> key, int m,
            std::vector<ColorId>& cache, Profile& profile);

/// Drops entries with deadline <= round; returns the drop cost incurred
/// (count x per-color drop cost; partially-executed jobs charge in full).
Cost expire(Profile& profile, Round round, const Instance& instance);

/// Adds one round's arrivals to the profile (deadline buckets stay
/// ascending because per-color delay bounds are fixed).
void add_arrivals(Profile& profile, std::span<const Job> arrivals);

/// Applies one execution unit to the earliest-deadline job of `color` if
/// any (the model's EDF-within-color discipline); removes the job once it
/// has received length(color) units.  Returns false when the color is idle.
bool execute_one(Profile& profile, ColorId color, const Instance& instance);

/// Total drop weight of every job still pending in `profile`.
[[nodiscard]] Cost total_pending_weight(const Profile& profile,
                                        const Instance& instance);

/// Enumerates all multisets of size m over {kBlack} + `candidates`
/// (candidates sorted ascending), invoking `visit` with each sorted
/// multiset.  kBlack entries stand for unused slots.  `scratch` must be
/// empty on entry and is empty again on return.
template <typename Visit>
void enumerate_multisets(const std::vector<ColorId>& candidates, int m,
                         std::vector<ColorId>& scratch, Visit&& visit,
                         std::size_t from = 0) {
  if (static_cast<int>(scratch.size()) == m) {
    visit(static_cast<const std::vector<ColorId>&>(scratch));
    return;
  }
  // kBlack (skip slot) allowed only as a prefix to keep multisets sorted.
  if (scratch.empty() || scratch.back() == kBlack) {
    scratch.push_back(kBlack);
    enumerate_multisets(candidates, m, scratch, visit, from);
    scratch.pop_back();
  }
  for (std::size_t i = from; i < candidates.size(); ++i) {
    scratch.push_back(candidates[i]);
    enumerate_multisets(candidates, m, scratch, visit, i);
    scratch.pop_back();
  }
}

/// Matrix-tier exact min-cost bijection turning per-slot `sources` into
/// `targets` (same size; kBlack = unused slot): keeping a slot's color or
/// retiring it to black is free, everything else pays Delta(from -> to).
/// Bitmask DP over source slots for m <= 8, Hungarian (O(m^3)) beyond;
/// optionally reconstructs the per-target source choice (deterministic).
Cost matrix_assignment(const std::vector<ColorId>& sources,
                       const std::vector<ColorId>& targets,
                       const CostModel& model,
                       std::vector<int>* out_assign = nullptr);

/// Summed Delta(from -> to) of turning multiset `a` into multiset `b`.
/// Scalar and vector tiers price per unmatched target (the cost depends
/// only on the target color, so matching identical colors first is
/// optimal); the matrix tier needs the exact bijection.
Cost reconfig_cost_between(const std::vector<ColorId>& a,
                           const std::vector<ColorId>& b,
                           const CostModel& model);

/// Replays a per-round configuration-multiset sequence
/// (configs.size() == instance.horizon()) forward, assigning multiset
/// slots to concrete resources and executing EDF-within-color, producing a
/// Schedule whose validator cost charges exactly the solver's per-round
/// transition prices (reconfig_cost_between) plus the drops the replay
/// forces.
[[nodiscard]] Schedule replay_configs(
    const Instance& instance, int m,
    const std::vector<std::vector<ColorId>>& configs);

}  // namespace rrs::offdp
