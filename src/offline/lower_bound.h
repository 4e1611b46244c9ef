// Certified lower bounds on the offline optimum OFF.
//
// The competitive-ratio experiments need a denominator that provably does
// not exceed Cost_OFF.  Three bounds are computed and combined by max():
//
//   LB1 (configure-or-drop): any reconfiguration event targeting color l
//       costs at least min_f Delta(f -> l) (== Delta under the scalar
//       model), so OFF either pays at least that to host l at least once,
//       or forfeits l's total drop weight W_l.  Hence
//       Cost_OFF >= sum_l min(min_f Delta(f -> l), W_l).
//
//   LB2 (capacity): with m uni-speed resources, at most m * |W| execution
//       units fit inside any window W; jobs whose whole [arrival, deadline)
//       window lies inside W demand length(color) units each, and each
//       dropped job relieves at most l_max units at a price of at least
//       w_min, so excess units force at least
//       ceil(excess / l_max) * w_min drop cost (== excess jobs under the
//       paper's unit lengths and weights).  Dyadic windows of one scale are
//       disjoint, so the per-scale sum of excesses is a valid bound; we
//       take the max over scales.
//
//   LB3 (Lagrangian relaxation): dualize the per-round capacity coupling
//       with multipliers lambda_t >= 0.  Any feasible schedule uses at most
//       m units per round, so for every lambda,
//
//         Cost_OFF >= L(lambda)
//                   = -m * sum_t lambda_t
//                     + sum_c min(W_c, min_inc(c) + S_c(lambda)),
//         S_c(lambda) = sum_{jobs j of c} min(w_j,
//                         length(c) * min_{t in window(j)} lambda_t),
//
//       because a schedule either never hosts c (forfeiting W_c) or pays
//       min_inc(c) once, and then each job of c is either dropped (w_j) or
//       receives length(c) units inside its window, each unit redeeming at
//       least the window-minimum multiplier.  L is concave in lambda; a
//       projected subgradient ascent with a Polyak step searches for a
//       maximizer.  L(0) equals LB1 exactly, so the iterate-max never falls
//       below LB1; offline_lower_bound_full() additionally clamps the
//       reported LB3 to max(LB1, LB2) so it can serve directly as the
//       certified denominator.
//
// All bounds are exact lower bounds (no slack assumptions), so measured
// ratios  cost_online / LB  are upper bounds on the true competitive
// ratio — conservative in the right direction.
//
// SuffixBoundOracle packages per-suffix versions of LB1/LB2 as the
// admissible node bound of the branch-and-bound solver (exact_bnb.{h,cc}).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "offline/state_space.h"

namespace rrs {

/// Components of the offline lower bound for an instance and m resources.
struct LowerBound {
  Cost configure_or_drop = 0;  ///< LB1
  Cost capacity = 0;           ///< LB2 (best dyadic scale)
  Cost lagrangian = 0;         ///< LB3 (0 when not computed)
  [[nodiscard]] Cost best() const {
    Cost b = configure_or_drop > capacity ? configure_or_drop : capacity;
    return lagrangian > b ? lagrangian : b;
  }
};

/// Knobs for the LB3 subgradient ascent.
struct LagrangianOptions {
  /// Subgradient iterations (a few hundred is plenty at test scales).
  int iterations = 300;
  /// Known upper bound on OFF (any feasible schedule cost) used by the
  /// Polyak step size; < 0 derives the trivial drop-everything bound.
  Cost upper_bound_hint = -1;
};

/// Computes LB1 and LB2 for `instance` against an offline algorithm with
/// `m` resources (LB3 left at 0 — use offline_lower_bound_full when the
/// extra subgradient work is worth it).
[[nodiscard]] LowerBound offline_lower_bound(const Instance& instance, int m);

/// LB1, LB2, and LB3; the reported `lagrangian` is clamped to
/// max(LB1, LB2) so it is usable directly as the strongest denominator.
[[nodiscard]] LowerBound offline_lower_bound_full(
    const Instance& instance, int m, const LagrangianOptions& options = {});

/// Raw LB3: projected subgradient ascent on the Lagrangian dual of the
/// per-round capacity relaxation.  Always >= LB1 (the lambda = 0 iterate
/// evaluates to exactly LB1); a certified lower bound on OFF.
[[nodiscard]] Cost lagrangian_lower_bound(
    const Instance& instance, int m, const LagrangianOptions& options = {});

/// Admissible per-suffix lower bound h(state) for best-first search over
/// the configuration-multiset state space.
///
/// A state is (next_round k, configured multiset, pending profile) where
/// the profile holds exactly the not-yet-executed jobs with arrival < k
/// (see exact_bnb.cc).  bound() returns a certified lower bound on the
/// cost any schedule must still pay over rounds [k, horizon):
///
///   guaranteed   drop weight of pending jobs with deadline <= k (they
///                expire before they can receive another unit), plus
///   max(h_conf,  per-suffix LB1 over colors not currently configured:
///                min(min_inc(c), pending + future weight of c),
///       h_cap)   per-suffix LB2: for each dyadic scale, the excess of the
///                anchored window [k, k + 2^s) — pending jobs' remaining
///                units plus precomputed contained future units — plus the
///                aligned far-future windows' precomputed excess charges.
///
/// Construction precomputes per-color future-arrival weight suffixes,
/// per-scale anchored contained-unit tables (range adds over the window
/// start), and per-scale aligned-window excess suffix sums, stored round-
/// major so one round's row is contiguous.  bound() then walks each bucket
/// once: a live bucket joins the anchored window at scale
/// ceil_log2(deadline - round) and a prefix sum over the scales yields
/// every window's units, so a call is O(colors + buckets + scales) with no
/// allocation.
///
/// The search prices its children incrementally: prepare() splits one
/// parent profile into per-color shares at the children's round, and
/// child_bound() re-prices only the colors a child configures (its
/// executed colors among them), returning exactly bound() of the child.
class SuffixBoundOracle {
 public:
  /// Dyadic scales a horizon can need (max_scale <= 63).
  static constexpr std::size_t kScales = 64;

  /// One parent profile's per-color shares at the children's round (see
  /// prepare()); reused across expansions.
  class Frame {
    friend class SuffixBoundOracle;
    Round round_ = 0;
    Cost guaranteed_ = 0;
    Cost h_conf_ = 0;         // summed configure-or-drop terms
    std::vector<Cost> conf_;  // per color: its configure-or-drop term
    std::array<Cost, kScales> units_{};  // per scale: units joining there
  };

  SuffixBoundOracle(const Instance& instance, int m);

  /// Lower bound on the remaining cost from `(round, cache, profile)`.
  /// At round == horizon this is exactly the pending drop weight.
  [[nodiscard]] Cost bound(Round round, const std::vector<ColorId>& cache,
                           const offdp::Profile& profile) const;

  /// Fills `frame` with the shares of `parent` priced at `round`
  /// (< horizon), the round of the children about to be priced.
  void prepare(Round round, const offdp::Profile& parent,
               Frame& frame) const;

  /// bound(round, config, child) for a child of the prepared parent:
  /// `config` sorted ascending, and `child` differing from the parent
  /// only in colors of `config`.
  [[nodiscard]] Cost child_bound(const Frame& frame,
                                 const std::vector<ColorId>& config,
                                 const offdp::Profile& parent,
                                 const offdp::Profile& child) const;

 private:
  /// Adds `sign` times color c's share at `round` to `guaranteed` (drop
  /// weight of buckets with deadline <= round) and `units` (per scale, the
  /// units of each live bucket at the scale where it joins the anchored
  /// window); returns c's savable weight (live buckets).
  Cost add_share(std::size_t c, Round round, const offdp::ColorQueue& q,
                 Cost sign, Cost& guaranteed, Cost* units) const;
  /// guaranteed + max(h_conf, h_cap), h_cap from the per-scale units.
  [[nodiscard]] Cost finish(Round round, Cost guaranteed, Cost h_conf,
                            const Cost* units) const;

  const Instance* instance_;
  int m_;
  Cost w_min_ = 0;   // min drop cost among colors with jobs (0: no jobs)
  Cost l_max_ = 1;   // max job length
  int max_scale_ = 0;
  std::size_t colors_ = 0;
  std::vector<Cost> drop_cost_;  // per color
  std::vector<Cost> length_;     // per color
  std::vector<Cost> min_inc_;    // per color: cheapest incoming reconfig
  // future_weight_[k * colors_ + c]: drop weight of color-c jobs with
  // arrival >= k.
  std::vector<Cost> future_weight_;
  // Per round k and scale s, at [k * (max_scale_ + 1) + s]:
  // contained_units_: execution units of jobs with arrival >= k and
  // deadline <= k + 2^s (fully inside the anchored window [k, k + 2^s));
  // tail_drops_: summed drop charges of the aligned scale-s windows wholly
  // beyond that anchored window.
  std::vector<Cost> contained_units_;
  std::vector<Cost> tail_drops_;
};

}  // namespace rrs
