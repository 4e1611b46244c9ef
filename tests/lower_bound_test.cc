// Tests for offline/lower_bound: certified lower bounds on OPT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "offline/state_space.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

TEST(LowerBound, ConfigureOrDropSumsPerColorMinima) {
  InstanceBuilder builder;
  builder.delta(10);
  const ColorId small = builder.add_color(4);   // 3 jobs < Delta
  const ColorId large = builder.add_color(4);   // 25 jobs > Delta
  builder.add_jobs(small, 0, 3);
  builder.add_jobs(large, 0, 4).add_jobs(large, 4, 4);
  builder.add_jobs(large, 8, 4).add_jobs(large, 12, 4);
  builder.add_jobs(large, 16, 4).add_jobs(large, 20, 4);
  builder.add_jobs(large, 24, 1);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_EQ(lb.configure_or_drop, 3 + 10);
}

TEST(LowerBound, CapacityDetectsOverload) {
  // 10 jobs must finish within 2 rounds on m = 1: at least 8 drop.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 10);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_GE(lb.capacity, 8);
}

TEST(LowerBound, CapacityScalesWithM) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 10);
  const Instance inst = builder.build();
  EXPECT_GT(offline_lower_bound(inst, 1).capacity,
            offline_lower_bound(inst, 4).capacity);
}

TEST(LowerBound, CapacitySumsDisjointWindows) {
  // Two overloaded windows far apart: the per-scale sum must count both.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 6);    // 4 forced drops at m = 1
  builder.add_jobs(c, 64, 6);   // 4 more
  const Instance inst = builder.build();
  EXPECT_GE(offline_lower_bound(inst, 1).capacity, 8);
}

TEST(LowerBound, ZeroForEmptyInstance) {
  InstanceBuilder builder;
  builder.add_color(4);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_EQ(lb.best(), 0);
}

TEST(LowerBound, RejectsBadM) {
  InstanceBuilder builder;
  builder.add_color(4);
  const Instance inst = builder.build();
  EXPECT_THROW((void)offline_lower_bound(inst, 0), InputError);
}

TEST(LowerBound, NeverExceedsExactOptimum) {
  // The defining soundness property, cross-checked against the DP on a
  // grid of small random instances.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 3;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 16;
    params.delta = 2;
    const Instance inst = make_random_batched(params);
    for (const int m : {1, 2}) {
      const Cost opt = optimal_offline_cost(inst, m);
      const LowerBound lb = offline_lower_bound(inst, m);
      EXPECT_LE(lb.best(), opt) << "seed " << seed << " m " << m;
    }
  }
}

TEST(LowerBound, BestTakesMax) {
  LowerBound lb;
  lb.configure_or_drop = 5;
  lb.capacity = 9;
  EXPECT_EQ(lb.best(), 9);
  lb.capacity = 2;
  EXPECT_EQ(lb.best(), 5);
  lb.lagrangian = 11;
  EXPECT_EQ(lb.best(), 11);
}

TEST(LowerBound, ConfigureOrDropUsesCheapestIncomingEdgeUnderMatrixDelta) {
  // With a transition matrix, a color's "configure" arm must price at its
  // cheapest incoming edge (including cold), not the scalar Delta.
  InstanceBuilder builder;
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.reconfig_cost(a, 7).reconfig_cost(b, 9);
  builder.transition_cost(a, b, 2).transition_cost(b, a, 8);
  builder.add_jobs(a, 0, 3).add_jobs(b, 0, 3);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 2);
  // min_incoming(a) = min(cold 7, b->a 8) = 7 > 3 jobs -> drop arm 3;
  // min_incoming(b) = min(cold 9, a->b 2) = 2 < 3 jobs -> configure arm 2.
  EXPECT_EQ(lb.configure_or_drop, 3 + 2);
}

TEST(LowerBound, CapacityAccountsForJobLengths) {
  // 4 jobs of length 3 demand 12 execution units within a 4-round window
  // on m = 1: at least ceil((12 - 4) / 3) = 3 charges of w_min = 1 drop.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(4, 1, 3);
  builder.add_jobs(c, 0, 4);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_GE(lb.capacity, 3);
  EXPECT_LE(lb.best(), optimal_offline_cost(inst, 1));
}

TEST(LowerBound, SoundnessUnderMatrixDeltaAndLengths) {
  // LB soundness on instances mixing matrix transition costs with
  // multi-round job lengths, cross-checked against the DP.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed);
    InstanceBuilder builder;
    std::vector<ColorId> ids;
    for (int c = 0; c < 3; ++c) {
      ids.push_back(builder.add_color(3 + rng.uniform(0, 2),
                                      1 + rng.uniform(0, 2),
                                      1 + rng.uniform(0, 2)));
    }
    for (const ColorId c : ids) builder.reconfig_cost(c, 2 + rng.uniform(0, 3));
    for (const ColorId from : ids) {
      for (const ColorId to : ids) {
        if (from != to) builder.transition_cost(from, to, 1 + rng.uniform(0, 4));
      }
    }
    for (int i = 0; i < 4; ++i) {
      builder.add_jobs(ids[static_cast<std::size_t>(rng.uniform(0, 2))],
                       rng.uniform(0, 10), 1 + rng.uniform(0, 2));
    }
    const Instance inst = builder.build();
    for (const int m : {1, 2}) {
      const Cost opt = optimal_offline_cost(inst, m);
      EXPECT_LE(offline_lower_bound(inst, m).best(), opt)
          << "seed " << seed << " m " << m;
      EXPECT_LE(offline_lower_bound_full(inst, m).best(), opt)
          << "seed " << seed << " m " << m;
    }
  }
}

TEST(Lagrangian, DominatesLb1FromFirstIteration) {
  // The lambda = 0 starting point evaluates to exactly LB1, so even a
  // single iteration can never fall below the configure-or-drop bound;
  // zero iterations is invalid input.
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 4);
  const Instance inst = builder.build();
  LagrangianOptions options;
  options.iterations = 0;
  EXPECT_THROW((void)lagrangian_lower_bound(inst, 1, options), InputError);
  options.iterations = 1;
  EXPECT_GE(lagrangian_lower_bound(inst, 1, options),
            offline_lower_bound(inst, 1).configure_or_drop);
}

TEST(Lagrangian, UpperBoundHintDoesNotBreakSoundness) {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 4);
  const Instance inst = builder.build();
  const Cost opt = optimal_offline_cost(inst, 1);  // == 7
  for (const Cost hint : {Cost{1}, Cost{7}, Cost{100}}) {
    LagrangianOptions options;
    options.upper_bound_hint = hint;
    EXPECT_LE(lagrangian_lower_bound(inst, 1, options), opt)
        << "hint " << hint;
  }
}

TEST(Lagrangian, RespectsOptOnRandomBatched) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 3;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 16;
    params.delta = 2;
    const Instance inst = make_random_batched(params);
    for (const int m : {1, 2}) {
      const Cost opt = optimal_offline_cost(inst, m);
      const LowerBound lb = offline_lower_bound_full(inst, m);
      EXPECT_LE(lb.lagrangian, opt) << "seed " << seed << " m " << m;
      EXPECT_GE(lb.lagrangian,
                std::max(lb.configure_or_drop, lb.capacity));
    }
  }
}

TEST(SuffixOracle, AdmissibleAndTightAfterArrivals) {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 4);
  const Instance inst = builder.build();
  const SuffixBoundOracle oracle(inst, 1);
  const std::vector<ColorId> cache(1, kBlack);

  // Root (empty profile): admissible, never above OPT = 7.
  const offdp::Profile empty;
  EXPECT_LE(oracle.bound(0, cache, empty), optimal_offline_cost(inst, 1));

  // After ingesting the round-0 burst the per-color pending weight is
  // visible, so the configure-or-drop arm prices both colors: h >= 6.
  offdp::Profile profile(static_cast<std::size_t>(inst.num_colors()));
  offdp::add_arrivals(profile, inst.arrivals_in_round(0));
  const Cost h1 = oracle.bound(1, cache, profile);
  EXPECT_GE(h1, 6);
  EXPECT_LE(h1, optimal_offline_cost(inst, 1));

  // Past the horizon only the pending weight itself remains.
  EXPECT_EQ(oracle.bound(inst.horizon(), cache, empty), 0);
}

// ---------------------------------------------------------------------------
// Reference twins of the bound kernels: straightforward versions kept
// here to pin the library's faster kernels bit for bit.

/// The per-suffix bound as a per-scale loop over every bucket (the
/// library walks each bucket once and prefix-sums over scales).
class ReferenceSuffixBound {
 public:
  ReferenceSuffixBound(const Instance& instance, int m)
      : instance_(&instance), m_(m) {
    const CostModel& model = instance.cost_model();
    const Round horizon = instance.horizon();
    const auto colors = static_cast<std::size_t>(instance.num_colors());
    for (ColorId c = 0; c < instance.num_colors(); ++c) {
      min_inc_.push_back(model.min_incoming_cost(c));
    }
    future_weight_.assign(
        colors, std::vector<Cost>(static_cast<std::size_t>(horizon) + 1, 0));
    for (const Job& job : instance.jobs()) {
      if (job.arrival < horizon) {
        future_weight_[static_cast<std::size_t>(job.color)]
                      [static_cast<std::size_t>(job.arrival)] += job.drop_cost;
      }
    }
    for (auto& per_color : future_weight_) {
      for (Round k = horizon; k-- > 0;) {
        per_color[static_cast<std::size_t>(k)] +=
            per_color[static_cast<std::size_t>(k) + 1];
      }
    }
    l_max_ = std::max<Cost>(1, model.max_length());
    for (const Job& job : instance.jobs()) {
      const Cost w = model.drop_cost(job.color);
      if (w_min_ == 0 || w < w_min_) w_min_ = w;
    }
    max_scale_ = horizon > 0 ? floor_log2(horizon) + 1 : 0;
    contained_units_.assign(
        static_cast<std::size_t>(max_scale_) + 1,
        std::vector<Cost>(static_cast<std::size_t>(horizon) + 2, 0));
    suffix_window_drops_.resize(static_cast<std::size_t>(max_scale_) + 1);
    if (horizon == 0 || instance.jobs().empty()) return;
    for (int s = 0; s <= max_scale_; ++s) {
      const Round width = Round{1} << s;
      auto& diff = contained_units_[static_cast<std::size_t>(s)];
      for (const Job& job : instance.jobs()) {
        const Round d = std::min(job.deadline(), horizon);
        if (d - job.arrival > width) continue;
        const Round lo = std::max<Round>(0, d - width);
        const Round hi = job.arrival;
        if (hi < lo) continue;
        diff[static_cast<std::size_t>(lo)] += Cost{job.length};
        diff[static_cast<std::size_t>(hi) + 1] -= Cost{job.length};
      }
      for (std::size_t k = 1; k < diff.size(); ++k) diff[k] += diff[k - 1];
      const Round num_windows = (horizon + width - 1) / width;
      std::vector<Cost> charge(static_cast<std::size_t>(num_windows) + 1, 0);
      for (const Job& job : instance.jobs()) {
        const Round d = std::min(job.deadline(), horizon);
        const Round start = floor_multiple(job.arrival, width);
        if (d <= start + width) {
          charge[static_cast<std::size_t>(start / width)] += Cost{job.length};
        }
      }
      for (Round i = 0; i < num_windows; ++i) {
        const Cost excess = std::max<Cost>(
            0, charge[static_cast<std::size_t>(i)] - Cost{m} * width);
        charge[static_cast<std::size_t>(i)] =
            w_min_ > 0 ? (excess + l_max_ - 1) / l_max_ * w_min_ : 0;
      }
      auto& suffix = suffix_window_drops_[static_cast<std::size_t>(s)];
      suffix.assign(static_cast<std::size_t>(num_windows) + 1, 0);
      for (Round i = num_windows; i-- > 0;) {
        suffix[static_cast<std::size_t>(i)] =
            suffix[static_cast<std::size_t>(i) + 1] +
            charge[static_cast<std::size_t>(i)];
      }
    }
  }

  [[nodiscard]] Cost bound(Round round, const std::vector<ColorId>& cache,
                           const offdp::Profile& profile) const {
    const Instance& instance = *instance_;
    if (round >= instance.horizon()) {
      return offdp::total_pending_weight(profile, instance);
    }
    Cost guaranteed = 0;
    Cost h_conf = 0;
    for (std::size_t c = 0; c < profile.size(); ++c) {
      const Cost w = instance.drop_cost(static_cast<ColorId>(c));
      Cost savable = 0;
      for (const auto& [deadline, count] : profile[c].buckets) {
        if (deadline <= round) {
          guaranteed += count * w;
        } else {
          savable += count * w;
        }
      }
      const Cost future = future_weight_[c][static_cast<std::size_t>(round)];
      if (savable + future == 0) continue;
      if (std::find(cache.begin(), cache.end(), static_cast<ColorId>(c)) ==
          cache.end()) {
        h_conf += std::min(min_inc_[c], savable + future);
      }
    }
    Cost h_cap = 0;
    for (int s = 0; s <= max_scale_; ++s) {
      const Round width = Round{1} << s;
      Cost units = contained_units_[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(round)];
      for (std::size_t c = 0; c < profile.size(); ++c) {
        const Round len = instance.length(static_cast<ColorId>(c));
        bool first = true;
        for (const auto& [deadline, count] : profile[c].buckets) {
          if (deadline > round && deadline <= round + width) {
            units += count * Cost{len};
            if (first) units -= profile[c].front_done;
          }
          if (deadline > round) first = false;
        }
      }
      Cost charge = 0;
      const Cost excess = units - Cost{m_} * width;
      if (excess > 0 && w_min_ > 0) {
        charge = (excess + l_max_ - 1) / l_max_ * w_min_;
      }
      const auto& suffix = suffix_window_drops_[static_cast<std::size_t>(s)];
      if (!suffix.empty()) {
        const Round tail = (round + width + width - 1) / width;
        if (tail < static_cast<Round>(suffix.size())) {
          charge += suffix[static_cast<std::size_t>(tail)];
        }
      }
      h_cap = std::max(h_cap, charge);
    }
    return guaranteed + std::max(h_conf, h_cap);
  }

 private:
  const Instance* instance_;
  int m_;
  Cost w_min_ = 0;
  Cost l_max_ = 1;
  int max_scale_ = 0;
  std::vector<Cost> min_inc_;
  std::vector<std::vector<Cost>> future_weight_;
  std::vector<std::vector<Cost>> contained_units_;
  std::vector<std::vector<Cost>> suffix_window_drops_;
};

/// LB3 with a left-to-right scan for each window minimum (the library
/// answers each window from a sparse table).
Cost reference_lagrangian(const Instance& instance, int m,
                          const LagrangianOptions& options) {
  const CostModel& model = instance.cost_model();
  const Round horizon = instance.horizon();
  const auto colors = static_cast<std::size_t>(instance.num_colors());
  std::vector<Cost> min_inc(colors);
  std::vector<Cost> weight(colors);
  Cost lb1 = 0;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    min_inc[static_cast<std::size_t>(c)] = model.min_incoming_cost(c);
    weight[static_cast<std::size_t>(c)] = instance.weight_of_color(c);
    lb1 += std::min(min_inc[static_cast<std::size_t>(c)],
                    weight[static_cast<std::size_t>(c)]);
  }
  if (horizon <= 0 || instance.jobs().empty()) return lb1;
  struct JobWindow {
    Round a = 0, b = 0;
    Cost w = 0;
    Cost len = 1;
  };
  std::vector<std::vector<JobWindow>> windows(colors);
  std::vector<Cost> forced(colors, 0);
  for (const Job& job : instance.jobs()) {
    const Round b = std::min(job.deadline(), horizon);
    if (b <= job.arrival) {
      forced[static_cast<std::size_t>(job.color)] += job.drop_cost;
      continue;
    }
    windows[static_cast<std::size_t>(job.color)].push_back(
        {job.arrival, b, job.drop_cost, Cost{job.length}});
  }
  Cost ub = options.upper_bound_hint;
  if (ub < 0) ub = instance.total_weight();
  const double ub_d = static_cast<double>(std::max<Cost>(ub, lb1 + 1));
  std::vector<double> lambda(static_cast<std::size_t>(horizon), 0.0);
  std::vector<double> grad(static_cast<std::size_t>(horizon), 0.0);
  std::vector<Round> argmin;
  double best = static_cast<double>(lb1);
  double scale = 1.0;
  int stall = 0;
  for (int it = 0; it < options.iterations; ++it) {
    double value = 0.0;
    for (Round t = 0; t < horizon; ++t) {
      value -= static_cast<double>(m) * lambda[static_cast<std::size_t>(t)];
      grad[static_cast<std::size_t>(t)] = -static_cast<double>(m);
    }
    for (std::size_t ci = 0; ci < colors; ++ci) {
      double hosted = static_cast<double>(min_inc[ci] + forced[ci]);
      argmin.clear();
      for (const JobWindow& jw : windows[ci]) {
        double lo = lambda[static_cast<std::size_t>(jw.a)];
        Round lo_t = jw.a;
        for (Round t = jw.a + 1; t < jw.b; ++t) {
          if (lambda[static_cast<std::size_t>(t)] < lo) {
            lo = lambda[static_cast<std::size_t>(t)];
            lo_t = t;
          }
        }
        const double redeemed = static_cast<double>(jw.len) * lo;
        if (redeemed < static_cast<double>(jw.w)) {
          hosted += redeemed;
          argmin.push_back(lo_t);
        } else {
          hosted += static_cast<double>(jw.w);
          argmin.push_back(-1);
        }
      }
      const double never = static_cast<double>(weight[ci]);
      if (never <= hosted) {
        value += never;
      } else {
        value += hosted;
        std::size_t ji = 0;
        for (const JobWindow& jw : windows[ci]) {
          const Round t = argmin[ji++];
          if (t >= 0) {
            grad[static_cast<std::size_t>(t)] += static_cast<double>(jw.len);
          }
        }
      }
    }
    if (value > best) {
      best = value;
      stall = 0;
    } else if (++stall >= 20) {
      scale *= 0.5;
      stall = 0;
    }
    double norm2 = 0.0;
    for (Round t = 0; t < horizon; ++t) {
      norm2 += grad[static_cast<std::size_t>(t)] *
               grad[static_cast<std::size_t>(t)];
    }
    if (norm2 < 1e-12) break;
    const double step = scale * std::max(ub_d - value, 1.0) / norm2;
    for (Round t = 0; t < horizon; ++t) {
      lambda[static_cast<std::size_t>(t)] = std::max(
          0.0, lambda[static_cast<std::size_t>(t)] +
                   step * grad[static_cast<std::size_t>(t)]);
    }
  }
  return std::max<Cost>(lb1, static_cast<Cost>(std::ceil(best - 1e-6)));
}

/// Seeded instance with lengths 1-3, weights 1-5, and per-color or
/// per-pair reconfiguration prices, over up to 6 colors.
Instance twin_instance(std::uint64_t seed) {
  Rng rng(seed * 104729 + 17);
  InstanceBuilder builder;
  builder.delta(1 + rng.uniform(0, 4));
  const int colors = static_cast<int>(2 + rng.uniform(0, 4));
  std::vector<ColorId> ids;
  for (int c = 0; c < colors; ++c) {
    ids.push_back(builder.add_color(1 + rng.uniform(0, 9),
                                    1 + rng.uniform(0, 4),
                                    1 + rng.uniform(0, 2)));
  }
  if (seed % 3 != 0) {
    for (const ColorId c : ids) builder.reconfig_cost(c, 1 + rng.uniform(0, 4));
  }
  if (seed % 3 == 2) {
    for (const ColorId from : ids) {
      for (const ColorId to : ids) {
        if (from != to) {
          builder.transition_cost(from, to, 1 + rng.uniform(0, 6));
        }
      }
    }
  }
  const Round horizon = 6 + rng.uniform(0, 40);
  const auto batches = 2 + rng.uniform(0, 12);
  for (std::int64_t i = 0; i < batches; ++i) {
    builder.add_jobs(ids[static_cast<std::size_t>(
                         rng.uniform(0, colors - 1))],
                     rng.uniform(0, horizon - 1), 1 + rng.uniform(0, 3));
  }
  return builder.build();
}

/// Random canonical profile at `round`: per color up to four ascending
/// buckets whose deadlines run from below `round` (guaranteed drops) to
/// past the horizon, over every dyadic scale, with a partial front.
offdp::Profile random_profile(const Instance& inst, Round round, Rng& rng) {
  offdp::Profile profile(static_cast<std::size_t>(inst.num_colors()));
  const Round reach = 2 * ceil_pow2(inst.horizon() + 1);
  for (ColorId c = 0; c < inst.num_colors(); ++c) {
    offdp::ColorQueue& q = profile[static_cast<std::size_t>(c)];
    Round deadline = std::max<Round>(0, round - rng.uniform(0, 3));
    const auto buckets = rng.uniform(0, 4);
    for (std::int64_t b = 0; b < buckets; ++b) {
      deadline += 1 + rng.uniform(0, rng.bernoulli(0.3) ? reach : 4);
      q.buckets.emplace_back(deadline, 1 + rng.uniform(0, 3));
    }
    if (!q.buckets.empty()) q.front_done = rng.uniform(0, inst.length(c) - 1);
  }
  return profile;
}

/// Random configuration multiset of m slots, sorted ascending.
std::vector<ColorId> random_config(const Instance& inst, int m, Rng& rng) {
  std::vector<ColorId> config;
  for (int i = 0; i < m; ++i) {
    config.push_back(
        static_cast<ColorId>(rng.uniform(-1, inst.num_colors() - 1)));
  }
  std::sort(config.begin(), config.end());
  return config;
}

TEST(SuffixOracle, BoundMatchesPerScaleReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Instance inst = twin_instance(seed);
    for (const int m : {1, 2, 3}) {
      const SuffixBoundOracle oracle(inst, m);
      const ReferenceSuffixBound reference(inst, m);
      Rng rng(seed * 31 + static_cast<std::uint64_t>(m));
      for (int trial = 0; trial < 40; ++trial) {
        const Round round = rng.uniform(0, inst.horizon());
        const offdp::Profile profile = random_profile(inst, round, rng);
        const std::vector<ColorId> cache = random_config(inst, m, rng);
        ASSERT_EQ(oracle.bound(round, cache, profile),
                  reference.bound(round, cache, profile))
            << "seed " << seed << " m " << m << " round " << round;
      }
    }
  }
}

TEST(SuffixOracle, ChildBoundMatchesFullBound) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Instance inst = twin_instance(seed);
    for (const int m : {1, 2, 3}) {
      const SuffixBoundOracle oracle(inst, m);
      const ReferenceSuffixBound reference(inst, m);
      SuffixBoundOracle::Frame frame;
      Rng rng(seed * 37 + static_cast<std::uint64_t>(m));
      for (int trial = 0; trial < 10; ++trial) {
        const Round round = rng.uniform(1, inst.horizon() - 1);
        const offdp::Profile parent = random_profile(inst, round - 1, rng);
        oracle.prepare(round, parent, frame);
        std::vector<ColorId> candidates;
        for (ColorId c = 0; c < inst.num_colors(); ++c) candidates.push_back(c);
        std::vector<ColorId> scratch;
        offdp::enumerate_multisets(
            candidates, m, scratch, [&](const std::vector<ColorId>& config) {
              offdp::Profile child = parent;
              for (const ColorId c : config) {
                if (c != kBlack) offdp::execute_one(child, c, inst);
              }
              const Cost want = reference.bound(round, config, child);
              ASSERT_EQ(oracle.bound(round, config, child), want);
              ASSERT_EQ(oracle.child_bound(frame, config, parent, child), want)
                  << "seed " << seed << " m " << m << " round " << round;
            });
      }
    }
  }
}

TEST(Lagrangian, MatchesLinearScanReference) {
  std::vector<Instance> instances;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    instances.push_back(twin_instance(seed));
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    PoissonParams params;  // E5-style cell: power-of-two delays to 32
    params.seed = seed;
    params.delta = 4;
    params.num_colors = 8;
    params.min_delay = 4;
    params.max_delay = 32;
    params.mean_rate = 0.15;
    params.horizon = 128;
    instances.push_back(make_poisson(params));
  }
  for (const Instance& inst : instances) {
    for (const int m : {1, 2}) {
      const Cost hint = best_offline_heuristic_cost(inst, m);
      for (const int iterations : {1, 50, 300}) {
        for (const Cost ub : {Cost{-1}, hint}) {
          LagrangianOptions options;
          options.iterations = iterations;
          options.upper_bound_hint = ub;
          ASSERT_EQ(lagrangian_lower_bound(inst, m, options),
                    reference_lagrangian(inst, m, options))
              << "m " << m << " iterations " << iterations << " hint " << ub;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rrs
