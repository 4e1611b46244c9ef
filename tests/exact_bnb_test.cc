// Differential certification harness for offline/exact_bnb: the
// branch-and-bound solver must agree exactly with the DP on every
// DP-reachable instance across all three cost-model tiers, the LB3
// Lagrangian bound must dominate max(LB1, LB2) while staying below OPT,
// and every emitted certificate schedule must replay through the
// validator at exactly the claimed cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "core/validator.h"
#include "offline/exact_bnb.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

enum class Tier { kScalar, kVector, kMatrix };

struct Variant {
  Tier tier = Tier::kScalar;
  bool long_jobs = false;    // lengths in [1, 3]
  bool weighted = false;     // drop costs in [1, 5]
};

/// All twelve cost-model corners of the differential matrix.
std::vector<Variant> differential_matrix() {
  std::vector<Variant> out;
  for (const Tier tier : {Tier::kScalar, Tier::kVector, Tier::kMatrix}) {
    for (const bool long_jobs : {false, true}) {
      for (const bool weighted : {false, true}) {
        out.push_back({tier, long_jobs, weighted});
      }
    }
  }
  return out;
}

/// Small seeded instance exercising the requested cost-model corner;
/// sized to stay comfortably DP-reachable (<= 4 colors, short horizon).
Instance random_instance(std::uint64_t seed, const Variant& v) {
  Rng rng(seed * 977 + static_cast<std::uint64_t>(v.tier) * 131 +
          (v.long_jobs ? 17 : 0) + (v.weighted ? 5 : 0));
  InstanceBuilder builder;
  builder.delta(1 + rng.uniform(0, 3));
  const int colors = static_cast<int>(2 + rng.uniform(0, 2));
  std::vector<ColorId> ids;
  for (int c = 0; c < colors; ++c) {
    const Round delay = 2 + rng.uniform(0, 4);
    const Cost weight = v.weighted ? 1 + rng.uniform(0, 4) : 1;
    const Round length = v.long_jobs ? 1 + rng.uniform(0, 2) : 1;
    ids.push_back(builder.add_color(delay, weight, length));
  }
  if (v.tier != Tier::kScalar) {
    for (const ColorId c : ids) {
      builder.reconfig_cost(c, 1 + rng.uniform(0, 4));
    }
  }
  if (v.tier == Tier::kMatrix) {
    for (const ColorId from : ids) {
      for (const ColorId to : ids) {
        if (from != to) {
          builder.transition_cost(from, to, 1 + rng.uniform(0, 5));
        }
      }
    }
  }
  const Round horizon = 8 + rng.uniform(0, 6);
  const auto batches = 3 + rng.uniform(0, 4);
  for (std::int64_t i = 0; i < batches; ++i) {
    builder.add_jobs(ids[static_cast<std::size_t>(
                         rng.uniform(0, colors - 1))],
                     rng.uniform(0, horizon - 1), 1 + rng.uniform(0, 2));
  }
  return builder.build();
}

class BnbDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnbDifferential, MatchesDpExactlyAcrossAllTiers) {
  for (const Variant& v : differential_matrix()) {
    const Instance inst = random_instance(GetParam(), v);
    for (const int m : {1, 2}) {
      const Cost dp = optimal_offline_cost(inst, m);
      const BnbResult bnb = exact_offline_bnb(inst, m);
      ASSERT_TRUE(bnb.closed)
          << "tier " << static_cast<int>(v.tier) << " m " << m;
      EXPECT_EQ(bnb.incumbent, dp)
          << "tier " << static_cast<int>(v.tier) << " long " << v.long_jobs
          << " weighted " << v.weighted << " m " << m;
      EXPECT_EQ(bnb.best_bound, dp);
      ASSERT_TRUE(bnb.has_witness);
      EXPECT_EQ(validate_or_throw(inst, bnb.schedule).total(), bnb.incumbent);
    }
  }
}

TEST_P(BnbDifferential, Lb3DominatesClosedFormAndRespectsOpt) {
  for (const Variant& v : differential_matrix()) {
    const Instance inst = random_instance(GetParam() + 1000, v);
    for (const int m : {1, 2}) {
      const Cost opt = optimal_offline_cost(inst, m);
      const LowerBound lb = offline_lower_bound_full(inst, m);
      EXPECT_GE(lb.lagrangian,
                std::max(lb.configure_or_drop, lb.capacity))
          << "tier " << static_cast<int>(v.tier) << " m " << m;
      EXPECT_LE(lb.lagrangian, opt)
          << "tier " << static_cast<int>(v.tier) << " long " << v.long_jobs
          << " weighted " << v.weighted << " m " << m;
      EXPECT_EQ(lb.best(), lb.lagrangian);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbDifferential,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{11}));

TEST(ExactBnb, Lb3StrictlyDominatesOnCapacityGap) {
  // Two colors, Delta 3, four unit jobs each at round 0 with delay 4, one
  // resource.  LB1 = 2 * min(3, 4) = 6; LB2 = excess(8 - 4) = 4; OPT = 7
  // (configure one color, run its 4 jobs, drop the other 4).  The
  // Lagrangian dual closes the gap: uniform lambda = 1/4 over the window
  // yields L = -4/4 + 2 * min(4, 3 + 1) = 7.
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 4);
  const Instance inst = builder.build();
  ASSERT_EQ(optimal_offline_cost(inst, 1), 7);
  const LowerBound lb = offline_lower_bound_full(inst, 1);
  EXPECT_EQ(lb.configure_or_drop, 6);
  EXPECT_EQ(lb.capacity, 4);
  EXPECT_GT(lb.lagrangian, 6) << "LB3 must strictly dominate max(LB1, LB2)";
  EXPECT_LE(lb.lagrangian, 7);
}

TEST(ExactBnb, BudgetReturnsValidInterval) {
  RandomBatchedParams params;
  params.seed = 11;
  params.num_colors = 8;
  params.min_scale = 1;
  params.max_scale = 4;
  params.horizon = 48;
  params.delta = 3;
  const Instance inst = make_random_batched(params);
  BnbOptions options;
  options.max_nodes = 50;  // starve the search
  const BnbResult bnb = exact_offline_bnb(inst, 2, options);
  EXPECT_LE(bnb.best_bound, bnb.incumbent);
  EXPECT_GE(bnb.best_bound, bnb.root_bound.best());
  EXPECT_LE(bnb.incumbent, best_offline_heuristic_cost(inst, 2));
  EXPECT_LE(bnb.incumbent, inst.total_weight());
  if (bnb.has_witness) {
    EXPECT_EQ(validate_or_throw(inst, bnb.schedule).total(), bnb.incumbent);
  }
}

TEST(ExactBnb, MatrixTierBeyondDpLimit) {
  // m = 9 is past the DP's bitmask bound; with a uniform transition matrix
  // the matrix tier is cost-equivalent to the scalar tier, giving an
  // independent cross-check for the Hungarian assignment path.
  const auto build = [](bool matrix) {
    InstanceBuilder builder;
    builder.delta(2);
    std::vector<ColorId> ids;
    for (int c = 0; c < 10; ++c) ids.push_back(builder.add_color(3));
    if (matrix) {
      for (const ColorId from : ids) {
        for (const ColorId to : ids) {
          if (from != to) builder.transition_cost(from, to, 2);
        }
      }
    }
    for (const ColorId c : ids) builder.add_jobs(c, 0, 2);
    return builder.build();
  };
  const Instance scalar_inst = build(false);
  const Instance matrix_inst = build(true);
  ASSERT_EQ(matrix_inst.cost_model().tier(), CostModel::Tier::kMatrix);

  // The DP refuses up front (satellite: no silent undefined behaviour).
  EXPECT_THROW((void)optimal_offline_cost(matrix_inst, 9), InputError);

  const BnbResult scalar_bnb = exact_offline_bnb(scalar_inst, 9);
  const BnbResult matrix_bnb = exact_offline_bnb(matrix_inst, 9);
  ASSERT_TRUE(scalar_bnb.closed);
  ASSERT_TRUE(matrix_bnb.closed);
  EXPECT_EQ(matrix_bnb.incumbent, scalar_bnb.incumbent);
  EXPECT_EQ(validate_or_throw(matrix_inst, matrix_bnb.schedule).total(),
            matrix_bnb.incumbent);
}

TEST(ExactBnb, SparseFastForwardClosesLongHorizons) {
  // Hundreds of rounds with three well-separated bursts: the empty-profile
  // jump must keep the search small while matching the DP exactly.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 3).add_jobs(b, 150, 3).add_jobs(a, 299, 3);
  builder.min_horizon(320);
  const Instance inst = builder.build();
  const Cost dp = optimal_offline_cost(inst, 1);
  const BnbResult bnb = exact_offline_bnb(inst, 1);
  ASSERT_TRUE(bnb.closed);
  EXPECT_EQ(bnb.incumbent, dp);
  EXPECT_EQ(validate_or_throw(inst, bnb.schedule).total(), bnb.incumbent);
  EXPECT_LT(bnb.nodes_expanded, 5000);
}

TEST(ExactBnb, MatrixFastForwardBranchesRetireTiming) {
  // Non-metric matrix: Delta(a -> b) = 9 but cold(b) = 1, so the optimal
  // play retires the slot to black during the idle gap and cold-configures
  // b later.  A fast-forward that pinned the configuration would miss it.
  InstanceBuilder builder;
  const ColorId a = builder.add_color(3);
  const ColorId b = builder.add_color(3);
  builder.reconfig_cost(a, 1).reconfig_cost(b, 1);
  builder.transition_cost(a, b, 9).transition_cost(b, a, 9);
  builder.add_jobs(a, 0, 2).add_jobs(b, 40, 2);
  const Instance inst = builder.build();
  const Cost dp = optimal_offline_cost(inst, 1);
  EXPECT_EQ(dp, 2);  // cold a + cold b, never the 9-cost warm edge
  const BnbResult bnb = exact_offline_bnb(inst, 1);
  ASSERT_TRUE(bnb.closed);
  EXPECT_EQ(bnb.incumbent, dp);
  EXPECT_EQ(validate_or_throw(inst, bnb.schedule).total(), dp);
}

TEST(ExactBnb, IncumbentHintIsUsedAndNeverWorsens) {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  builder.add_jobs(a, 0, 4);
  const Instance inst = builder.build();
  const Cost opt = optimal_offline_cost(inst, 1);  // == 3

  BnbOptions options;
  options.incumbent_hint = opt;
  options.seed_greedy = false;
  const BnbResult bnb = exact_offline_bnb(inst, 1, options);
  EXPECT_TRUE(bnb.closed);
  EXPECT_EQ(bnb.incumbent, opt);

  // A loose hint must not degrade the result below the search's own
  // incumbent.
  BnbOptions loose;
  loose.incumbent_hint = opt + 100;
  const BnbResult bnb2 = exact_offline_bnb(inst, 1, loose);
  EXPECT_TRUE(bnb2.closed);
  EXPECT_EQ(bnb2.incumbent, opt);
}

TEST(ExactBnb, DominancePruningPreservesExactness) {
  for (const std::uint64_t seed : {3u, 7u, 13u}) {
    const Instance inst =
        random_instance(seed, {Tier::kVector, true, true});
    BnbOptions no_dom;
    no_dom.use_dominance = false;
    const BnbResult with_dom = exact_offline_bnb(inst, 2);
    const BnbResult without_dom = exact_offline_bnb(inst, 2, no_dom);
    ASSERT_TRUE(with_dom.closed);
    ASSERT_TRUE(without_dom.closed);
    EXPECT_EQ(with_dom.incumbent, without_dom.incumbent) << "seed " << seed;
  }
}

/// Larger seeded instance in the same style as random_instance (lengths
/// 1-3, weights 1-5): big enough that a few hundred nodes stop the search
/// mid-way.
Instance mid_instance(std::uint64_t seed, Tier tier) {
  Rng rng(seed * 7919 + static_cast<std::uint64_t>(tier) * 31);
  InstanceBuilder builder;
  builder.delta(2 + rng.uniform(0, 3));
  std::vector<ColorId> ids;
  for (int c = 0; c < 5; ++c) {
    ids.push_back(builder.add_color(3 + rng.uniform(0, 5),
                                    1 + rng.uniform(0, 4),
                                    1 + rng.uniform(0, 2)));
  }
  if (tier != Tier::kScalar) {
    for (const ColorId c : ids) builder.reconfig_cost(c, 1 + rng.uniform(0, 4));
  }
  if (tier == Tier::kMatrix) {
    for (const ColorId from : ids) {
      for (const ColorId to : ids) {
        if (from != to) {
          builder.transition_cost(from, to, 1 + rng.uniform(0, 5));
        }
      }
    }
  }
  for (int i = 0; i < 12; ++i) {
    builder.add_jobs(ids[static_cast<std::size_t>(rng.uniform(0, 4))],
                     rng.uniform(0, 23), 1 + rng.uniform(0, 2));
  }
  return builder.build();
}

/// Non-metric matrix instance with idle gaps between bursts, so the
/// empty-profile fast-forward branches over retire-to-black sub-multisets.
Instance matrix_gap_instance() {
  InstanceBuilder builder;
  const ColorId a = builder.add_color(3, 1, 2);
  const ColorId b = builder.add_color(4, 2, 1);
  const ColorId c = builder.add_color(3, 1, 1);
  builder.reconfig_cost(a, 1).reconfig_cost(b, 2).reconfig_cost(c, 1);
  builder.transition_cost(a, b, 9).transition_cost(b, a, 7);
  builder.transition_cost(a, c, 4).transition_cost(c, a, 1);
  builder.transition_cost(b, c, 6).transition_cost(c, b, 3);
  builder.add_jobs(a, 0, 2).add_jobs(b, 1, 2).add_jobs(c, 20, 2);
  builder.add_jobs(a, 21, 1).add_jobs(b, 45, 3).add_jobs(c, 46, 1);
  return builder.build();
}

struct TrajectoryCase {
  std::string name;
  Instance instance;
  int m = 1;
  BnbOptions options;
};

/// The seeded instance set whose search trajectories are pinned: every
/// tier at m in {1, 2, 3} with dominance on and off (lengths 1-3, so
/// partially executed fronts occur), sparse and matrix fast-forward, and
/// node budgets that stop the search mid-way.
std::vector<TrajectoryCase> trajectory_cases() {
  std::vector<TrajectoryCase> out;
  BnbOptions base;
  base.max_seconds = 0;  // node budgets only: host-independent
  const char* tier_names[] = {"scalar", "vector", "matrix"};
  for (const Tier tier : {Tier::kScalar, Tier::kVector, Tier::kMatrix}) {
    for (const int m : {1, 2, 3}) {
      for (const bool dominance : {true, false}) {
        BnbOptions options = base;
        options.use_dominance = dominance;
        out.push_back({std::string(tier_names[static_cast<int>(tier)]) +
                           "_m" + std::to_string(m) +
                           (dominance ? "_dom" : "_nodom"),
                       random_instance(20 + static_cast<std::uint64_t>(m),
                                       {tier, true, m % 2 == 0}),
                       m, options});
      }
    }
  }
  for (const bool dominance : {true, false}) {
    BnbOptions options = base;
    options.use_dominance = dominance;
    out.push_back({std::string("matrix_gap_m2") +
                       (dominance ? "_dom" : "_nodom"),
                   matrix_gap_instance(), 2, options});
  }
  {
    InstanceBuilder builder;
    builder.delta(2);
    const ColorId a = builder.add_color(4, 1, 2);
    const ColorId b = builder.add_color(5, 3, 1);
    builder.add_jobs(a, 0, 3).add_jobs(b, 150, 3).add_jobs(a, 299, 2);
    builder.min_horizon(320);
    out.push_back({"sparse_ff_m1", builder.build(), 1, base});
  }
  const char* mid_names[] = {"mid_scalar", "mid_vector", "mid_matrix"};
  for (const Tier tier : {Tier::kScalar, Tier::kVector, Tier::kMatrix}) {
    for (const int m : {2, 3}) {
      BnbOptions options = base;
      options.max_nodes = 300;
      out.push_back({std::string(mid_names[static_cast<int>(tier)]) + "_m" +
                         std::to_string(m) + "_budget300",
                     mid_instance(static_cast<std::uint64_t>(m), tier), m,
                     options});
    }
  }
  {
    RandomBatchedParams params;  // the benchmark's E3 cell
    params.seed = 3;
    params.delta = 2;
    params.num_colors = 8;
    params.min_scale = 2;
    params.max_scale = 4;
    params.horizon = 8;
    BnbOptions options = base;
    options.max_nodes = 1024;
    out.push_back({"e3_cell_m1", make_random_batched(params), 1, options});
  }
  {
    RandomBatchedParams params;
    params.seed = 11;
    params.num_colors = 8;
    params.min_scale = 1;
    params.max_scale = 4;
    params.horizon = 48;
    params.delta = 3;
    BnbOptions options = base;
    options.max_nodes = 250;
    out.push_back({"batched_m2_budget250", make_random_batched(params), 2,
                   options});
  }
  return out;
}

/// Everything observable about one search, compared field by field.
struct TrajectoryPin {
  Cost lb1 = 0, lb2 = 0, lb3 = 0;
  Cost best_bound = 0, incumbent = 0;
  bool closed = false, has_witness = false;
  std::int64_t expanded = 0, pruned_bound = 0, pruned_dominated = 0;
  std::int64_t witness_reconfigs = 0, witness_execs = 0;
  Cost witness_cost = -1;  // validated cost; -1 without a witness

  friend bool operator==(const TrajectoryPin&,
                         const TrajectoryPin&) = default;
};

std::ostream& operator<<(std::ostream& os, const TrajectoryPin& p) {
  return os << "{" << p.lb1 << ", " << p.lb2 << ", " << p.lb3 << ", "
            << p.best_bound << ", " << p.incumbent << ", "
            << (p.closed ? "true" : "false") << ", "
            << (p.has_witness ? "true" : "false") << ", " << p.expanded
            << ", " << p.pruned_bound << ", " << p.pruned_dominated << ", "
            << p.witness_reconfigs << ", " << p.witness_execs << ", "
            << p.witness_cost << "}";
}

TrajectoryPin observe(const TrajectoryCase& c) {
  const BnbResult r = exact_offline_bnb(c.instance, c.m, c.options);
  TrajectoryPin p;
  p.lb1 = r.root_bound.configure_or_drop;
  p.lb2 = r.root_bound.capacity;
  p.lb3 = r.root_bound.lagrangian;
  p.best_bound = r.best_bound;
  p.incumbent = r.incumbent;
  p.closed = r.closed;
  p.has_witness = r.has_witness;
  p.expanded = r.nodes_expanded;
  p.pruned_bound = r.nodes_pruned_bound;
  p.pruned_dominated = r.nodes_pruned_dominated;
  if (r.has_witness) {
    p.witness_reconfigs =
        static_cast<std::int64_t>(r.schedule.reconfigs.size());
    p.witness_execs = static_cast<std::int64_t>(r.schedule.execs.size());
    p.witness_cost = validate_or_throw(c.instance, r.schedule).total();
  }
  return p;
}

// Recorded from the search before its node states were pooled (fields in
// TrajectoryPin order); the order matches trajectory_cases().
const TrajectoryPin kTrajectoryPins[] = {
    {3, 0, 3, 3, 3, true, true, 12, 12, 0, 1, 4, 3},  // scalar_m1_dom
    {3, 0, 3, 3, 3, true, true, 12, 12, 0, 1, 4, 3},  // scalar_m1_nodom
    {2, 0, 5, 6, 6, true, true, 53, 0, 8, 3, 14, 6},  // scalar_m2_dom
    {2, 0, 5, 6, 6, true, true, 60, 0, 0, 3, 14, 6},  // scalar_m2_nodom
    {2, 0, 2, 2, 2, true, true, 11, 36, 0, 2, 6, 2},  // scalar_m3_dom
    {2, 0, 2, 2, 2, true, true, 11, 36, 0, 2, 6, 2},  // scalar_m3_nodom
    {4, 0, 5, 5, 5, true, true, 6, 4, 0, 1, 3, 5},  // vector_m1_dom
    {4, 0, 5, 5, 5, true, true, 6, 4, 0, 1, 3, 5},  // vector_m1_nodom
    {9, 2, 11, 14, 14, true, true, 52, 17, 2, 3, 9, 14},  // vector_m2_dom
    {9, 2, 11, 14, 14, true, true, 54, 18, 0, 3, 9, 14},  // vector_m2_nodom
    {3, 0, 3, 5, 5, true, true, 107, 59, 9, 3, 18, 5},  // vector_m3_dom
    {3, 0, 3, 5, 5, true, true, 111, 32, 0, 3, 18, 5},  // vector_m3_nodom
    {4, 0, 6, 8, 8, true, true, 31, 15, 4, 0, 0, 8},  // matrix_m1_dom
    {4, 0, 6, 8, 8, true, true, 36, 18, 0, 0, 0, 8},  // matrix_m1_nodom
    {2, 0, 7, 8, 8, true, true, 49, 8, 0, 2, 10, 8},  // matrix_m2_dom
    {2, 0, 7, 8, 8, true, true, 49, 8, 0, 2, 10, 8},  // matrix_m2_nodom
    {4, 0, 4, 5, 5, true, true, 13, 51, 0, 0, 0, 5},  // matrix_m3_dom
    {4, 0, 4, 5, 5, true, true, 13, 51, 0, 0, 0, 5},  // matrix_m3_nodom
    {4, 0, 4, 6, 6, true, true, 41, 34, 2, 5, 10, 6},  // matrix_gap_m2_dom
    {4, 0, 4, 6, 6, true, true, 43, 36, 0, 5, 10, 6},  // matrix_gap_m2_nodom
    {4, 1, 5, 7, 7, true, true, 34, 19, 1, 3, 11, 7},  // sparse_ff_m1
    // mid_scalar_m2_budget300
    {15, 0, 16, 18, 37, false, false, 300, 1, 174, 0, 0, -1},
    // mid_scalar_m3_budget300
    {15, 0, 15, 18, 36, false, false, 300, 143, 390, 0, 0, -1},
    // mid_vector_m2_budget300
    {10, 0, 10, 13, 20, false, false, 300, 860, 128, 0, 0, -1},
    // mid_vector_m3_budget300
    {9, 0, 9, 11, 14, false, false, 300, 5167, 178, 0, 0, -1},
    // mid_matrix_m2_budget300
    {8, 6, 26, 26, 61, false, false, 300, 0, 39, 0, 0, -1},
    // mid_matrix_m3_budget300
    {10, 0, 10, 12, 12, true, true, 79, 1332, 6, 7, 25, 12},
    {8, 5, 9, 9, 9, true, true, 87, 169, 36, 2, 16, 9},  // e3_cell_m1
    // batched_m2_budget250
    {24, 87, 96, 96, 126, false, false, 250, 0, 170, 0, 0, -1},
};

TEST(ExactBnb, SearchTrajectoryPin) {
  const std::vector<TrajectoryCase> cases = trajectory_cases();
  ASSERT_EQ(cases.size(), std::size(kTrajectoryPins));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TrajectoryPin got = observe(cases[i]);
    EXPECT_EQ(got, kTrajectoryPins[i]) << cases[i].name << ": got " << got;
  }
}

TEST(ExactBnb, RejectsBadInput) {
  InstanceBuilder builder;
  builder.add_color(2);
  EXPECT_THROW((void)exact_offline_bnb(builder.build(), 0), InputError);
  BnbOptions options;
  options.max_nodes = 0;
  EXPECT_THROW((void)exact_offline_bnb(builder.build(), 1, options),
               InputError);
}

TEST(ExactBnb, EmptyInstanceClosesAtZero) {
  InstanceBuilder builder;
  builder.add_color(4);
  const BnbResult bnb = exact_offline_bnb(builder.build(), 2);
  EXPECT_TRUE(bnb.closed);
  EXPECT_EQ(bnb.incumbent, 0);
  EXPECT_EQ(bnb.best_bound, 0);
  EXPECT_TRUE(bnb.has_witness);
}

}  // namespace
}  // namespace rrs
