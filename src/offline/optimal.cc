#include "offline/optimal.h"

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "offline/state_space.h"
#include "util/check.h"

namespace rrs {
namespace {

using offdp::Key;
using offdp::Profile;

/// One DP state with its provenance for backtracking.
struct State {
  Cost cost = 0;
  std::vector<ColorId> cache;  // sorted multiset
  Profile profile;
  std::int32_t parent = -1;  // index into the previous round's state list
};

/// Runs the forward DP, keeping every round's state list for backtracking.
/// Returns (per-round state lists, best final state index, best cost).
struct DpRun {
  std::vector<std::vector<State>> rounds;  // rounds[k] = states AFTER round k
  std::int32_t best_final = -1;
  Cost best_cost = 0;
};

DpRun run_dp(const Instance& instance, int m, std::int64_t max_states) {
  RRS_REQUIRE(m >= 1, "optimal offline DP needs m >= 1");
  // The matrix-tier transition bijection uses a bitmask DP over source
  // slots; past 8 resources that is undefined territory for this solver —
  // fail up front (exact_bnb handles the matrix tier at any m).
  RRS_REQUIRE(
      instance.cost_model().tier() != CostModel::Tier::kMatrix || m <= 8,
      "matrix-tier offline DP supports at most 8 resources, got "
          << m << "; use exact_offline_bnb beyond that");

  DpRun run;
  State initial;
  initial.cache.assign(static_cast<std::size_t>(m), kBlack);
  initial.profile.resize(static_cast<std::size_t>(instance.num_colors()));
  run.rounds.push_back({std::move(initial)});

  std::int64_t visited = 0;
  for (Round k = 0; k < instance.horizon(); ++k) {
    const std::vector<State>& current = run.rounds.back();
    std::map<Key, std::size_t> index;  // key -> position in next
    std::vector<State> next;
    const std::span<const Job> arrivals = instance.arrivals_in_round(k);

    for (std::size_t si = 0; si < current.size(); ++si) {
      const State& state = current[si];
      Profile profile = state.profile;

      // Phase 1: drop.  Phase 2: arrival.
      const Cost dropped = offdp::expire(profile, k, instance);
      offdp::add_arrivals(profile, arrivals);

      // Candidates: colors with pending jobs + currently configured ones.
      std::vector<ColorId> candidates;
      for (ColorId c = 0; c < instance.num_colors(); ++c) {
        if (!profile[static_cast<std::size_t>(c)].buckets.empty()) {
          candidates.push_back(c);
        }
      }
      for (const ColorId c : state.cache) {
        if (c != kBlack &&
            std::find(candidates.begin(), candidates.end(), c) ==
                candidates.end()) {
          candidates.push_back(c);
        }
      }
      std::sort(candidates.begin(), candidates.end());

      // Phases 3+4: enumerate configurations; execution is deterministic
      // (earliest deadline first within each configured color).  Branches
      // that "keep" old colors are enumerated explicitly and dominate
      // every black-slot branch, so exactness is preserved.
      std::vector<ColorId> scratch;
      offdp::enumerate_multisets(
          candidates, m, scratch, [&](const std::vector<ColorId>& config) {
            const Cost reconf = offdp::reconfig_cost_between(
                state.cache, config, instance.cost_model());
            Profile after = profile;
            for (const ColorId c : config) {
              if (c != kBlack) offdp::execute_one(after, c, instance);
            }
            const Cost cost = state.cost + dropped + reconf;
            Key key;
            offdp::encode(config, after, key);
            const auto it = index.find(key);
            if (it == index.end()) {
              index.emplace(std::move(key), next.size());
              State s;
              s.cost = cost;
              s.cache = config;
              s.profile = std::move(after);
              s.parent = static_cast<std::int32_t>(si);
              next.push_back(std::move(s));
            } else if (cost < next[it->second].cost) {
              State& s = next[it->second];
              s.cost = cost;
              s.cache = config;
              s.profile = std::move(after);
              s.parent = static_cast<std::int32_t>(si);
            }
          });
    }
    visited += static_cast<std::int64_t>(next.size());
    RRS_REQUIRE(visited <= max_states,
                "optimal offline DP: state budget exceeded ("
                    << visited << " > " << max_states
                    << "); instance too large for exact DP");
    run.rounds.push_back(std::move(next));
  }

  const std::vector<State>& final_states = run.rounds.back();
  RRS_CHECK(!final_states.empty());
  for (std::size_t i = 0; i < final_states.size(); ++i) {
    const Cost final_cost =
        final_states[i].cost +
        offdp::total_pending_weight(final_states[i].profile, instance);
    if (run.best_final < 0 || final_cost < run.best_cost) {
      run.best_final = static_cast<std::int32_t>(i);
      run.best_cost = final_cost;
    }
  }
  return run;
}

}  // namespace

Cost optimal_offline_cost(const Instance& instance, int m,
                          std::int64_t max_states) {
  return run_dp(instance, m, max_states).best_cost;
}

OptimalResult optimal_offline_schedule(const Instance& instance, int m,
                                       std::int64_t max_states) {
  const DpRun run = run_dp(instance, m, max_states);
  OptimalResult result;
  result.cost = run.best_cost;
  result.schedule.num_resources = m;
  result.schedule.speed = 1;
  if (instance.horizon() == 0) return result;

  // Backtrack the chosen configuration multiset of every round, then let
  // the shared replay turn the multiset sequence into concrete per-resource
  // events charging exactly the DP's transition prices.
  std::vector<std::vector<ColorId>> configs(
      static_cast<std::size_t>(instance.horizon()));
  std::int32_t state_index = run.best_final;
  for (Round k = instance.horizon(); k-- > 0;) {
    const State& state = run.rounds[static_cast<std::size_t>(k) + 1]
                                   [static_cast<std::size_t>(state_index)];
    configs[static_cast<std::size_t>(k)] = state.cache;
    state_index = state.parent;
  }
  result.schedule = offdp::replay_configs(instance, m, configs);
  return result;
}

}  // namespace rrs
