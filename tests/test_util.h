// Shared helpers for the RRS test suite.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "core/instance.h"
#include "util/rng.h"

namespace rrs::testing {

/// Knuth's Poisson draw with exp(-mean) evaluated on every call, as the
/// generators drew before they kept one PoissonSampler per rate: the
/// reference twin that pins PoissonSampler draw for draw.
[[nodiscard]] inline std::int64_t knuth_poisson(Rng& rng, double mean) {
  if (mean == 0.0) return 0;
  double threshold = 1.0;
  const double bound = std::exp(-mean);
  std::int64_t count = -1;
  do {
    ++count;
    threshold *= rng.uniform01();
  } while (threshold > bound);
  return count;
}

/// Rebuilds `instance` without the jobs in `removed_ids` (same colors,
/// same Delta, same horizon) — the "subsequence" operation the Section 3
/// analysis uses, e.g. forming the eligible subsequence alpha.
[[nodiscard]] inline Instance remove_jobs(
    const Instance& instance, const std::vector<JobId>& removed_ids) {
  std::unordered_set<JobId> removed(removed_ids.begin(), removed_ids.end());
  InstanceBuilder builder;
  builder.delta(instance.delta());
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    builder.add_color(instance.delay_bound(c), instance.drop_cost(c));
  }
  for (const Job& job : instance.jobs()) {
    if (!removed.contains(job.id)) {
      builder.add_jobs(job.color, job.arrival, 1);
    }
  }
  builder.min_horizon(instance.horizon());
  return builder.build();
}

}  // namespace rrs::testing
