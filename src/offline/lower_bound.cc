#include "offline/lower_bound.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "util/bits.h"
#include "util/check.h"

namespace rrs {

LowerBound offline_lower_bound(const Instance& instance, int m) {
  RRS_REQUIRE(m >= 1, "lower bound needs m >= 1");
  LowerBound lb;

  const CostModel& model = instance.cost_model();

  // LB1: sum over colors of min(cheapest incoming reconfiguration, total
  // drop weight of the color) — any event targeting color c costs at least
  // min_f Delta(f -> c), so OFF either pays that to host c at least once
  // or forfeits c's jobs.  Reduces to min(Delta, J_c) under the paper's
  // scalar-uniform model.
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    lb.configure_or_drop += std::min<Cost>(model.min_incoming_cost(c),
                                           instance.weight_of_color(c));
  }

  // LB2: per dyadic scale s, windows [i*2^s, (i+1)*2^s) partition time;
  // sum the execution units demanded by jobs fully contained in each
  // window and charge the excess over the m * 2^s units the window
  // supplies.  A job [arrival, deadline) fits in the window of scale s
  // containing its arrival iff deadline <= window end.  Each dropped job
  // relieves at most l_max units of demand and costs at least w_min, so
  // the excess forces ceil(excess / l_max) * w_min drop cost (exactly the
  // excess job count under unit lengths and weights).
  if (instance.horizon() > 0 && !instance.jobs().empty()) {
    const Round l_max = model.max_length();
    Cost w_min = -1;  // min drop cost among colors that have jobs
    for (const Job& job : instance.jobs()) {
      const Cost w = model.drop_cost(job.color);
      if (w_min < 0 || w < w_min) w_min = w;
    }
    const int max_scale = floor_log2(instance.horizon()) + 1;
    // (scale, window index) -> contained execution units.  Sparse: touched
    // windows only.
    std::vector<std::unordered_map<Round, Cost>> contained(
        static_cast<std::size_t>(max_scale) + 1);
    for (const Job& job : instance.jobs()) {
      for (int s = 0; s <= max_scale; ++s) {
        const Round width = Round{1} << s;
        if (width < job.delay_bound) continue;  // cannot possibly fit
        const Round start = floor_multiple(job.arrival, width);
        if (job.deadline() <= start + width) {
          contained[static_cast<std::size_t>(s)][start / width] +=
              Cost{job.length};
        }
      }
    }
    for (int s = 0; s <= max_scale; ++s) {
      const Round width = Round{1} << s;
      Cost scale_total = 0;
      for (const auto& [window, units] :
           contained[static_cast<std::size_t>(s)]) {
        (void)window;
        const Cost excess = std::max<Cost>(0, units - Cost{m} * width);
        scale_total += (excess + Cost{l_max} - 1) / Cost{l_max} * w_min;
      }
      lb.capacity = std::max(lb.capacity, scale_total);
    }
  }
  return lb;
}

Cost lagrangian_lower_bound(const Instance& instance, int m,
                            const LagrangianOptions& options) {
  RRS_REQUIRE(m >= 1, "lower bound needs m >= 1");
  RRS_REQUIRE(options.iterations >= 1, "LB3 needs at least one iteration");
  const CostModel& model = instance.cost_model();
  const Round horizon = instance.horizon();

  // LB1 pieces, reused as the lambda = 0 evaluation and the per-color
  // never-host alternative W_c.
  std::vector<Cost> min_inc(static_cast<std::size_t>(instance.num_colors()));
  std::vector<Cost> weight(static_cast<std::size_t>(instance.num_colors()));
  Cost lb1 = 0;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    min_inc[static_cast<std::size_t>(c)] = model.min_incoming_cost(c);
    weight[static_cast<std::size_t>(c)] = instance.weight_of_color(c);
    lb1 += std::min(min_inc[static_cast<std::size_t>(c)],
                    weight[static_cast<std::size_t>(c)]);
  }
  if (horizon <= 0 || instance.jobs().empty()) return lb1;

  // Per-job execution windows [a, b): rounds where the job can receive a
  // unit.  b clips at the horizon (the solvers charge jobs still pending
  // at the end as drops).  Empty-window jobs are forced drops and fold
  // into a per-color constant.
  struct JobWindow {
    Round a = 0, b = 0;
    Cost w = 0;
    Cost len = 1;
  };
  std::vector<std::vector<JobWindow>> windows(
      static_cast<std::size_t>(instance.num_colors()));
  std::vector<Cost> forced(static_cast<std::size_t>(instance.num_colors()), 0);
  Round widest = 1;
  for (const Job& job : instance.jobs()) {
    const Round b = std::min(job.deadline(), horizon);
    if (b <= job.arrival) {
      forced[static_cast<std::size_t>(job.color)] += job.drop_cost;
      continue;
    }
    windows[static_cast<std::size_t>(job.color)].push_back(
        {job.arrival, b, job.drop_cost, Cost{job.length}});
    widest = std::max(widest, b - job.arrival);
  }

  // Polyak step needs an upper bound on OFF; dropping every job is always
  // feasible, so total weight works when the caller has nothing better.
  Cost ub = options.upper_bound_hint;
  if (ub < 0) ub = instance.total_weight();
  const double ub_d = static_cast<double>(std::max<Cost>(ub, lb1 + 1));

  std::vector<double> lambda(static_cast<std::size_t>(horizon), 0.0);
  std::vector<double> grad(static_cast<std::size_t>(horizon), 0.0);
  std::vector<Round> argmin;  // per qualifying job: window argmin round

  // Window minima: a sparse table over lambda, rebuilt each iteration.
  // Level k holds, for each start t, the earliest argmin of lambda over
  // [t, t + 2^k); levels stop at the widest window.  A window [a, b) is
  // covered by two level-floor_log2(b - a) blocks; preferring the left
  // block on ties keeps the earliest argmin, as a left-to-right scan does.
  RRS_CHECK(horizon <= std::numeric_limits<std::int32_t>::max());
  const auto rounds = static_cast<std::size_t>(horizon);
  const int levels = floor_log2(widest) + 1;
  std::vector<std::int32_t> sparse(static_cast<std::size_t>(levels) * rounds);
  for (std::size_t t = 0; t < rounds; ++t) {
    sparse[t] = static_cast<std::int32_t>(t);  // level 0: [t, t + 1)
  }
  const auto earlier_min = [&lambda](std::int32_t left, std::int32_t right) {
    return lambda[static_cast<std::size_t>(right)] <
                   lambda[static_cast<std::size_t>(left)]
               ? right
               : left;
  };

  double best = static_cast<double>(lb1);  // == L(0)
  double scale = 1.0;
  int stall = 0;
  for (int it = 0; it < options.iterations; ++it) {
    double value = 0.0;
    for (Round t = 0; t < horizon; ++t) {
      value -= static_cast<double>(m) * lambda[static_cast<std::size_t>(t)];
      grad[static_cast<std::size_t>(t)] = -static_cast<double>(m);
    }
    for (int k = 1; k < levels; ++k) {
      const std::size_t half = std::size_t{1} << (k - 1);
      const std::int32_t* below =
          sparse.data() + static_cast<std::size_t>(k - 1) * rounds;
      std::int32_t* level =
          sparse.data() + static_cast<std::size_t>(k) * rounds;
      for (std::size_t t = 0; t + 2 * half <= rounds; ++t) {
        level[t] = earlier_min(below[t], below[t + half]);
      }
    }
    for (ColorId c = 0; c < instance.num_colors(); ++c) {
      const auto ci = static_cast<std::size_t>(c);
      double hosted = static_cast<double>(min_inc[ci] + forced[ci]);
      argmin.clear();
      for (const JobWindow& jw : windows[ci]) {
        const int k = floor_log2(jw.b - jw.a);
        const std::int32_t* level =
            sparse.data() + static_cast<std::size_t>(k) * rounds;
        const auto right = static_cast<std::size_t>(jw.b - (Round{1} << k));
        const Round lo_t =
            earlier_min(level[static_cast<std::size_t>(jw.a)], level[right]);
        const double lo = lambda[static_cast<std::size_t>(lo_t)];
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
        value += never;  // never-host branch active: no gradient terms
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
    if (norm2 < 1e-12) break;  // stationary: dual optimum reached
    const double step = scale * std::max(ub_d - value, 1.0) / norm2;
    for (Round t = 0; t < horizon; ++t) {
      lambda[static_cast<std::size_t>(t)] = std::max(
          0.0, lambda[static_cast<std::size_t>(t)] +
                   step * grad[static_cast<std::size_t>(t)]);
    }
  }
  // OFF is integral, so the dual value rounds up; the epsilon guards
  // against 6.999999 artifacts of the float iteration.
  return std::max<Cost>(lb1, static_cast<Cost>(std::ceil(best - 1e-6)));
}

LowerBound offline_lower_bound_full(const Instance& instance, int m,
                                    const LagrangianOptions& options) {
  LowerBound lb = offline_lower_bound(instance, m);
  lb.lagrangian = std::max(
      {lagrangian_lower_bound(instance, m, options), lb.configure_or_drop,
       lb.capacity});
  return lb;
}

SuffixBoundOracle::SuffixBoundOracle(const Instance& instance, int m)
    : instance_(&instance), m_(m) {
  RRS_REQUIRE(m >= 1, "suffix bound oracle needs m >= 1");
  const CostModel& model = instance.cost_model();
  const Round horizon = instance.horizon();
  colors_ = static_cast<std::size_t>(instance.num_colors());

  drop_cost_.resize(colors_);
  length_.resize(colors_);
  min_inc_.resize(colors_);
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    drop_cost_[static_cast<std::size_t>(c)] = instance.drop_cost(c);
    length_[static_cast<std::size_t>(c)] = instance.length(c);
    min_inc_[static_cast<std::size_t>(c)] = model.min_incoming_cost(c);
  }

  future_weight_.assign((static_cast<std::size_t>(horizon) + 1) * colors_, 0);
  for (const Job& job : instance.jobs()) {
    if (job.arrival < horizon) {
      future_weight_[static_cast<std::size_t>(job.arrival) * colors_ +
                     static_cast<std::size_t>(job.color)] += job.drop_cost;
    }
  }
  for (std::size_t i = static_cast<std::size_t>(horizon) * colors_; i-- > 0;) {
    future_weight_[i] += future_weight_[i + colors_];
  }

  l_max_ = std::max<Cost>(1, model.max_length());
  w_min_ = 0;
  for (const Job& job : instance.jobs()) {
    const Cost w = model.drop_cost(job.color);
    if (w_min_ == 0 || w < w_min_) w_min_ = w;
  }

  max_scale_ = horizon > 0 ? floor_log2(horizon) + 1 : 0;
  const auto scales = static_cast<std::size_t>(max_scale_) + 1;
  RRS_CHECK(scales <= kScales);
  contained_units_.assign(static_cast<std::size_t>(horizon) * scales, 0);
  tail_drops_.assign(static_cast<std::size_t>(horizon) * scales, 0);
  if (horizon == 0 || instance.jobs().empty()) return;

  std::vector<Cost> diff;
  std::vector<Cost> suffix;
  for (int s = 0; s <= max_scale_; ++s) {
    const Round width = Round{1} << s;
    // Anchored windows: a job with arrival a, deadline d lies inside
    // [k, k + width) for every start k in [max(0, d - width), a]; build
    // with a difference array over k.
    diff.assign(static_cast<std::size_t>(horizon) + 2, 0);
    for (const Job& job : instance.jobs()) {
      const Round d = std::min(job.deadline(), horizon);
      if (d - job.arrival > width) continue;
      const Round lo = std::max<Round>(0, d - width);
      const Round hi = job.arrival;  // inclusive
      if (hi < lo) continue;
      diff[static_cast<std::size_t>(lo)] += Cost{job.length};
      diff[static_cast<std::size_t>(hi) + 1] -= Cost{job.length};
    }
    Cost running = 0;
    for (Round k = 0; k < horizon; ++k) {
      running += diff[static_cast<std::size_t>(k)];
      contained_units_[static_cast<std::size_t>(k) * scales +
                       static_cast<std::size_t>(s)] = running;
    }

    // Aligned windows: the LB2 partition, as suffix sums of per-window
    // forced-drop charges so the oracle can price the far future past the
    // anchored window in O(1).
    const Round num_windows = (horizon + width - 1) / width;
    std::vector<Cost>& charge = diff;
    charge.assign(static_cast<std::size_t>(num_windows) + 1, 0);
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
    suffix.assign(static_cast<std::size_t>(num_windows) + 1, 0);
    for (Round i = num_windows; i-- > 0;) {
      suffix[static_cast<std::size_t>(i)] =
          suffix[static_cast<std::size_t>(i) + 1] +
          charge[static_cast<std::size_t>(i)];
    }
    for (Round k = 0; k < horizon; ++k) {
      const Round tail = (k + width + width - 1) / width;  // ceil
      if (tail < static_cast<Round>(suffix.size())) {
        tail_drops_[static_cast<std::size_t>(k) * scales +
                    static_cast<std::size_t>(s)] =
            suffix[static_cast<std::size_t>(tail)];
      }
    }
  }
}

Cost SuffixBoundOracle::add_share(std::size_t c, Round round,
                                  const offdp::ColorQueue& q, Cost sign,
                                  Cost& guaranteed, Cost* units) const {
  const Cost w = drop_cost_[c];
  Cost savable = 0;
  bool first = true;
  for (const auto& [deadline, count] : q.buckets) {
    // A bucket at or below `round` expires before it can receive another
    // unit: a guaranteed drop.
    if (deadline <= round) {
      guaranteed += sign * count * w;
      continue;
    }
    savable += count * w;
    const int s = ceil_log2(deadline - round);
    if (s <= max_scale_) {
      // The front job already holds front_done units; only its remaining
      // units demand capacity.  They come off the first live bucket even
      // when the partial front sits in an expiring bucket (whose drop
      // forfeits them): looser there, still admissible.
      units[s] += sign * (count * length_[c] - (first ? q.front_done : 0));
    }
    first = false;
  }
  return savable;
}

Cost SuffixBoundOracle::finish(Round round, Cost guaranteed, Cost h_conf,
                               const Cost* units) const {
  // Per-suffix capacity bound: for each scale, the anchored window
  // [round, round + 2^s) plus the aligned windows wholly beyond it.
  const auto scales = static_cast<std::size_t>(max_scale_) + 1;
  const Cost* contained =
      contained_units_.data() + static_cast<std::size_t>(round) * scales;
  const Cost* tail =
      tail_drops_.data() + static_cast<std::size_t>(round) * scales;
  Cost h_cap = 0;
  Cost pending_units = 0;  // pending units inside the window at scale s
  for (std::size_t s = 0; s < scales; ++s) {
    pending_units += units[s];
    Cost charge = tail[s];
    const Cost excess =
        pending_units + contained[s] - Cost{m_} * (Round{1} << s);
    if (excess > 0 && w_min_ > 0) {
      charge += (excess + l_max_ - 1) / l_max_ * w_min_;
    }
    h_cap = std::max(h_cap, charge);
  }
  return guaranteed + std::max(h_conf, h_cap);
}

Cost SuffixBoundOracle::bound(Round round, const std::vector<ColorId>& cache,
                              const offdp::Profile& profile) const {
  const Instance& instance = *instance_;
  if (round >= instance.horizon()) {
    return offdp::total_pending_weight(profile, instance);
  }
  std::array<Cost, kScales> units;
  std::fill_n(units.begin(), max_scale_ + 1, 0);
  Cost guaranteed = 0;
  Cost h_conf = 0;
  const Cost* future =
      future_weight_.data() + static_cast<std::size_t>(round) * colors_;
  for (std::size_t c = 0; c < profile.size(); ++c) {
    const Cost weight =
        add_share(c, round, profile[c], 1, guaranteed, units.data()) +
        future[c];
    if (weight == 0) continue;
    const bool configured =
        std::find(cache.begin(), cache.end(), static_cast<ColorId>(c)) !=
        cache.end();
    if (!configured) h_conf += std::min(min_inc_[c], weight);
  }
  return finish(round, guaranteed, h_conf, units.data());
}

void SuffixBoundOracle::prepare(Round round, const offdp::Profile& parent,
                                Frame& frame) const {
  RRS_CHECK(round < instance_->horizon());
  frame.round_ = round;
  frame.guaranteed_ = 0;
  frame.h_conf_ = 0;
  frame.conf_.assign(parent.size(), 0);
  std::fill_n(frame.units_.begin(), max_scale_ + 1, 0);
  const Cost* future =
      future_weight_.data() + static_cast<std::size_t>(round) * colors_;
  for (std::size_t c = 0; c < parent.size(); ++c) {
    const Cost weight = add_share(c, round, parent[c], 1, frame.guaranteed_,
                                  frame.units_.data()) +
                        future[c];
    if (weight == 0) continue;
    frame.conf_[c] = std::min(min_inc_[c], weight);
    frame.h_conf_ += frame.conf_[c];
  }
}

Cost SuffixBoundOracle::child_bound(const Frame& frame,
                                    const std::vector<ColorId>& config,
                                    const offdp::Profile& parent,
                                    const offdp::Profile& child) const {
  std::array<Cost, kScales> units;
  std::copy_n(frame.units_.begin(), max_scale_ + 1, units.begin());
  Cost guaranteed = frame.guaranteed_;
  Cost h_conf = frame.h_conf_;
  ColorId previous = kBlack;
  for (const ColorId color : config) {
    if (color == kBlack || color == previous) continue;
    previous = color;
    // A configured color drops out of the configure-or-drop arm; only
    // configured colors execute, so only their shares can change.
    const auto c = static_cast<std::size_t>(color);
    h_conf -= frame.conf_[c];
    if (parent[c].buckets.empty()) continue;
    add_share(c, frame.round_, parent[c], -1, guaranteed, units.data());
    add_share(c, frame.round_, child[c], 1, guaranteed, units.data());
  }
  return finish(frame.round_, guaranteed, h_conf, units.data());
}

}  // namespace rrs
