// Unit tests for core/pending: deadline-ordered pending job bookkeeping
// over the run-length per-color FIFOs and the bucketed expiry calendar,
// plus a differential harness against a per-job reference twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/pending.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

Job make_job(JobId id, ColorId color, Round arrival, Round delay) {
  Job job;
  job.id = id;
  job.color = color;
  job.arrival = arrival;
  job.delay_bound = delay;
  return job;
}

/// Ids of every dropped job, expanded from the result's runs in drop
/// order.
std::vector<JobId> dropped_ids(const PendingJobs::DropResult& result) {
  std::vector<JobId> ids;
  for (const PendingJobs::DroppedRun& run : result.runs) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      ids.push_back(run.first_id + i);
    }
  }
  return ids;
}

/// Sweep helper for tests that only care about the result of one sweep.
PendingJobs::DropResult drop_at(PendingJobs& pending, Round round) {
  PendingJobs::DropResult out;
  pending.drop_expired(round, out);
  return out;
}

TEST(PendingJobs, AddCountIdleTotal) {
  PendingJobs pending;
  pending.reset(2);
  EXPECT_TRUE(pending.idle(0));
  EXPECT_EQ(pending.total(), 0);
  pending.add(make_job(0, 0, 0, 4));
  pending.add(make_job(1, 0, 0, 4));
  pending.add(make_job(2, 1, 0, 8));
  EXPECT_EQ(pending.count(0), 2);
  EXPECT_EQ(pending.count(1), 1);
  EXPECT_FALSE(pending.idle(0));
  EXPECT_EQ(pending.total(), 3);
}

TEST(PendingJobs, PopEarliestIsFifoPerColor) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 4));
  pending.add(make_job(1, 0, 2, 4));
  EXPECT_EQ(pending.earliest_deadline(0), 4);
  EXPECT_EQ(pending.pop_earliest(0), 0);
  EXPECT_EQ(pending.earliest_deadline(0), 6);
  EXPECT_EQ(pending.pop_earliest(0), 1);
  EXPECT_TRUE(pending.idle(0));
}

TEST(PendingJobs, DropExpiredByDeadline) {
  PendingJobs pending;
  pending.reset(2);
  pending.add(make_job(0, 0, 0, 2));  // deadline 2
  pending.add(make_job(1, 0, 2, 2));  // deadline 4
  pending.add(make_job(2, 1, 0, 8));  // deadline 8

  const auto at2 = drop_at(pending, 2);
  EXPECT_EQ(at2.total, 1);
  ASSERT_EQ(at2.by_color.size(), 1u);
  EXPECT_EQ(at2.by_color[0].first, 0);
  EXPECT_EQ(at2.by_color[0].second, 1);
  EXPECT_EQ(dropped_ids(at2), std::vector<JobId>{0});
  EXPECT_EQ(pending.total(), 2);

  const auto at10 = drop_at(pending, 10);
  EXPECT_EQ(at10.total, 2);
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, DropExpiredNothingToDo) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 4, 4));
  const auto result = drop_at(pending, 3);
  EXPECT_EQ(result.total, 0);
  EXPECT_TRUE(result.by_color.empty());
}

TEST(PendingJobs, DropAfterPopDoesNotDoubleCount) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 2));
  pending.add(make_job(1, 0, 0, 2));
  EXPECT_EQ(pending.pop_earliest(0), 0);
  const auto result = drop_at(pending, 2);
  EXPECT_EQ(result.total, 1);  // only job 1 remains to drop
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, ResetClearsEverything) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 2));
  pending.reset(3);
  EXPECT_EQ(pending.total(), 0);
  EXPECT_TRUE(pending.idle(0));
  EXPECT_EQ(drop_at(pending, 100).total, 0);
}

TEST(PendingJobs, NonMonotoneDeadlinesWithinColorRejected) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 4, 4));  // deadline 8
  EXPECT_THROW(pending.add(make_job(1, 0, 0, 4)), InvariantError);
}

TEST(PendingJobs, PopFromIdleColorRejected) {
  PendingJobs pending;
  pending.reset(1);
  EXPECT_THROW((void)pending.pop_earliest(0), InvariantError);
  EXPECT_THROW((void)pending.earliest_deadline(0), InvariantError);
}

TEST(PendingJobs, ManyColorsInterleaved) {
  PendingJobs pending;
  pending.reset(64);
  for (ColorId c = 0; c < 64; ++c) {
    for (int i = 0; i < 3; ++i) {
      pending.add(make_job(c * 3 + i, c, i * 2, 16));
    }
  }
  EXPECT_EQ(pending.total(), 192);
  const auto dropped = drop_at(pending, 17);  // deadlines 16/18/20
  EXPECT_EQ(dropped.total, 64);
  EXPECT_EQ(pending.total(), 128);
  for (ColorId c = 0; c < 64; ++c) {
    EXPECT_EQ(pending.count(c), 2);
    EXPECT_EQ(pending.earliest_deadline(c), 18);
  }
}

TEST(PendingJobs, SweepBufferIsClearedAndReused) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 1));
  pending.add(make_job(1, 0, 1, 1));
  PendingJobs::DropResult out;
  pending.drop_expired(1, out);
  EXPECT_EQ(out.total, 1);
  pending.drop_expired(2, out);  // must clear the previous sweep's content
  EXPECT_EQ(out.total, 1);
  EXPECT_EQ(dropped_ids(out), std::vector<JobId>{1});
}

TEST(PendingJobs, StaleHintsAfterPopDrainNothing) {
  // Executing every job of a hinted deadline leaves a stale calendar hint;
  // the sweep that consumes it must drop nothing and not disturb later
  // jobs of the same color.
  PendingJobs pending;
  pending.reset(2);
  pending.add(make_job(0, 0, 0, 4));  // deadline 4 (hinted)
  pending.add(make_job(1, 0, 2, 4));  // deadline 6 (hinted)
  pending.add(make_job(2, 1, 0, 4));  // deadline 4 (hinted)
  EXPECT_EQ(pending.pop_earliest(0), 0);  // deadline-4 hint for color 0 stale
  EXPECT_EQ(pending.pop_earliest(1), 2);  // deadline-4 hint for color 1 stale

  const auto at4 = drop_at(pending, 4);
  EXPECT_EQ(at4.total, 0);
  EXPECT_TRUE(at4.by_color.empty());
  EXPECT_EQ(pending.count(0), 1);

  const auto at6 = drop_at(pending, 6);
  EXPECT_EQ(at6.total, 1);
  EXPECT_EQ(dropped_ids(at6), std::vector<JobId>{1});
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, InterleavedPopAndDropAcrossSweeps) {
  // Pops between sweeps must never resurrect or double-drop jobs even when
  // several deadlines of one color share sweep coverage.
  PendingJobs pending;
  pending.reset(1);
  for (int i = 0; i < 6; ++i) {
    pending.add(make_job(i, 0, i, 3));  // deadlines 3..8
  }
  EXPECT_EQ(pending.pop_earliest(0), 0);           // deadline 3 executed
  EXPECT_EQ(drop_at(pending, 4).total, 1);         // job 1 (deadline 4)
  EXPECT_EQ(pending.pop_earliest(0), 2);           // deadline 5 executed
  EXPECT_EQ(pending.pop_earliest(0), 3);           // deadline 6 executed
  const auto at7 = drop_at(pending, 7);            // job 4 (deadline 7)
  EXPECT_EQ(at7.total, 1);
  EXPECT_EQ(dropped_ids(at7), std::vector<JobId>{4});
  EXPECT_EQ(pending.count(0), 1);
  EXPECT_EQ(pending.earliest_deadline(0), 8);
}

TEST(PendingJobs, SweepsAtOrBeforeCursorAreNoOps) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 8));
  EXPECT_EQ(drop_at(pending, 5).total, 0);  // cursor -> 5
  // Re-sweeping covered rounds is a documented no-op, not an error.
  EXPECT_EQ(drop_at(pending, 5).total, 0);
  EXPECT_EQ(drop_at(pending, 3).total, 0);
  EXPECT_EQ(pending.total(), 1);
  EXPECT_EQ(drop_at(pending, 8).total, 1);
}

TEST(PendingJobs, DelayBoundOneExpiresNextRound) {
  // D_l = 1: a job arriving in round k is droppable in round k+1, the
  // tightest calendar bucket distance possible.
  PendingJobs pending;
  pending.reset(1);
  PendingJobs::DropResult out;
  for (Round k = 0; k < 40; ++k) {
    pending.drop_expired(k, out);
    EXPECT_EQ(out.total, k > 0 ? 1 : 0) << "round " << k;
    pending.add(make_job(k, 0, k, 1));  // deadline k + 1
    EXPECT_EQ(pending.count(0), 1);
  }
}

TEST(PendingJobs, FarFutureDeadlinesSurviveRingGrowth) {
  // A deadline far beyond the current ring span forces the calendar to
  // grow and re-bucket; nearby jobs must still expire on time and the far
  // job must only fall at its own deadline.
  PendingJobs pending;
  pending.reset(2);
  pending.add(make_job(0, 0, 0, 3));        // deadline 3
  pending.add(make_job(1, 1, 0, 100'000));  // deadline 100000 (grows ring)
  pending.add(make_job(2, 0, 1, 3));        // deadline 4

  EXPECT_EQ(drop_at(pending, 3).total, 1);
  EXPECT_EQ(drop_at(pending, 4).total, 1);
  EXPECT_EQ(drop_at(pending, 99'999).total, 0);
  const auto at_far = drop_at(pending, 100'000);
  EXPECT_EQ(at_far.total, 1);
  EXPECT_EQ(dropped_ids(at_far), std::vector<JobId>{1});
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, RingWraparoundKeepsLaterCycleEntries) {
  // Two deadlines that collide in the same ring bucket (one full cycle
  // apart): sweeping the earlier round must keep the later-cycle hint.
  PendingJobs pending;
  pending.reset(2);
  // Default ring is 64 buckets; deadlines 10 and 74 share bucket 10.
  pending.add(make_job(0, 0, 0, 10));  // deadline 10
  pending.add(make_job(1, 1, 0, 74));  // deadline 74, same bucket

  const auto at10 = drop_at(pending, 10);
  EXPECT_EQ(at10.total, 1);
  EXPECT_EQ(dropped_ids(at10), std::vector<JobId>{0});
  EXPECT_EQ(pending.count(1), 1);

  EXPECT_EQ(drop_at(pending, 73).total, 0);
  EXPECT_EQ(drop_at(pending, 74).total, 1);
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, LargeSweepGapCoversWholeRing) {
  // A sweep jumping far past every live deadline (gap >> ring size) must
  // drop everything in one call.
  PendingJobs pending;
  pending.reset(4);
  for (ColorId c = 0; c < 4; ++c) {
    pending.add(make_job(c, c, 0, 5 + c));
  }
  EXPECT_EQ(drop_at(pending, 1'000'000).total, 4);
  EXPECT_EQ(pending.total(), 0);
  // The store stays usable after the jump: new arrivals beyond the cursor.
  pending.add(make_job(9, 0, 1'000'000, 7));
  EXPECT_EQ(drop_at(pending, 1'000'007).total, 1);
}

// --- multi-unit job lengths ------------------------------------------------

Job make_long_job(JobId id, ColorId color, Round arrival, Round delay,
                  Round length) {
  Job job = make_job(id, color, arrival, delay);
  job.length = length;
  return job;
}

TEST(PendingJobs, ExecuteEarliestTracksRemainingUnits) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_long_job(0, 0, 0, 8, 3));
  EXPECT_EQ(pending.earliest_remaining(0), 3);

  PendingJobs::ExecResult first = pending.execute_earliest(0);
  EXPECT_EQ(first.id, 0);
  EXPECT_FALSE(first.completed);
  EXPECT_EQ(pending.earliest_remaining(0), 2);
  EXPECT_EQ(pending.count(0), 1);  // partially executed jobs stay pending

  (void)pending.execute_earliest(0);
  PendingJobs::ExecResult last = pending.execute_earliest(0);
  EXPECT_EQ(last.id, 0);
  EXPECT_TRUE(last.completed);
  EXPECT_TRUE(pending.idle(0));
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, ExecuteEarliestMatchesPopForUnitLengths) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 4));
  pending.add(make_job(1, 0, 1, 4));
  const PendingJobs::ExecResult r = pending.execute_earliest(0);
  EXPECT_EQ(r.id, 0);
  EXPECT_TRUE(r.completed);  // unit length: one unit completes the job
  EXPECT_EQ(pending.pop_earliest(0), 1);
}

TEST(PendingJobs, PartialProgressStaysWithTheFrontJob) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_long_job(0, 0, 0, 4, 2));
  pending.add(make_long_job(1, 0, 1, 4, 2));
  // Units flow to the front (earliest-deadline) job until it completes.
  EXPECT_FALSE(pending.execute_earliest(0).completed);
  EXPECT_EQ(pending.execute_earliest(0).id, 0);
  EXPECT_EQ(pending.earliest_remaining(0), 2);  // now job 1 is the front
  EXPECT_FALSE(pending.execute_earliest(0).completed);
  EXPECT_TRUE(pending.execute_earliest(0).completed);
}

TEST(PendingJobs, PartiallyExecutedFrontJobStillExpires) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_long_job(0, 0, 0, 2, 3));
  (void)pending.execute_earliest(0);  // 1 of 3 units applied
  const PendingJobs::DropResult dropped = drop_at(pending, 2);
  EXPECT_EQ(dropped.total, 1);  // expires as a whole job despite progress
  ASSERT_EQ(dropped_ids(dropped).size(), 1u);
  EXPECT_EQ(dropped_ids(dropped)[0], 0);
  EXPECT_TRUE(pending.idle(0));
}

TEST(PendingJobs, EmptySetSweepJumpsInConstantTime) {
  // With nothing pending, a sweep may jump the cursor arbitrarily far
  // without walking the ring (the fast-forward path does exactly this).
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 4));
  EXPECT_EQ(pending.pop_earliest(0), 0);
  EXPECT_EQ(drop_at(pending, 1'000'000'000).total, 0);
  pending.add(make_job(1, 0, 1'000'000'000, 4));
  const auto dropped = drop_at(pending, 1'000'000'004);
  EXPECT_EQ(dropped.total, 1);
  EXPECT_EQ(dropped_ids(dropped), std::vector<JobId>{1});
}

TEST(PendingJobs, EmptySetJumpResetsStaleHints) {
  // The empty-set jump discards outstanding calendar hints.  A later job
  // re-using a discarded hint's deadline must be re-bucketed — if it were
  // not, it would never be swept.
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 8));      // deadline 8, hint bucketed
  EXPECT_EQ(pending.pop_earliest(0), 0);  // set empty; the hint is stale
  EXPECT_EQ(drop_at(pending, 5).total, 0);  // jump discards the hint
  pending.add(make_job(1, 0, 5, 3));      // deadline 8 again
  const auto dropped = drop_at(pending, 8);
  EXPECT_EQ(dropped.total, 1);
  EXPECT_EQ(dropped_ids(dropped), std::vector<JobId>{1});
  EXPECT_TRUE(pending.idle(0));
}

/// Reference model: per-color deque of (deadline, id), linear-scan expiry.
class NaivePending {
 public:
  explicit NaivePending(ColorId num_colors)
      : queues_(static_cast<std::size_t>(num_colors)) {}

  void add(const Job& job) {
    queues_[static_cast<std::size_t>(job.color)].emplace_back(job.deadline(),
                                                              job.id);
  }

  JobId pop_earliest(ColorId color) {
    auto& q = queues_[static_cast<std::size_t>(color)];
    const JobId id = q.front().second;
    q.pop_front();
    return id;
  }

  [[nodiscard]] std::int64_t count(ColorId color) const {
    return static_cast<std::int64_t>(
        queues_[static_cast<std::size_t>(color)].size());
  }

  /// Returns (total dropped, ids dropped sorted) for deadline <= round.
  std::pair<std::int64_t, std::vector<JobId>> drop_expired(Round round) {
    std::int64_t total = 0;
    std::vector<JobId> ids;
    for (auto& q : queues_) {
      while (!q.empty() && q.front().first <= round) {
        ids.push_back(q.front().second);
        q.pop_front();
        ++total;
      }
    }
    std::sort(ids.begin(), ids.end());
    return {total, std::move(ids)};
  }

 private:
  std::vector<std::deque<std::pair<Round, JobId>>> queues_;
};

class PendingDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PendingDifferential, MatchesNaiveReferenceUnderRandomOps) {
  // Random interleaving of adds, pops, and monotone sweeps (with gaps that
  // exercise wraparound and growth) must match the linear-scan reference
  // exactly: same drop totals, same dropped ids, same per-color counts.
  constexpr ColorId kColors = 8;
  Rng rng(GetParam());
  PendingJobs pending;
  pending.reset(kColors);
  NaivePending naive(kColors);
  PendingJobs::DropResult out;

  std::vector<Round> last_deadline(kColors, 0);
  JobId next_id = 0;
  Round now = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::int64_t action = rng.uniform(0, 9);
    if (action < 5) {  // add
      const auto color = static_cast<ColorId>(rng.uniform(0, kColors - 1));
      // Delay chosen so the deadline stays nondecreasing within the color
      // and occasionally lands far out (ring growth / wraparound).
      const Round min_delay =
          std::max<Round>(1, last_deadline[static_cast<std::size_t>(color)] -
                                 now);
      Round delay = min_delay + rng.uniform(0, 12);
      if (rng.bernoulli(0.02)) delay += 300;  // past the default ring span
      const Job job = make_job(next_id++, color, now, delay);
      last_deadline[static_cast<std::size_t>(color)] = job.deadline();
      pending.add(job);
      naive.add(job);
    } else if (action < 8) {  // pop
      const auto color = static_cast<ColorId>(rng.uniform(0, kColors - 1));
      if (!pending.idle(color)) {
        EXPECT_EQ(pending.pop_earliest(color), naive.pop_earliest(color));
      }
    } else {  // sweep, strictly forward; sometimes a large gap
      now += rng.bernoulli(0.1) ? rng.uniform(50, 400) : rng.uniform(1, 4);
      pending.drop_expired(now, out);
      const auto [naive_total, naive_ids] = naive.drop_expired(now);
      EXPECT_EQ(out.total, naive_total) << "round " << now;
      std::vector<JobId> got = dropped_ids(out);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, naive_ids) << "round " << now;
      std::int64_t by_color_sum = 0;
      for (const auto& [color, cnt] : out.by_color) by_color_sum += cnt;
      EXPECT_EQ(by_color_sum, out.total);
    }
    for (ColorId c = 0; c < kColors; ++c) {
      ASSERT_EQ(pending.count(c), naive.count(c)) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PendingDifferential,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

// --- run-length store vs per-job reference twin ---------------------------

/// The per-job store the run-length one replaced: one slot per job in a
/// structure-of-arrays pool, intrusive per-color FIFO chains, the same
/// calendar-hint discipline.  Kept here as the reference twin.
class PerJobPending {
 public:
  explicit PerJobPending(ColorId num_colors)
      : queues_(static_cast<std::size_t>(num_colors)) {}

  void add(ColorId color, JobId id, Round deadline, Round remaining) {
    Queue& q = queues_[idx(color)];
    const auto slot = static_cast<std::int32_t>(deadline_.size());
    deadline_.push_back(deadline);
    id_.push_back(id);
    remaining_.push_back(remaining);
    next_.push_back(-1);
    if (q.tail >= 0) {
      next_[idx(q.tail)] = slot;
    } else {
      q.head = slot;
    }
    q.tail = slot;
    ++q.count;
    ++total_;
    if (q.last_bucketed != deadline) {
      const Round target = std::max(deadline, cursor_ + 1);
      hints_.emplace(target, Hint{color, deadline});
      q.last_bucketed = deadline;
    }
  }

  [[nodiscard]] std::int64_t count(ColorId color) const {
    return queues_[idx(color)].count;
  }
  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] Round earliest_deadline(ColorId color) const {
    return deadline_[idx(queues_[idx(color)].head)];
  }
  [[nodiscard]] Round earliest_remaining(ColorId color) const {
    return remaining_[idx(queues_[idx(color)].head)];
  }

  JobId pop_earliest(ColorId color) {
    Queue& q = queues_[idx(color)];
    const std::int32_t slot = q.head;
    q.head = next_[idx(slot)];
    if (q.head < 0) q.tail = -1;
    --q.count;
    --total_;
    return id_[idx(slot)];
  }

  PendingJobs::ExecResult execute_earliest(ColorId color) {
    const auto s = idx(queues_[idx(color)].head);
    if (remaining_[s] > 1) {
      --remaining_[s];
      return {id_[s], false};
    }
    return {pop_earliest(color), true};
  }

  /// (color, id) of every job dropped by the round-`round` sweep.
  std::vector<std::pair<ColorId, JobId>> drop_expired(Round round) {
    std::vector<std::pair<ColorId, JobId>> dropped;
    if (round <= cursor_) return dropped;
    if (total_ == 0) {
      hints_.clear();
      for (Queue& q : queues_) q.last_bucketed = -1;
      cursor_ = round;
      return dropped;
    }
    // Hints are keyed by the round whose sweep finds them; a multimap
    // stands in for the calendar ring.
    while (!hints_.empty() && hints_.begin()->first <= round) {
      const Hint hint = hints_.begin()->second;
      hints_.erase(hints_.begin());
      Queue& q = queues_[idx(hint.color)];
      if (q.last_bucketed == hint.deadline) q.last_bucketed = -1;
      while (q.head >= 0 && deadline_[idx(q.head)] <= round) {
        dropped.emplace_back(hint.color, id_[idx(q.head)]);
        q.head = next_[idx(q.head)];
        --q.count;
        --total_;
      }
      if (q.head < 0) q.tail = -1;
    }
    cursor_ = round;
    return dropped;
  }

  void export_color(ColorId color,
                    std::vector<PendingJobs::ExportedJob>& out) const {
    for (std::int32_t s = queues_[idx(color)].head; s >= 0;
         s = next_[idx(s)]) {
      out.push_back({id_[idx(s)], deadline_[idx(s)], remaining_[idx(s)]});
    }
  }

 private:
  struct Queue {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::int64_t count = 0;
    Round last_bucketed = -1;
  };
  struct Hint {
    ColorId color;
    Round deadline;
  };

  template <typename T>
  [[nodiscard]] static std::size_t idx(T v) {
    return static_cast<std::size_t>(v);
  }

  std::vector<Round> deadline_;
  std::vector<JobId> id_;
  std::vector<Round> remaining_;
  std::vector<std::int32_t> next_;
  std::vector<Queue> queues_;
  std::multimap<Round, Hint> hints_;
  Round cursor_ = -1;
  std::int64_t total_ = 0;
};

/// (color, id) pairs of a sweep, sorted, expanded from its runs.
std::vector<std::pair<ColorId, JobId>> sorted_drops(
    const PendingJobs::DropResult& result) {
  std::vector<std::pair<ColorId, JobId>> out;
  for (const PendingJobs::DroppedRun& run : result.runs) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      out.emplace_back(run.color, run.first_id + i);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Serializes `pending` into a framed checkpoint and restores it into a
/// fresh store of `colors` colors.
PendingJobs checkpoint_round_trip(const PendingJobs& pending, ColorId colors) {
  CheckpointWriter w;
  w.begin_section(1);
  pending.checkpoint(w);
  w.end_section();
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  w.finish(bytes);
  CheckpointReader r(bytes);
  PendingJobs restored;
  restored.reset(colors);
  r.open_section(1);
  restored.restore_checkpoint(r);
  r.close_section();
  return restored;
}

class RunStoreDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RunStoreDifferential, MatchesPerJobTwinUnderRandomOps) {
  // A seeded mix of adds (continuing the tail run or not, lengths 1-3,
  // sometimes past their deadline), partial executions, pops, sweeps with
  // gaps and empty-set jumps, export->restore migrations and checkpoint
  // round-trips.  After every step both stores must agree on every
  // observable; every sweep must drop the same (color, id) multiset.
  constexpr ColorId kColors = 6;
  Rng rng(GetParam());
  PendingJobs runs;
  runs.reset(kColors);
  PerJobPending twin(kColors);
  PendingJobs::DropResult out;

  JobId next_id = 0;
  Round now = 0;     // the next sweep's round
  Round swept = -1;  // the last swept round
  std::int64_t migrations = 0;
  std::int64_t round_trips = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::int64_t action = rng.uniform(0, 99);
    const auto color = static_cast<ColorId>(rng.uniform(0, kColors - 1));
    if (action < 45) {  // add
      std::vector<PendingJobs::ExportedJob> pending;
      twin.export_color(color, pending);
      Job job;
      job.color = color;
      if (!pending.empty() && rng.bernoulli(0.6)) {
        // Continue the tail run (or nearly: a gap or a new length).
        const PendingJobs::ExportedJob& tail = pending.back();
        job.id = tail.id + (rng.bernoulli(0.85) ? 1 : 2);
        job.arrival = tail.deadline;
        job.delay_bound = 0;
        job.length = rng.bernoulli(0.8) ? tail.remaining : 1;
      } else {
        job.id = next_id;
        const Round floor = pending.empty() ? 0 : pending.back().deadline;
        // Past-deadline adds land at or before the swept cursor.
        const Round lo = std::max<Round>(floor, now - 3);
        job.arrival = lo + rng.uniform(0, 12) + (rng.bernoulli(0.02) ? 300 : 0);
        job.delay_bound = 0;
        job.length = rng.uniform(1, 3);
      }
      next_id = std::max(next_id, job.id + 1);
      const std::int64_t count = rng.bernoulli(0.3) ? rng.uniform(2, 5) : 1;
      if (count > 1 && rng.bernoulli(0.5)) {
        runs.add_run(color, job.id, count, job.deadline(), job.length);
      } else {
        for (std::int64_t i = 0; i < count; ++i) {
          Job each = job;
          each.id = job.id + i;
          runs.add(each);
        }
      }
      for (std::int64_t i = 0; i < count; ++i) {
        twin.add(color, job.id + i, job.deadline(), job.length);
      }
      next_id = std::max(next_id, job.id + count);
    } else if (action < 70) {  // execute one unit
      if (twin.count(color) > 0) {
        const PendingJobs::ExecResult a = runs.execute_earliest(color);
        const PendingJobs::ExecResult b = twin.execute_earliest(color);
        ASSERT_EQ(a.id, b.id) << "step " << step;
        ASSERT_EQ(a.completed, b.completed) << "step " << step;
      }
    } else if (action < 75) {  // pop (drops partial progress with the job)
      if (twin.count(color) > 0) {
        ASSERT_EQ(runs.pop_earliest(color), twin.pop_earliest(color))
            << "step " << step;
      }
    } else if (action < 93) {  // sweep
      if (twin.total() == 0 && rng.bernoulli(0.3)) {
        now += rng.uniform(1'000, 1'000'000);  // fast-forward jump
      } else {
        now += rng.bernoulli(0.1) ? rng.uniform(50, 400) : rng.uniform(0, 3);
      }
      runs.drop_expired(now, out);
      std::vector<std::pair<ColorId, JobId>> expected = twin.drop_expired(now);
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(sorted_drops(out), expected) << "round " << now;
      ASSERT_EQ(out.total, static_cast<std::int64_t>(expected.size()));
      std::int64_t by_color_sum = 0;
      for (const auto& [c, n] : out.by_color) by_color_sum += n;
      ASSERT_EQ(by_color_sum, out.total);
      swept = std::max(swept, now);
      ++now;
    } else if (action < 97) {  // migrate every color into a fresh store
      PendingJobs moved;
      moved.reset(kColors);
      if (swept >= 0) moved.drop_expired(swept, out);  // align the cursor
      for (ColorId c = 0; c < kColors; ++c) {
        std::vector<PendingJobs::ExportedJob> jobs;
        runs.export_color(c, jobs);
        for (const PendingJobs::ExportedJob& job : jobs) moved.restore(c, job);
      }
      runs = std::move(moved);
      ++migrations;
    } else {  // checkpoint round-trip
      runs = checkpoint_round_trip(runs, kColors);
      ++round_trips;
    }

    ASSERT_EQ(runs.total(), twin.total()) << "step " << step;
    for (ColorId c = 0; c < kColors; ++c) {
      ASSERT_EQ(runs.count(c), twin.count(c)) << "step " << step;
      ASSERT_EQ(runs.idle(c), twin.count(c) == 0) << "step " << step;
      ASSERT_LE(runs.run_count(c), runs.count(c));
      if (twin.count(c) == 0) continue;
      ASSERT_GE(runs.run_count(c), 1);
      ASSERT_EQ(runs.earliest_deadline(c), twin.earliest_deadline(c))
          << "step " << step << " color " << c;
      ASSERT_EQ(runs.earliest_remaining(c), twin.earliest_remaining(c))
          << "step " << step << " color " << c;
    }
  }
  EXPECT_GT(migrations, 0);
  EXPECT_GT(round_trips, 0);
  // Export expands runs back to the twin's per-job form exactly.
  for (ColorId c = 0; c < kColors; ++c) {
    std::vector<PendingJobs::ExportedJob> a;
    std::vector<PendingJobs::ExportedJob> b;
    runs.export_color(c, a);
    twin.export_color(c, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].deadline, b[i].deadline);
      EXPECT_EQ(a[i].remaining, b[i].remaining);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunStoreDifferential,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

TEST(PendingRuns, CoalescesOnlyContinuingJobs) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 4));
  pending.add(make_job(1, 0, 0, 4));  // continues: one run
  EXPECT_EQ(pending.run_count(0), 1);
  pending.add(make_job(3, 0, 0, 4));  // id gap: new run
  EXPECT_EQ(pending.run_count(0), 2);
  pending.add(make_job(4, 0, 1, 4));  // new deadline: new run
  EXPECT_EQ(pending.run_count(0), 3);
  pending.add(make_long_job(5, 0, 1, 4, 2));  // new length: new run
  EXPECT_EQ(pending.run_count(0), 4);
  pending.add_run(0, 6, 3, 5, 2);  // continues the tail run
  EXPECT_EQ(pending.run_count(0), 4);
  EXPECT_EQ(pending.count(0), 8);
  const PendingJobs::DropResult dropped = drop_at(pending, 4);
  ASSERT_EQ(dropped.runs.size(), 2u);
  EXPECT_EQ(dropped.runs[0], (PendingJobs::DroppedRun{0, 0, 2}));
  EXPECT_EQ(dropped.runs[1], (PendingJobs::DroppedRun{0, 3, 1}));
  EXPECT_EQ(pending.count(0), 5);
}

TEST(PendingRuns, RandomBatchedIngestStoresOneRunPerBatch) {
  // Every pending color-round batch of the generator is exactly one run:
  // batches carry consecutive ids and one deadline, and distinct batches
  // of one color have distinct deadlines.
  RandomBatchedParams params;
  params.num_colors = 32;
  params.horizon = 2048;
  params.seed = 3;
  RandomBatchedSource source(params);
  PendingJobs pending;
  pending.reset(source.num_colors());
  PendingJobs::DropResult out;
  std::int64_t checked = 0;
  for (Round k = 0; k < source.horizon(); ++k) {
    pending.drop_expired(k, out);
    for (const Job& job : source.arrivals_in_round(k)) pending.add(job);
    // Partial draining keeps the surviving suffix of a batch one run.
    if (k % 3 == 0) {
      for (ColorId c = 0; c < source.num_colors(); c += 5) {
        if (!pending.idle(c)) (void)pending.pop_earliest(c);
      }
    }
    for (ColorId c = 0; c < source.num_colors(); ++c) {
      std::vector<PendingJobs::ExportedJob> jobs;
      pending.export_color(c, jobs);
      std::int64_t batches = 0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == 0 || jobs[i].deadline != jobs[i - 1].deadline) ++batches;
      }
      ASSERT_EQ(pending.run_count(c), batches) << "round " << k;
      checked += batches;
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace rrs
