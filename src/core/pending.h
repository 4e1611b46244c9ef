// Pending-job bookkeeping shared by the engine and the offline machinery.
//
// Tracks, per color, the not-yet-executed not-yet-dropped jobs, ordered by
// deadline.  Within one color deadlines are nondecreasing in arrival order
// (one fixed delay bound per color), so a FIFO per color suffices.
//
// Storage is run-length: the paper's batched model delivers a color's jobs
// in batches that share one deadline, and every source hands out dense
// ids in emission order, so a batch is a *run* {first_id, count,
// deadline}.  Each color's FIFO is a ring of runs; add() extends the tail
// run when the job continues it (same deadline, same length, id ==
// first_id + count) and opens a new run otherwise, so any arrival order
// stays correct.  Ingest, expiry and execution cost O(runs), not O(jobs).
// Partial execution only ever touches a color's front job, so the color
// carries one remaining-length lane for that job; every other job of a run
// still needs the run's full length.
//
// Expiry across colors is found through a bucketed calendar ring keyed by
// deadline round.  Deadlines are bounded by `now + max D_l`, so a ring of
// at least max D_l buckets holds every live deadline in a distinct bucket
// and the per-round expiry sweep inspects exactly one bucket.  The
// calendar stores *hints* ({color, deadline} pairs, one per distinct
// deadline per color): a hint whose jobs were already executed drains
// nothing, and a sweep touches only the buckets of the rounds it covers.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/job.h"
#include "core/types.h"
#include "util/check.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Multiset of pending jobs, keyed by color, ordered by deadline per color.
///
/// Expiry sweeps must use nondecreasing rounds (the engine sweeps every
/// round in order); a sweep at or before the last swept round is a no-op.
class PendingJobs {
 public:
  /// Prepares bookkeeping for colors [0, num_colors); discards any state.
  void reset(ColorId num_colors);

  /// Adds a newly arrived job, extending `job.color`'s tail run when the
  /// job continues it.  Amortized O(1).
  void add(const Job& job) {
    add_run(job.color, job.id, 1, job.deadline(), job.length);
  }

  /// Adds `count` >= 1 jobs of `color` with ids first_id .. first_id +
  /// count - 1, all expiring at `deadline` and each needing `length`
  /// execution units.  Equivalent to add() of each job in id order, at the
  /// cost of one.
  void add_run(ColorId color, JobId first_id, std::int64_t count,
               Round deadline, Round length);

  /// Number of pending jobs of `color`.
  [[nodiscard]] std::int64_t count(ColorId color) const {
    return queues_[idx(color)].count;
  }

  /// True iff `color` has no pending jobs (the paper's "idle").
  [[nodiscard]] bool idle(ColorId color) const {
    return queues_[idx(color)].count == 0;
  }

  /// Total pending jobs across all colors.
  [[nodiscard]] std::int64_t total() const { return total_; }

  /// Runs stored for `color`: maximal stretches of its pending jobs with
  /// one deadline, one length and consecutive ids, as far as add() could
  /// coalesce them.
  [[nodiscard]] std::int64_t run_count(ColorId color) const {
    return queues_[idx(color)].size;
  }

  /// Deadline of the earliest-deadline pending job of `color`.
  /// Requires count(color) > 0.
  [[nodiscard]] Round earliest_deadline(ColorId color) const {
    const ColorQueue& q = queues_[idx(color)];
    RRS_CHECK(q.count > 0);
    return q.front().deadline;
  }

  /// Removes and returns the earliest-deadline pending job of `color`
  /// (i.e. executes it).  Requires count(color) > 0.  Equivalent to
  /// execute_earliest() for unit-length jobs; multi-unit jobs must go
  /// through execute_earliest() so partial progress is tracked.
  JobId pop_earliest(ColorId color) {
    ColorQueue& q = queues_[idx(color)];
    RRS_CHECK(q.count > 0);
    Run& front = q.front();
    const JobId id = front.first_id++;
    --q.count;
    --total_;
    if (--front.count == 0) {
      pop_run(q);
    } else {
      q.head_remaining = front.length;
    }
    return id;
  }

  /// One execution unit applied to a job.
  struct ExecResult {
    JobId id = 0;
    bool completed = false;  ///< final unit: the job left the multiset
  };

  /// Applies one execution unit to the earliest-deadline pending job of
  /// `color`, removing it when its remaining length hits zero.  Requires
  /// count(color) > 0.  At most the front job of a color is ever partially
  /// executed: progress always goes to the front (EDF within color), and a
  /// front job that expires is dropped at full weight, so partial progress
  /// never outlives the front position.
  ExecResult execute_earliest(ColorId color) {
    ColorQueue& q = queues_[idx(color)];
    RRS_CHECK(q.count > 0);
    if (q.head_remaining > 1) {
      --q.head_remaining;
      return {q.front().first_id, false};
    }
    return {pop_earliest(color), true};
  }

  /// Remaining execution units of the earliest-deadline pending job of
  /// `color`.  Requires count(color) > 0.
  [[nodiscard]] Round earliest_remaining(ColorId color) const {
    const ColorQueue& q = queues_[idx(color)];
    RRS_CHECK(q.count > 0);
    return q.head_remaining;
  }

  /// A stretch of dropped jobs of one color with consecutive ids.
  struct DroppedRun {
    ColorId color = 0;
    JobId first_id = 0;
    std::int64_t count = 0;

    friend bool operator==(const DroppedRun&, const DroppedRun&) = default;
  };

  /// Result of an expiry sweep.
  struct DropResult {
    std::int64_t total = 0;
    /// (color, count) pairs for colors that dropped >= 1 job, ascending
    /// color order not guaranteed.
    std::vector<std::pair<ColorId, std::int64_t>> by_color;
    /// Every dropped job, as runs of consecutive ids, unordered (so
    /// consumers never need the full job table — streaming runs have
    /// none).  The counts sum to `total`.
    std::vector<DroppedRun> runs;

    /// Empties the result, keeping allocated capacity for reuse.
    void clear() {
      total = 0;
      by_color.clear();
      runs.clear();
    }
  };

  /// Drops every pending job with deadline <= `round` (the round-`round`
  /// drop phase) into `out`, which is cleared first; its buffers are
  /// reused, so a caller-held DropResult makes the per-round sweep
  /// allocation-free.  Sweeps inspect only the calendar buckets of rounds
  /// (last swept, round]; `round` at or below the last swept round is a
  /// no-op.
  void drop_expired(Round round, DropResult& out);

  /// Lower bound on the next round whose drop phase can expire a job: the
  /// first round in (last swept, limit] whose calendar bucket holds a
  /// hint, or `limit` when none does or nothing is pending.  A stale hint
  /// (its jobs already executed) or one of a later ring cycle makes the
  /// bound early, never late.  Costs one bucket check per round scanned.
  [[nodiscard]] Round next_expiry_hint(Round limit) const;

  // --- shard migration (engine export/import surface) ---

  /// One exported pending job: identity, absolute deadline, remaining
  /// execution units.
  struct ExportedJob {
    JobId id = 0;
    Round deadline = 0;
    Round remaining = 1;
  };

  /// Appends `color`'s pending jobs to `out` in FIFO (deadline) order,
  /// one entry per job.
  void export_color(ColorId color, std::vector<ExportedJob>& out) const;

  /// Re-adds an exported job under `color` (the receiving store's local
  /// id).  Restore jobs in their exported order so per-color deadlines
  /// stay nondecreasing; consecutive jobs re-coalesce into runs.
  void restore(ColorId color, const ExportedJob& job) {
    add_run(color, job.id, 1, job.deadline, job.remaining);
  }

  // --- checkpoint/restore (crash-safe service mode) ---

  /// Serializes the sweep cursor and every color's FIFO (ids, deadlines,
  /// partial progress — one entry per job) into the writer's current
  /// section.
  void checkpoint(CheckpointWriter& w) const;

  /// Restores state written by checkpoint() into this store, which must
  /// be freshly reset() with the same color count.  The calendar is
  /// rebuilt from the restored jobs; hint-set differences against the
  /// original store are unobservable (stale hints drain nothing).
  void restore_checkpoint(CheckpointReader& r);

 private:
  /// Jobs first_id .. first_id + count - 1 of one color, all expiring at
  /// `deadline`.  `length` is what each not-yet-started job of the run
  /// needs; the front job's progress lives in ColorQueue::head_remaining.
  struct Run {
    JobId first_id = 0;
    std::int64_t count = 0;
    Round deadline = 0;
    Round length = 1;
  };

  /// One color's FIFO: a ring of runs with power-of-two capacity.
  struct ColorQueue {
    std::vector<Run> ring;
    std::uint32_t head = 0;  ///< ring index of the earliest-deadline run
    std::uint32_t size = 0;  ///< runs stored
    std::int64_t count = 0;  ///< jobs stored
    /// Execution units left on the front job (meaningful iff count > 0).
    Round head_remaining = 0;
    /// Largest deadline with an outstanding calendar hint for this color
    /// (-1 if none): adds of an already-hinted deadline skip the calendar.
    Round last_bucketed = -1;

    [[nodiscard]] const Run& front() const { return ring[head]; }
    [[nodiscard]] Run& front() { return ring[head]; }
    [[nodiscard]] Run& back() {
      return ring[(head + size - 1) & (ring.size() - 1)];
    }
  };

  /// Calendar hint: color may hold jobs expiring at `deadline`.
  struct CalendarEntry {
    ColorId color;
    Round deadline;
  };

  [[nodiscard]] static std::size_t idx(ColorId color) {
    return static_cast<std::size_t>(color);
  }

  /// Appends a run to `q`'s ring, doubling the ring when full.
  static void push_run(ColorQueue& q, const Run& run);

  /// Drops `q`'s front run; the next run's front job starts unexecuted.
  static void pop_run(ColorQueue& q) {
    q.head = (q.head + 1) & static_cast<std::uint32_t>(q.ring.size() - 1);
    --q.size;
    if (q.size > 0) q.head_remaining = q.front().length;
  }

  /// Records the hint {color, deadline} in the ring bucket of
  /// max(deadline, cursor_ + 1), growing the ring when the deadline lies
  /// beyond the current cycle.
  void bucket_entry(ColorId color, Round deadline);

  /// Re-buckets every outstanding hint into a ring of >= `min_span`
  /// power-of-two buckets.
  void grow_ring(Round min_span);

  /// Drains every job of `entry.color` with deadline <= `round` into
  /// `out`.
  void drain_expired(const CalendarEntry& entry, Round round,
                     DropResult& out);

  std::vector<ColorQueue> queues_;  // color -> FIFO of runs

  // Expiry calendar: power-of-two ring of hint buckets, indexed by
  // deadline & (ring size - 1).  cursor_ is the last swept round; hints
  // whose deadline lies beyond the covered rounds of a sweep belong to a
  // later ring cycle and are kept in place.
  std::vector<std::vector<CalendarEntry>> ring_;
  std::size_t ring_mask_ = 0;
  Round cursor_ = -1;
  std::int64_t hints_ = 0;  ///< outstanding calendar hints across buckets

  std::int64_t total_ = 0;
};

}  // namespace rrs
