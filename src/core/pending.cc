#include "core/pending.h"

#include <algorithm>
#include <limits>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

namespace {

/// Smallest power of two >= `value` (value >= 1).
[[nodiscard]] std::size_t ring_size_for(Round value) {
  std::size_t size = 64;  // floor: tiny rings re-grow immediately
  while (size < static_cast<std::size_t>(value)) size *= 2;
  return size;
}

}  // namespace

void PendingJobs::reset(ColorId num_colors) {
  RRS_REQUIRE(num_colors >= 0, "negative color count");
  queues_.assign(static_cast<std::size_t>(num_colors), {});
  ring_.clear();
  ring_mask_ = 0;
  cursor_ = -1;
  hints_ = 0;
  total_ = 0;
}

void PendingJobs::push_run(ColorQueue& q, const Run& run) {
  if (q.size == q.ring.size()) {
    RRS_CHECK_MSG(q.size < (std::uint32_t{1} << 31),
                  "pending ring exceeds 2^31 runs");
    std::vector<Run> grown(std::max<std::size_t>(4, q.ring.size() * 2));
    for (std::uint32_t i = 0; i < q.size; ++i) {
      grown[i] = q.ring[(q.head + i) & (q.ring.size() - 1)];
    }
    q.ring = std::move(grown);
    q.head = 0;
  }
  q.ring[(q.head + q.size) & (q.ring.size() - 1)] = run;
  ++q.size;
}

void PendingJobs::add_run(ColorId color, JobId first_id, std::int64_t count,
                          Round deadline, Round length) {
  ColorQueue& q = queues_[idx(color)];
  RRS_CHECK_MSG(count >= 1, "empty run for color " << color);
  RRS_CHECK_MSG(length >= 1, "job length must be >= 1 (job " << first_id
                                                             << ")");
  if (q.size == 0) {
    push_run(q, {first_id, count, deadline, length});
    q.head_remaining = length;
  } else {
    Run& tail = q.back();
    RRS_CHECK_MSG(tail.deadline <= deadline,
                  "per-color deadlines must be nondecreasing (color "
                      << color << ")");
    if (tail.deadline == deadline && tail.length == length &&
        tail.first_id + tail.count == first_id) {
      tail.count += count;
    } else {
      push_run(q, {first_id, count, deadline, length});
    }
  }
  q.count += count;
  total_ += count;
  // Deadlines are nondecreasing per color, so one hint per distinct
  // deadline suffices; the latest hinted deadline is the largest.
  if (q.last_bucketed != deadline) {
    bucket_entry(color, deadline);
    q.last_bucketed = deadline;
  }
}

void PendingJobs::export_color(ColorId color,
                               std::vector<ExportedJob>& out) const {
  const ColorQueue& q = queues_[idx(color)];
  for (std::uint32_t i = 0; i < q.size; ++i) {
    const Run& run = q.ring[(q.head + i) & (q.ring.size() - 1)];
    for (std::int64_t j = 0; j < run.count; ++j) {
      const bool front = i == 0 && j == 0;
      out.push_back({run.first_id + j, run.deadline,
                     front ? q.head_remaining : run.length});
    }
  }
}

void PendingJobs::checkpoint(CheckpointWriter& w) const {
  w.i64(cursor_);
  w.i64(static_cast<std::int64_t>(queues_.size()));
  std::vector<ExportedJob> jobs;
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    jobs.clear();
    export_color(static_cast<ColorId>(c), jobs);
    w.u64(jobs.size());
    for (const ExportedJob& job : jobs) {
      w.i64(job.id);
      w.i64(job.deadline);
      w.i64(job.remaining);
    }
  }
}

void PendingJobs::restore_checkpoint(CheckpointReader& r) {
  RRS_CHECK_MSG(total_ == 0 && cursor_ == -1,
                "checkpoint restore into a non-fresh pending store");
  const std::int64_t cursor = r.i64();
  RRS_REQUIRE(cursor >= -1, "checkpoint pending cursor " << cursor);
  // The cursor must land before any restored job is re-added: past-
  // deadline jobs bucket at cursor_ + 1, so the first sweep after restore
  // finds them exactly where the original store would.
  cursor_ = cursor;
  const std::int64_t colors = r.i64();
  RRS_REQUIRE(colors == static_cast<std::int64_t>(queues_.size()),
              "checkpoint pending color count " << colors << " != "
                                                << queues_.size());
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    const std::uint64_t count = r.u64();
    Round prev = std::numeric_limits<Round>::min();
    for (std::uint64_t i = 0; i < count; ++i) {
      ExportedJob job;
      job.id = r.i64();
      job.deadline = r.i64();
      job.remaining = r.i64();
      RRS_REQUIRE(job.deadline >= prev && job.remaining >= 1,
                  "checkpoint pending job " << job.id << " malformed");
      prev = job.deadline;
      restore(static_cast<ColorId>(c), job);
    }
  }
}

void PendingJobs::bucket_entry(ColorId color, Round deadline) {
  // Past-deadline adds land in the next sweepable bucket so the following
  // sweep still finds them.
  const Round target = std::max(deadline, cursor_ + 1);
  if (ring_.empty() ||
      static_cast<std::size_t>(target - cursor_) > ring_.size()) {
    grow_ring(target - cursor_);
  }
  ring_[static_cast<std::size_t>(target) & ring_mask_].push_back(
      {color, deadline});
  ++hints_;
}

void PendingJobs::grow_ring(Round min_span) {
  const std::size_t new_size =
      std::max(ring_size_for(min_span), ring_.size() * 2);
  std::vector<std::vector<CalendarEntry>> old = std::move(ring_);
  ring_.assign(new_size, {});
  ring_mask_ = new_size - 1;
  for (std::vector<CalendarEntry>& bucket : old) {
    for (const CalendarEntry& entry : bucket) {
      const Round target = std::max(entry.deadline, cursor_ + 1);
      ring_[static_cast<std::size_t>(target) & ring_mask_].push_back(entry);
    }
  }
}

void PendingJobs::drain_expired(const CalendarEntry& entry, Round round,
                                DropResult& out) {
  ColorQueue& q = queues_[idx(entry.color)];
  // The hint is consumed; a later add with the same deadline (possible
  // only for past-deadline adds) must re-bucket.
  if (q.last_bucketed == entry.deadline) q.last_bucketed = -1;
  std::int64_t dropped_here = 0;
  while (q.size > 0 && q.front().deadline <= round) {
    const Run& run = q.front();
    out.runs.push_back({entry.color, run.first_id, run.count});
    dropped_here += run.count;
    pop_run(q);
  }
  if (dropped_here > 0) {
    q.count -= dropped_here;
    out.by_color.emplace_back(entry.color, dropped_here);
    out.total += dropped_here;
    total_ -= dropped_here;
  }
}

void PendingJobs::drop_expired(Round round, DropResult& out) {
  out.clear();
  if (round <= cursor_) return;  // already swept (sweeps are monotone)
  if (total_ == 0) {
    // Nothing can expire.  Discard any stale hints (left behind by
    // executed jobs) wholesale so the cursor can jump the entire gap —
    // after a fast-forwarded span the sweep would otherwise still walk a
    // ring's worth of buckets.  Every cleared color's last_bucketed must
    // be reset, or a later add at or below the discarded hint's deadline
    // would skip re-bucketing and never be swept.
    if (hints_ > 0) {
      for (std::vector<CalendarEntry>& bucket : ring_) bucket.clear();
      for (ColorQueue& q : queues_) q.last_bucketed = -1;
      hints_ = 0;
    }
    cursor_ = round;
    return;
  }
  if (ring_.empty()) {
    cursor_ = round;
    return;
  }
  // Sweep the buckets of rounds (cursor_, round]; past a full ring cycle
  // every bucket has been visited once.
  const Round gap = round - cursor_;
  const Round buckets =
      std::min(gap, static_cast<Round>(ring_.size()));
  for (Round b = 0; b < buckets; ++b) {
    std::vector<CalendarEntry>& bucket =
        ring_[static_cast<std::size_t>(cursor_ + 1 + b) & ring_mask_];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const CalendarEntry entry = bucket[i];
      if (entry.deadline > round) {
        // A later ring cycle's hint: not due yet, keep it in place.
        bucket[kept++] = entry;
        continue;
      }
      drain_expired(entry, round, out);
      --hints_;
    }
    bucket.resize(kept);
  }
  cursor_ = round;
}

Round PendingJobs::next_expiry_hint(Round limit) const {
  if (total_ == 0 || ring_.empty()) return limit;
  // Every pending job's deadline is hinted in the bucket of
  // max(deadline, cursor_ + 1), so one ring cycle past the cursor holds
  // them all.
  const Round last =
      std::min(limit, cursor_ + static_cast<Round>(ring_.size()));
  for (Round r = cursor_ + 1; r <= last; ++r) {
    if (!ring_[static_cast<std::size_t>(r) & ring_mask_].empty()) return r;
  }
  return limit;
}

}  // namespace rrs
