#include "obs/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>

#include "obs/stream_stats.h"
#include "util/check.h"

namespace rrs {

namespace {

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_double(std::string& out, double v) {
  // %.17g round-trips any finite double exactly through the strict
  // from_chars parser below.
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_histogram(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  append_int(out, h.count());
  out += ",\"sum\":";
  append_int(out, h.sum());
  out += ",\"min\":";
  append_int(out, h.min());
  out += ",\"max\":";
  append_int(out, h.max());
  out += ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    append_int(out, i);
    out += ',';
    append_int(out, h.bucket(i));
    out += ']';
  }
  out += "]}";
}

/// Keys of the three shard-splitter gauges that older snapshot lines carry
/// between admission_rejected and mean_wait, in their order there.
constexpr std::string_view kRetiredGaugeKeys[] = {
    ",\"fabric_chunks_produced\":",
    ",\"fabric_peak_chunks\":",
    ",\"fabric_ring_occupancy\":",
};

/// Strict single-line cursor: every expect/parse advances or throws
/// InputError.  The format is exactly what the writer emits — key order
/// fixed, no whitespace — so any deviation is malformed input, not a
/// dialect.
class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}

  void expect(std::string_view lit) {
    RRS_REQUIRE(s_.size() - pos_ >= lit.size() &&
                    s_.compare(pos_, lit.size(), lit) == 0,
                "snapshot: expected '" << lit << "' at offset " << pos_);
    pos_ += lit.size();
  }

  /// Consumes `lit` when the input continues with it.
  [[nodiscard]] bool accept(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  [[nodiscard]] bool peek(char c) const {
    return pos_ < s_.size() && s_[pos_] == c;
  }

  void skip(char c) {
    RRS_REQUIRE(peek(c), "snapshot: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  [[nodiscard]] std::int64_t parse_int() {
    std::int64_t v = 0;
    const char* first = s_.data() + pos_;
    const char* last = s_.data() + s_.size();
    const auto res = std::from_chars(first, last, v);
    RRS_REQUIRE(res.ec == std::errc{} && res.ptr != first,
                "snapshot: bad integer at offset " << pos_);
    pos_ += static_cast<std::size_t>(res.ptr - first);
    return v;
  }

  [[nodiscard]] double parse_double() {
    double v = 0.0;
    const char* first = s_.data() + pos_;
    const char* last = s_.data() + s_.size();
    const auto res =
        std::from_chars(first, last, v, std::chars_format::general);
    RRS_REQUIRE(res.ec == std::errc{} && res.ptr != first,
                "snapshot: bad number at offset " << pos_);
    RRS_REQUIRE(std::isfinite(v),
                "snapshot: non-finite number at offset " << pos_);
    pos_ += static_cast<std::size_t>(res.ptr - first);
    return v;
  }

  void expect_end() const {
    RRS_REQUIRE(pos_ == s_.size(),
                "snapshot: trailing bytes at offset " << pos_);
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

Histogram parse_histogram(Cursor& c) {
  c.expect("{\"count\":");
  const std::int64_t count = c.parse_int();
  c.expect(",\"sum\":");
  const std::int64_t sum = c.parse_int();
  c.expect(",\"min\":");
  const std::int64_t min = c.parse_int();
  c.expect(",\"max\":");
  const std::int64_t max = c.parse_int();
  c.expect(",\"buckets\":[");
  std::vector<std::pair<int, std::int64_t>> buckets;
  if (!c.peek(']')) {
    for (;;) {
      c.skip('[');
      const std::int64_t index = c.parse_int();
      RRS_REQUIRE(index >= 0 && index < Histogram::kNumBuckets,
                  "snapshot: histogram bucket index out of range");
      c.skip(',');
      const std::int64_t n = c.parse_int();
      c.skip(']');
      buckets.emplace_back(static_cast<int>(index), n);
      if (!c.peek(',')) break;
      c.skip(',');
    }
  }
  c.expect("]}");
  return Histogram::from_parts(count, sum, min, max, buckets);
}

}  // namespace

Snapshot make_snapshot(const StreamStats& stats, Round round,
                       std::int64_t pending) {
  Snapshot s;
  s.round = round;
  s.arrived = stats.arrived();
  s.executed = stats.executed();
  s.drop_count = stats.drop_count();
  s.drop_weight = stats.drop_weight();
  s.completed_weight = stats.completed_weight();
  s.work_units = stats.work_units();
  s.reconfig_events = stats.reconfig_events();
  s.churn_failures = stats.churn_failures();
  s.churn_repairs = stats.churn_repairs();
  s.churn_evictions = stats.churn_evictions();
  s.pending = pending;
  s.admission_rejected = stats.admission_rejected();
  s.wait = stats.wait();
  s.slack = stats.slack();
  s.service = stats.service();
  s.reconfig_gap = stats.reconfig_gap();
  s.mean_wait = s.wait.mean();
  s.mean_slack = s.slack.mean();
  return s;
}

void merge_into(Snapshot& into, const Snapshot& from) {
  into.round = std::max(into.round, from.round);
  into.arrived += from.arrived;
  into.executed += from.executed;
  into.drop_count += from.drop_count;
  into.drop_weight += from.drop_weight;
  into.completed_weight += from.completed_weight;
  into.work_units += from.work_units;
  into.reconfig_events += from.reconfig_events;
  into.churn_failures += from.churn_failures;
  into.churn_repairs += from.churn_repairs;
  into.churn_evictions += from.churn_evictions;
  into.pending += from.pending;
  into.admission_rejected += from.admission_rejected;
  into.wait.merge(from.wait);
  into.slack.merge(from.slack);
  into.service.merge(from.service);
  into.reconfig_gap.merge(from.reconfig_gap);
  into.mean_wait = into.wait.mean();
  into.mean_slack = into.slack.mean();
}

std::string to_json_line(const Snapshot& snapshot) {
  std::string out;
  out.reserve(512);
  out += "{\"round\":";
  append_int(out, snapshot.round);
  out += ",\"arrived\":";
  append_int(out, snapshot.arrived);
  out += ",\"executed\":";
  append_int(out, snapshot.executed);
  out += ",\"drop_count\":";
  append_int(out, snapshot.drop_count);
  out += ",\"drop_weight\":";
  append_int(out, snapshot.drop_weight);
  out += ",\"completed_weight\":";
  append_int(out, snapshot.completed_weight);
  out += ",\"work_units\":";
  append_int(out, snapshot.work_units);
  out += ",\"reconfig_events\":";
  append_int(out, snapshot.reconfig_events);
  out += ",\"churn_failures\":";
  append_int(out, snapshot.churn_failures);
  out += ",\"churn_repairs\":";
  append_int(out, snapshot.churn_repairs);
  out += ",\"churn_evictions\":";
  append_int(out, snapshot.churn_evictions);
  out += ",\"pending\":";
  append_int(out, snapshot.pending);
  out += ",\"admission_rejected\":";
  append_int(out, snapshot.admission_rejected);
  out += ",\"mean_wait\":";
  append_double(out, snapshot.mean_wait);
  out += ",\"mean_slack\":";
  append_double(out, snapshot.mean_slack);
  out += ",\"wait\":";
  append_histogram(out, snapshot.wait);
  out += ",\"slack\":";
  append_histogram(out, snapshot.slack);
  out += ",\"service\":";
  append_histogram(out, snapshot.service);
  out += ",\"reconfig_gap\":";
  append_histogram(out, snapshot.reconfig_gap);
  out += '}';
  return out;
}

Snapshot parse_snapshot_line(std::string_view line) {
  Cursor c(line);
  Snapshot s;
  c.expect("{\"round\":");
  s.round = c.parse_int();
  c.expect(",\"arrived\":");
  s.arrived = c.parse_int();
  c.expect(",\"executed\":");
  s.executed = c.parse_int();
  c.expect(",\"drop_count\":");
  s.drop_count = c.parse_int();
  c.expect(",\"drop_weight\":");
  s.drop_weight = c.parse_int();
  c.expect(",\"completed_weight\":");
  s.completed_weight = c.parse_int();
  c.expect(",\"work_units\":");
  s.work_units = c.parse_int();
  c.expect(",\"reconfig_events\":");
  s.reconfig_events = c.parse_int();
  c.expect(",\"churn_failures\":");
  s.churn_failures = c.parse_int();
  c.expect(",\"churn_repairs\":");
  s.churn_repairs = c.parse_int();
  c.expect(",\"churn_evictions\":");
  s.churn_evictions = c.parse_int();
  c.expect(",\"pending\":");
  s.pending = c.parse_int();
  c.expect(",\"admission_rejected\":");
  s.admission_rejected = c.parse_int();
  // Older lines carry three retired shard-splitter gauges here; they are
  // validated and dropped.
  if (c.accept(kRetiredGaugeKeys[0])) {
    for (std::size_t i = 0; i < std::size(kRetiredGaugeKeys); ++i) {
      if (i > 0) c.expect(kRetiredGaugeKeys[i]);
      RRS_REQUIRE(c.parse_int() >= 0, "snapshot: negative counter");
    }
  }
  c.expect(",\"mean_wait\":");
  s.mean_wait = c.parse_double();
  c.expect(",\"mean_slack\":");
  s.mean_slack = c.parse_double();
  c.expect(",\"wait\":");
  s.wait = parse_histogram(c);
  c.expect(",\"slack\":");
  s.slack = parse_histogram(c);
  c.expect(",\"service\":");
  s.service = parse_histogram(c);
  c.expect(",\"reconfig_gap\":");
  s.reconfig_gap = parse_histogram(c);
  c.expect("}");
  c.expect_end();

  // Cross-field consistency: a well-formed snapshot cannot violate these,
  // so a violation means corrupt input.
  RRS_REQUIRE(s.round >= 0 && s.arrived >= 0 && s.drop_count >= 0 &&
                  s.drop_weight >= 0 && s.completed_weight >= 0 &&
                  s.work_units >= 0 && s.reconfig_events >= 0 &&
                  s.churn_failures >= 0 && s.churn_repairs >= 0 &&
                  s.churn_evictions >= 0 && s.pending >= 0 &&
                  s.admission_rejected >= 0,
              "snapshot: negative counter");
  RRS_REQUIRE(s.admission_rejected <= s.drop_count,
              "snapshot: admission rejections exceed drop count");
  RRS_REQUIRE(s.executed == s.wait.count() && s.executed == s.slack.count(),
              "snapshot: executed disagrees with wait/slack sample counts");
  RRS_REQUIRE(s.executed == s.service.count(),
              "snapshot: executed disagrees with service sample count");
  RRS_REQUIRE(s.work_units >= s.service.sum(),
              "snapshot: fewer work units than completed service demands");
  RRS_REQUIRE(s.completed_weight >= s.executed,
              "snapshot: completed weight below completion count");
  RRS_REQUIRE(s.arrived - s.executed >= s.drop_count,
              "snapshot: executed + dropped exceeds arrived");
  RRS_REQUIRE(s.churn_evictions <= s.churn_failures,
              "snapshot: more evictions than failures");
  RRS_REQUIRE(s.mean_wait == s.wait.mean() && s.mean_slack == s.slack.mean(),
              "snapshot: derived means disagree with histograms");
  return s;
}

void write_snapshots(std::ostream& os, std::span<const Snapshot> snapshots) {
  for (const Snapshot& s : snapshots) {
    os << to_json_line(s) << '\n';
  }
  os.flush();
  RRS_REQUIRE(os.good(), "snapshot write failed (stream error after flush)");
}

std::vector<Snapshot> read_snapshots(std::istream& in) {
  std::vector<Snapshot> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      out.push_back(parse_snapshot_line(line));
    } catch (const InputError& e) {
      throw InputError("snapshot line " + std::to_string(line_no) + ": " +
                       e.what());
    }
  }
  return out;
}

std::vector<Snapshot> merge_snapshot_series(
    const std::vector<std::vector<Snapshot>>& per_shard) {
  std::size_t longest = 0;
  for (const auto& series : per_shard) {
    longest = std::max(longest, series.size());
  }
  std::vector<Snapshot> out;
  out.reserve(longest);
  for (std::size_t i = 0; i < longest; ++i) {
    Snapshot merged;
    for (const auto& series : per_shard) {
      if (series.empty()) continue;
      // Carry-forward: a shard that drained early keeps contributing its
      // final cumulative totals.
      merge_into(merged, series[std::min(i, series.size() - 1)]);
    }
    out.push_back(std::move(merged));
  }
  return out;
}

}  // namespace rrs
