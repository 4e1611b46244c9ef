#include "core/arrival_source.h"

#include <algorithm>
#include <sstream>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

const std::map<Round, std::vector<ColorId>>& ArrivalSource::colors_by_delay()
    const {
  if (!delay_index_built_) {
    for (ColorId c = 0; c < num_colors(); ++c) {
      colors_by_delay_[delay_bound(c)].push_back(c);
    }
    delay_index_built_ = true;
  }
  return colors_by_delay_;
}

const CostModel& ArrivalSource::cost_model() const {
  if (!model_built_) {
    model_.set_delta(delta());
    model_.resize(num_colors());
    for (ColorId c = 0; c < num_colors(); ++c) {
      model_.set_drop_cost(c, drop_cost(c));
      model_.set_length(c, length(c));
    }
    model_built_ = true;
  }
  return model_;
}

std::string ArrivalSource::summary() const {
  std::ostringstream os;
  os << num_colors() << " colors, ";
  if (finite()) {
    os << horizon() << " rounds";
  } else {
    os << "infinite horizon";
  }
  os << ", Delta=" << delta() << " (streaming)";
  return os.str();
}

void ArrivalSource::checkpoint(CheckpointWriter& w) const {
  (void)w;
  RRS_REQUIRE(false, "this arrival source does not support checkpointing: "
                         << summary());
}

void ArrivalSource::restore(CheckpointReader& r) {
  (void)r;
  RRS_REQUIRE(false, "this arrival source does not support restore: "
                         << summary());
}

std::unique_ptr<ArrivalSource> ArrivalSource::view(
    std::span<const ColorId> colors) const {
  (void)colors;
  return nullptr;
}

void ArrivalSource::reassign(std::span<const ColorId> colors) {
  (void)colors;
  RRS_REQUIRE(false, "this arrival source is not a per-color view: "
                         << summary());
}

std::vector<std::int64_t> ArrivalSource::take_observed_counts() {
  RRS_REQUIRE(false, "this arrival source is not a per-color view: "
                         << summary());
  return {};
}

namespace {

/// A MaterializedSource restricted to a color subset.  Each round is the
/// Instance's request filtered to the view's colors, relabeled to local
/// ids; job ids, arrivals and per-job metadata are the Instance's.
class MaterializedView final : public ArrivalSource {
 public:
  MaterializedView(const Instance& instance, std::span<const ColorId> colors)
      : instance_(&instance) {
    reassign(colors);
  }

  [[nodiscard]] Cost delta() const override { return instance_->delta(); }
  [[nodiscard]] ColorId num_colors() const override {
    return static_cast<ColorId>(colors_.size());
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return instance_->delay_bound(global_of(color));
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return instance_->drop_cost(global_of(color));
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return instance_->length(global_of(color));
  }
  [[nodiscard]] const CostModel& cost_model() const override {
    return model_;
  }
  [[nodiscard]] const std::map<Round, std::vector<ColorId>>& colors_by_delay()
      const override {
    return by_delay_;
  }
  [[nodiscard]] Round horizon() const override {
    return instance_->horizon();
  }

  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    if (k != filled_round_) fill(k);
    for (const Job& job : buffer_) {
      ++observed_[static_cast<std::size_t>(job.color)];
    }
    return buffer_;
  }

  /// Walks the Instance's nonempty rounds from `k` until one carries a
  /// color of this view; that round stays filled for the pull that
  /// follows.
  [[nodiscard]] Round next_event_round(Round k, Round limit) override {
    for (Round r = k; r < limit; ++r) {
      r = instance_->next_arrival_round(r);
      if (r < 0 || r >= limit) break;
      fill(r);
      if (!buffer_.empty()) return r;
    }
    return limit;
  }

  [[nodiscard]] std::string summary() const override {
    std::ostringstream os;
    os << "view of " << colors_.size() << " of " << instance_->num_colors()
       << " colors: " << instance_->summary();
    return os.str();
  }

  void reassign(std::span<const ColorId> colors) override {
    RRS_REQUIRE(!colors.empty(), "a view needs at least one color");
    local_of_global_.assign(static_cast<std::size_t>(instance_->num_colors()),
                            kBlack);
    for (std::size_t i = 0; i < colors.size(); ++i) {
      RRS_REQUIRE(colors[i] >= 0 && colors[i] < instance_->num_colors(),
                  "view color " << colors[i] << " out of range [0, "
                                << instance_->num_colors() << ")");
      RRS_REQUIRE(i == 0 || colors[i] > colors[i - 1],
                  "view colors must be sorted and unique");
      local_of_global_[static_cast<std::size_t>(colors[i])] =
          static_cast<ColorId>(i);
    }
    colors_.assign(colors.begin(), colors.end());
    model_ = instance_->cost_model().restricted(colors);
    by_delay_.clear();
    for (std::size_t i = 0; i < colors_.size(); ++i) {
      by_delay_[instance_->delay_bound(colors_[i])].push_back(
          static_cast<ColorId>(i));
    }
    observed_.assign(colors_.size(), 0);
    filled_round_ = -1;
    buffer_.clear();
  }

  [[nodiscard]] std::vector<std::int64_t> take_observed_counts() override {
    std::vector<std::int64_t> counts = std::move(observed_);
    observed_.assign(counts.size(), 0);
    return counts;
  }

  /// Random access leaves no stream position to save: the checkpoint is a
  /// type marker, the horizon, and the color set.  Observed counts are not
  /// saved (checkpointed sharded runs never re-shard).
  void checkpoint(CheckpointWriter& w) const override {
    w.str("materialized-view");
    w.i64(horizon());
    w.u64(colors_.size());
    for (const ColorId c : colors_) w.i64(c);
  }

  void restore(CheckpointReader& r) override {
    RRS_REQUIRE(r.str() == "materialized-view",
                "checkpoint source-type mismatch (this source is a "
                "materialized view)");
    const Round h = r.i64();
    RRS_REQUIRE(h == horizon(), "checkpoint horizon " << h << " != "
                                                      << horizon());
    RRS_REQUIRE(r.u64() == colors_.size(),
                "checkpoint view size differs from " << summary());
    for (const ColorId c : colors_) {
      RRS_REQUIRE(r.i64() == c, "checkpoint view colors differ");
    }
  }

 private:
  [[nodiscard]] ColorId global_of(ColorId color) const {
    RRS_REQUIRE(color >= 0 && color < num_colors(),
                "local color " << color << " out of range [0, "
                               << num_colors() << ")");
    return colors_[static_cast<std::size_t>(color)];
  }

  void fill(Round k) {
    buffer_.clear();
    for (const Job& job : instance_->arrivals_in_round(k)) {
      const ColorId local =
          local_of_global_[static_cast<std::size_t>(job.color)];
      if (local == kBlack) continue;
      buffer_.push_back(job);
      buffer_.back().color = local;
    }
    filled_round_ = k;
  }

  const Instance* instance_;
  std::vector<ColorId> colors_;           // global ids, ascending
  std::vector<ColorId> local_of_global_;  // kBlack when not in this view
  CostModel model_;
  std::map<Round, std::vector<ColorId>> by_delay_;
  std::vector<std::int64_t> observed_;  // per-local-color arrivals served
  std::vector<Job> buffer_;             // round filled_round_'s jobs
  Round filled_round_ = -1;
};

}  // namespace

std::unique_ptr<ArrivalSource> MaterializedSource::view(
    std::span<const ColorId> colors) const {
  return std::make_unique<MaterializedView>(*instance_, colors);
}

void MaterializedSource::checkpoint(CheckpointWriter& w) const {
  w.str("materialized");
  w.i64(horizon());
}

void MaterializedSource::restore(CheckpointReader& r) {
  RRS_REQUIRE(r.str() == "materialized",
              "checkpoint source-type mismatch (this source is "
              "materialized)");
  const Round h = r.i64();
  RRS_REQUIRE(h == horizon(), "checkpoint horizon " << h << " != "
                                                    << horizon());
}

Instance materialize(ArrivalSource& source, Round rounds) {
  Round end = rounds;
  if (end == kInfiniteHorizon) {
    end = source.horizon();
    RRS_REQUIRE(end != kInfiniteHorizon,
                "materializing an infinite source needs an explicit round "
                "count; got "
                    << source.summary());
  } else if (source.finite()) {
    end = std::min(end, source.horizon());
  }
  RRS_REQUIRE(end >= 0, "materialize: negative round count " << end);

  InstanceBuilder builder;
  builder.delta(source.delta());
  const CostModel& model = source.cost_model();
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    builder.add_color(source.delay_bound(c), source.drop_cost(c),
                      source.length(c));
  }
  if (model.tier() != CostModel::Tier::kScalar) {
    for (ColorId to = 0; to < source.num_colors(); ++to) {
      builder.reconfig_cost(to, model.cold_cost(to));
    }
  }
  if (model.tier() == CostModel::Tier::kMatrix) {
    for (ColorId from = 0; from < source.num_colors(); ++from) {
      for (ColorId to = 0; to < source.num_colors(); ++to) {
        builder.transition_cost(from, to, model.reconfig_cost(from, to));
      }
    }
  }
  for (Round k = 0; k < end; ++k) {
    for (const Job& job : source.arrivals_in_round(k)) {
      builder.add_jobs(job.color, k, 1);
    }
  }
  builder.min_horizon(end);
  return builder.build();
}

}  // namespace rrs
