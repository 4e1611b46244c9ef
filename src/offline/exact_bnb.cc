#include "offline/exact_bnb.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "offline/greedy_offline.h"
#include "offline/state_space.h"
#include "util/check.h"

namespace rrs {
namespace {

using offdp::Key;
using offdp::Profile;
using KeyView = std::span<const std::int64_t>;

std::uint64_t hash_key(KeyView key) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = kMul;
  for (const std::int64_t v : key) {
    h = (std::rotl(h, 5) ^ static_cast<std::uint64_t>(v)) * kMul;
  }
  return h ^ (h >> 29);
}

/// Interned keys: each distinct key is stored once, back to back in one
/// flat pool, and gets a dense id.  An open-addressing table (linear
/// probing from the hash's high bits, load <= 1/2) maps a key to its id by
/// exact comparison, so lookups never allocate.
class KeyPool {
 public:
  /// Id of `key` (whose hash_key is `hash`), or -1 when absent.
  [[nodiscard]] std::int32_t find(KeyView key, std::uint64_t hash) const {
    if (slots_.empty()) return -1;
    for (std::size_t i = hash >> shift_;; i = (i + 1) & (slots_.size() - 1)) {
      const std::int32_t id = slots_[i];
      if (id < 0) return -1;
      if (entries_[static_cast<std::size_t>(id)].hash == hash &&
          std::ranges::equal(this->key(id), key)) {
        return id;
      }
    }
  }

  /// Interns `key` (absent, hash_key `hash`); returns its new id.
  std::int32_t insert(KeyView key, std::uint64_t hash) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    const auto id = static_cast<std::int32_t>(entries_.size());
    entries_.push_back({hash, pool_.size(), key.size()});
    pool_.insert(pool_.end(), key.begin(), key.end());
    place(id);
    return id;
  }

  /// The interned key of `id`; valid until the next insert.
  [[nodiscard]] KeyView key(std::int32_t id) const {
    const Entry& e = entries_[static_cast<std::size_t>(id)];
    return KeyView(pool_).subspan(e.offset, e.length);
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::size_t offset = 0;  // into pool_
    std::size_t length = 0;
  };

  void place(std::int32_t id) {
    std::size_t i = entries_[static_cast<std::size_t>(id)].hash >> shift_;
    while (slots_[i] >= 0) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = id;
  }

  void grow() {
    const std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
    shift_ = 64 - std::countr_zero(size);
    slots_.assign(size, -1);
    for (std::size_t id = 0; id < entries_.size(); ++id) {
      place(static_cast<std::int32_t>(id));
    }
  }

  std::vector<std::int64_t> pool_;
  std::vector<Entry> entries_;     // by id
  std::vector<std::int32_t> slots_;  // ids; -1 = empty
  int shift_ = 64;
};

/// Search node kept in a stable arena so witnesses can backtrack; its
/// configuration and profile live in the interned key of `state`.
struct Node {
  Round round = 0;  // next round to process; state after rounds [0, round)
  Cost g = 0;
  std::int32_t parent = -1;
  std::int32_t state = -1;  // id in the transposition pool
};

struct HeapEntry {
  Cost f = 0;
  Cost g = 0;
  std::int32_t idx = -1;
};

struct HeapCmp {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.f != b.f) return a.f > b.f;  // min-f first
    return a.g < b.g;                  // deeper (larger g) first on ties
  }
};

/// Expanded nodes sharing one (round, configuration), kept as a linked
/// list in insertion order over a flat link array.
struct DomGroup {
  std::int32_t head = -1;
  std::int32_t tail = -1;
  std::int32_t size = 0;
};

struct DomLink {
  std::int32_t node = -1;
  std::int32_t next = -1;
};

/// One color's entry in an encoded key (see offdp::encode): its
/// front_done and its (-deadline - 2, count) pairs.
struct KeyColor {
  std::int64_t front_done = 0;
  KeyView buckets;
};

/// Reads the color entry starting at `i` of a key whose color entries end
/// at `end`; advances `i` past it.
KeyColor read_color(KeyView key, std::size_t& i, std::size_t end) {
  const std::size_t first = i + 2;
  for (i = first; i < end && key[i] < 0; i += 2) {
  }
  return {key[first - 1], key.subspan(first, i - first)};
}

/// True when completing from `easier` can never cost more than from
/// `harder` (encoded keys of the same round and m-slot configuration):
/// per color, either equal buckets with the easier front at least as far
/// along, or untouched fronts with the easier deadline multiset
/// Hall-matchable into the harder one (for every d, easier has no more
/// jobs with deadline <= d).
bool profile_dominates(KeyView easier, KeyView harder, std::size_t slots) {
  // Color entries sit between the separator and the trailing round.
  const std::size_t e_end = easier.size() - 1;
  const std::size_t h_end = harder.size() - 1;
  std::size_t j = slots + 1;
  for (std::size_t i = slots + 1; i < e_end;) {
    const std::int64_t color = easier[i];
    const KeyColor e = read_color(easier, i, e_end);
    while (j < h_end && harder[j] < color) read_color(harder, j, h_end);
    // Nothing of this color pending in `harder`: easier's jobs cannot
    // match into it.
    if (j >= h_end || harder[j] != color) return false;
    const KeyColor n = read_color(harder, j, h_end);
    if (std::ranges::equal(e.buckets, n.buckets)) {
      if (e.front_done >= n.front_done) continue;
      return false;
    }
    if (e.front_done != 0 || n.front_done != 0) return false;
    // Deadline entries are -deadline - 2: a harder deadline is <= an
    // easier one iff its entry is >=.
    Cost count_e = 0;
    Cost count_n = 0;
    std::size_t nb = 0;
    for (std::size_t eb = 0; eb < e.buckets.size(); eb += 2) {
      while (nb < n.buckets.size() && n.buckets[nb] >= e.buckets[eb]) {
        count_n += n.buckets[nb + 1];
        nb += 2;
      }
      count_e += e.buckets[eb + 1];
      if (count_e > count_n) return false;
    }
  }
  return true;
}

/// Reused buffers of for_each_retire_submultiset.
struct RetireScratch {
  std::vector<std::pair<ColorId, int>> groups;  // (color, copies) in order
  std::vector<ColorId> kept;
  std::vector<ColorId> config;
};

template <typename Visit>
void retire_from(std::size_t gi, std::size_t slots, RetireScratch& s,
                 Visit& visit) {
  if (gi == s.groups.size()) {
    s.config.assign(slots - s.kept.size(), kBlack);
    s.config.insert(s.config.end(), s.kept.begin(), s.kept.end());
    visit(static_cast<const std::vector<ColorId>&>(s.config));
    return;
  }
  const auto [color, copies] = s.groups[gi];
  for (int take = copies; take >= 0; --take) {
    s.kept.insert(s.kept.end(), static_cast<std::size_t>(take), color);
    retire_from(gi + 1, slots, s, visit);
    s.kept.resize(s.kept.size() - static_cast<std::size_t>(take));
  }
}

/// Visits the distinct sub-multisets reachable from `cache` by free
/// retire-to-black moves (matrix tier only: when Delta is non-metric, the
/// round a slot is retired changes the price of its next recoloring, so an
/// empty-profile fast-forward must branch over the retire choices).  Each
/// group of equal colors keeps all its copies down to none, earlier groups
/// varying slowest.
template <typename Visit>
void for_each_retire_submultiset(const std::vector<ColorId>& cache,
                                 RetireScratch& s, Visit&& visit) {
  s.groups.clear();
  for (const ColorId c : cache) {
    if (c == kBlack) continue;
    if (!s.groups.empty() && s.groups.back().first == c) {
      ++s.groups.back().second;
    } else {
      s.groups.emplace_back(c, 1);
    }
  }
  s.kept.clear();
  retire_from(0, cache.size(), s, visit);
}

}  // namespace

BnbResult exact_offline_bnb(const Instance& instance, int m,
                            const BnbOptions& options) {
  RRS_REQUIRE(m >= 1, "exact_offline_bnb needs m >= 1");
  RRS_REQUIRE(options.max_nodes >= 1, "exact_offline_bnb needs max_nodes >= 1");
  const Round horizon = instance.horizon();
  const CostModel& model = instance.cost_model();
  const bool matrix = model.tier() == CostModel::Tier::kMatrix;

  BnbResult result;

  // Incumbent: drop-everything is always feasible; the greedy family and
  // the caller hint tighten it.
  Cost incumbent = instance.total_weight();
  if (options.seed_greedy) {
    incumbent = std::min(incumbent, best_offline_heuristic_cost(instance, m));
  }
  if (options.incumbent_hint >= 0) {
    incumbent = std::min(incumbent, options.incumbent_hint);
  }

  LagrangianOptions lag;
  lag.iterations = std::max(1, options.lagrangian_iterations);
  lag.upper_bound_hint = incumbent;
  result.root_bound = offline_lower_bound_full(instance, m, lag);

  if (horizon == 0) {
    result.best_bound = 0;
    result.incumbent = 0;
    result.closed = true;
    result.has_witness = true;
    result.schedule.num_resources = m;
    result.schedule.speed = 1;
    return result;
  }

  const SuffixBoundOracle oracle(instance, m);
  const auto slots = static_cast<std::size_t>(m);
  std::vector<Node> nodes;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp> open;
  KeyPool states;             // transposition table over full state keys
  std::vector<Cost> state_g;  // per state id: cheapest g reached so far
  KeyPool dom_keys;           // (configuration, round) of expanded nodes
  std::vector<DomGroup> dom_groups;  // per dom_keys id
  std::vector<DomLink> dom_links;
  constexpr std::int32_t kMaxDominators = 24;

  bool has_witness = false;
  std::int32_t witness_parent = -1;  // the witness's last expanded node
  std::vector<ColorId> witness_cache;

  // Reused scratch: an expansion decodes its parent once into `cache` and
  // `parent`; each child is built in `child` and encoded into `key`.
  std::vector<ColorId> cache;
  Profile parent(static_cast<std::size_t>(instance.num_colors()));
  Profile child;
  Key key;
  Key group_key;
  std::vector<ColorId> candidates;
  std::vector<ColorId> config_scratch;
  RetireScratch retire;
  SuffixBoundOracle::Frame frame;

  // Records a completed path; <= keeps ties so closure always has a
  // witness once the incumbent is optimal.
  const auto offer_terminal = [&](Cost total,
                                  const std::vector<ColorId>& final_cache,
                                  std::int32_t parent_idx) {
    if (total > incumbent) return;
    incumbent = total;
    witness_parent = parent_idx;
    witness_cache = final_cache;
    has_witness = true;
  };

  // Dominance groups are keyed by (configuration, round).
  const auto find_group = [&](const std::vector<ColorId>& config,
                              Round round, std::uint64_t& hash) {
    group_key.assign(config.begin(), config.end());
    group_key.push_back(round);
    hash = hash_key(group_key);
    return dom_keys.find(group_key, hash);
  };

  // `h` prices the child when it is not terminal.
  const auto consider_child = [&](Round round,
                                  const std::vector<ColorId>& config,
                                  const Profile& profile, Cost g,
                                  std::int32_t parent_idx, const auto& h) {
    if (round >= horizon) {
      offer_terminal(g + offdp::total_pending_weight(profile, instance),
                     config, parent_idx);
      return;
    }
    const Cost f = g + h();
    if (f > incumbent) {
      ++result.nodes_pruned_bound;
      return;
    }
    key.clear();
    offdp::encode(config, profile, key);
    key.push_back(round);
    const std::uint64_t hash = hash_key(key);
    std::int32_t state = states.find(key, hash);
    if (state >= 0 && state_g[static_cast<std::size_t>(state)] <= g) return;
    if (state >= 0) {
      state_g[static_cast<std::size_t>(state)] = g;  // cheaper: reopen
    } else {
      state = states.insert(key, hash);
      state_g.push_back(g);
    }
    if (options.use_dominance) {
      std::uint64_t group_hash = 0;
      const std::int32_t group = find_group(config, round, group_hash);
      std::int32_t link =
          group >= 0 ? dom_groups[static_cast<std::size_t>(group)].head : -1;
      while (link >= 0) {
        const DomLink& entry = dom_links[static_cast<std::size_t>(link)];
        const Node& d = nodes[static_cast<std::size_t>(entry.node)];
        if (d.g <= g && profile_dominates(states.key(d.state), key, slots)) {
          ++result.nodes_pruned_dominated;
          return;
        }
        link = entry.next;
      }
    }
    nodes.push_back({round, g, parent_idx, state});
    open.push({f, g, static_cast<std::int32_t>(nodes.size()) - 1});
  };

  {  // root: every slot black, nothing pending (its round 0 key is unique)
    cache.assign(slots, kBlack);
    offdp::encode(cache, parent, key);
    key.push_back(0);
    state_g.push_back(0);
    nodes.push_back({0, 0, -1, states.insert(key, hash_key(key))});
    open.push({oracle.bound(0, cache, parent), 0, 0});
  }

  const auto started = std::chrono::steady_clock::now();
  bool closed = false;
  bool exhausted = false;  // node/time budget stopped the search
  Cost frontier_f = result.root_bound.best();  // min open f at exit
  while (!open.empty()) {
    const HeapEntry top = open.top();
    open.pop();
    // Closure: every open true cost is >= its f >= top.f.  Without a
    // witness yet, keep expanding the f == incumbent plateau so the
    // optimal path materializes a schedule.
    if (top.f > incumbent || (top.f >= incumbent && has_witness)) {
      closed = true;
      break;
    }
    const Node node = nodes[static_cast<std::size_t>(top.idx)];
    // Lazy stale skip: a cheaper rediscovery superseded this entry.
    if (state_g[static_cast<std::size_t>(node.state)] < top.g) continue;
    if (result.nodes_expanded >= options.max_nodes) {
      frontier_f = top.f;
      exhausted = true;
      break;
    }
    if (options.max_seconds > 0 &&
        (result.nodes_expanded & 127) == 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() > options.max_seconds) {
      frontier_f = top.f;
      exhausted = true;
      break;
    }
    ++result.nodes_expanded;

    const Round round = node.round;
    const Cost g = node.g;
    bool profile_empty = false;
    {
      const KeyView stored = states.key(node.state);
      offdp::decode(stored.first(stored.size() - 1), m, cache, parent);
      profile_empty = stored.size() == slots + 2;  // cache, -7, round
    }

    if (options.use_dominance) {
      std::uint64_t group_hash = 0;
      std::int32_t group = find_group(cache, round, group_hash);
      if (group < 0) {
        group = dom_keys.insert(group_key, group_hash);
        dom_groups.emplace_back();
      }
      DomGroup& list = dom_groups[static_cast<std::size_t>(group)];
      if (list.size < kMaxDominators) {
        const auto link = static_cast<std::int32_t>(dom_links.size());
        dom_links.push_back({top.idx, -1});
        if (list.tail >= 0) {
          dom_links[static_cast<std::size_t>(list.tail)].next = link;
        } else {
          list.head = link;
        }
        list.tail = link;
        ++list.size;
      }
    }

    if (profile_empty) {
      const Round next = instance.next_arrival_round(round);
      if (next < 0) {
        offer_terminal(g, cache, top.idx);
        continue;
      }
      if (next > round) {
        // Sparse fast-forward: holding the configuration is free and
        // (scalar/vector) dominant; the matrix tier must branch over the
        // free retire-to-black timings.
        if (matrix) {
          for_each_retire_submultiset(
              cache, retire, [&](const std::vector<ColorId>& sub) {
                consider_child(next, sub, parent, g, top.idx,
                               [&] { return oracle.bound(next, sub, parent); });
              });
        } else {
          consider_child(next, cache, parent, g, top.idx,
                         [&] { return oracle.bound(next, cache, parent); });
        }
        continue;
      }
    }

    // Phases 1+2: drop, then arrivals.
    const Cost dropped = offdp::expire(parent, round, instance);
    offdp::add_arrivals(parent, instance.arrivals_in_round(round));
    const Cost g2 = g + dropped;

    // Candidates: colors with pending jobs + currently configured ones
    // (configure-on-demand pruning, identical to the DP).
    candidates.clear();
    for (ColorId c = 0; c < instance.num_colors(); ++c) {
      if (!parent[static_cast<std::size_t>(c)].buckets.empty()) {
        candidates.push_back(c);
      }
    }
    for (const ColorId c : cache) {
      if (c != kBlack &&
          std::find(candidates.begin(), candidates.end(), c) ==
              candidates.end()) {
        candidates.push_back(c);
      }
    }
    std::sort(candidates.begin(), candidates.end());

    // Phases 3+4: enumerate configurations; execution is deterministic.
    // Each child is `parent` with its configured colors executed, built in
    // `child` and restored right after it is offered.
    child = parent;
    if (round + 1 < horizon) oracle.prepare(round + 1, parent, frame);
    offdp::enumerate_multisets(
        candidates, m, config_scratch,
        [&](const std::vector<ColorId>& config) {
          const Cost reconf =
              offdp::reconfig_cost_between(cache, config, model);
          for (const ColorId c : config) {
            if (c != kBlack) offdp::execute_one(child, c, instance);
          }
          consider_child(round + 1, config, child, g2 + reconf, top.idx, [&] {
            return oracle.child_bound(frame, config, parent, child);
          });
          for (const ColorId c : config) {
            if (c != kBlack) {
              child[static_cast<std::size_t>(c)] =
                  parent[static_cast<std::size_t>(c)];
            }
          }
        });
  }
  if (!exhausted) closed = true;  // heap drained: incumbent is optimal

  result.incumbent = incumbent;
  result.has_witness = has_witness;
  if (closed) {
    result.best_bound = incumbent;
  } else {
    result.best_bound =
        std::max(result.root_bound.best(), std::min(incumbent, frontier_f));
  }
  result.closed = result.best_bound == result.incumbent;

  if (has_witness) {
    std::vector<std::vector<ColorId>> configs(
        static_cast<std::size_t>(horizon));
    // The terminal step holds witness_cache from its parent's round on;
    // every earlier node holds its own configuration from its parent's.
    std::int32_t idx = witness_parent;
    for (Round k = nodes[static_cast<std::size_t>(idx)].round; k < horizon;
         ++k) {
      configs[static_cast<std::size_t>(k)] = witness_cache;
    }
    while (nodes[static_cast<std::size_t>(idx)].parent >= 0) {
      const Node& node = nodes[static_cast<std::size_t>(idx)];
      const KeyView stored = states.key(node.state);
      const std::vector<ColorId> held(stored.begin(),
                                      stored.begin() + m);
      for (Round k = nodes[static_cast<std::size_t>(node.parent)].round;
           k < node.round; ++k) {
        configs[static_cast<std::size_t>(k)] = held;
      }
      idx = node.parent;
    }
    result.schedule = offdp::replay_configs(instance, m, configs);
  } else {
    result.schedule.num_resources = m;
    result.schedule.speed = 1;
  }
  return result;
}

}  // namespace rrs
