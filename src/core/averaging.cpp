#include "core/averaging.hpp"

#include <cmath>
#include <stdexcept>

namespace jwins::core {

namespace {

void partial_average_impl(std::span<float> own, double self_weight,
                          std::span<const WeightedContribution> contributions,
                          std::span<const double> contribution_scales,
                          std::span<double> numerator,
                          std::span<double> denominator) {
  const std::size_t n = own.size();
  if (!contribution_scales.empty() &&
      contribution_scales.size() != contributions.size()) {
    throw std::invalid_argument(
        "partial_average: contribution_scales size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    numerator[i] = self_weight * own[i];
    denominator[i] = self_weight;
  }
  for (std::size_t k = 0; k < contributions.size(); ++k) {
    const WeightedContribution& c = contributions[k];
    if (c.payload == nullptr) {
      throw std::invalid_argument("partial_average: null contribution");
    }
    // Effective weight: the scale multiplies numerator AND denominator, so
    // per-coefficient renormalization still sums to 1 — decay redistributes
    // mass, it never leaks it. Empty scales = the exact legacy path.
    const double w = contribution_scales.empty()
                         ? c.weight
                         : c.weight * contribution_scales[k];
    const SparsePayload& p = *c.payload;
    if (p.vector_length != n) {
      throw std::invalid_argument("partial_average: vector length mismatch");
    }
    if (p.dense()) {
      for (std::size_t i = 0; i < n; ++i) {
        numerator[i] += w * p.values[i];
        denominator[i] += w;
      }
    } else {
      for (std::size_t i = 0; i < p.indices.size(); ++i) {
        const std::uint32_t idx = p.indices[i];
        if (idx >= n) {
          throw std::out_of_range("partial_average: index out of range");
        }
        numerator[idx] += w * p.values[i];
        denominator[idx] += w;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    own[i] = denominator[i] > 0.0
                 ? static_cast<float>(numerator[i] / denominator[i])
                 : own[i];
  }
}

}  // namespace

void partial_average(std::span<float> own, double self_weight,
                     std::span<const WeightedContribution> contributions,
                     Arena& arena) {
  const std::span<double> numerator = arena.alloc<double>(own.size());
  const std::span<double> denominator = arena.alloc<double>(own.size());
  partial_average_impl(own, self_weight, contributions, {}, numerator,
                       denominator);
}

void partial_average(std::span<float> own, double self_weight,
                     std::span<const WeightedContribution> contributions,
                     std::span<const double> contribution_scales,
                     Arena& arena) {
  const std::span<double> numerator = arena.alloc<double>(own.size());
  const std::span<double> denominator = arena.alloc<double>(own.size());
  partial_average_impl(own, self_weight, contributions, contribution_scales,
                       numerator, denominator);
}

namespace {

/// One per-coordinate supplier entry for the order-statistic rules.
struct RobustEntry {
  float value = 0.0f;
  double weight = 0.0;
};

/// Stable in-place insertion sort by value: slices are tiny (degree + 1),
/// and stability makes tie-breaking the deterministic insertion order (own
/// first, then contribution order) at every thread count.
void sort_entries_by_value(RobustEntry* first, std::size_t m) {
  for (std::size_t i = 1; i < m; ++i) {
    const RobustEntry e = first[i];
    std::size_t j = i;
    while (j > 0 && first[j - 1].value > e.value) {
      first[j] = first[j - 1];
      --j;
    }
    first[j] = e;
  }
}

void check_contribution(const WeightedContribution& c, std::size_t n,
                        const char* who) {
  if (c.payload == nullptr) {
    throw std::invalid_argument(std::string(who) + ": null contribution");
  }
  const SparsePayload& p = *c.payload;
  if (p.vector_length != n) {
    throw std::invalid_argument(std::string(who) + ": vector length mismatch");
  }
  if (!p.dense()) {
    for (const std::uint32_t idx : p.indices) {
      if (idx >= n) {
        throw std::out_of_range(std::string(who) + ": index out of range");
      }
    }
  }
}

/// Groups every (coordinate, supplier) entry by coordinate: counting sort
/// over the payload index lists. `with_own` seeds each coordinate with
/// (own[i], self_weight) as its first entry. Returns the entries span;
/// `offsets[i]..offsets[i+1]` is coordinate i's slice, suppliers in
/// insertion order (own first, then contribution order).
std::span<RobustEntry> group_by_coordinate(
    std::span<const float> own, double self_weight, bool with_own,
    std::span<const WeightedContribution> contributions, Arena& arena,
    const char* who, std::span<std::size_t>& offsets) {
  const std::size_t n = own.size();
  offsets = arena.alloc<std::size_t>(n + 1);
  const std::span<std::size_t> cursor = arena.alloc<std::size_t>(n);
  for (std::size_t i = 0; i < n; ++i) cursor[i] = with_own ? 1 : 0;
  for (const WeightedContribution& c : contributions) {
    check_contribution(c, n, who);
    const SparsePayload& p = *c.payload;
    if (p.dense()) {
      for (std::size_t i = 0; i < n; ++i) ++cursor[i];
    } else {
      for (const std::uint32_t idx : p.indices) ++cursor[idx];
    }
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = total;
    total += cursor[i];
  }
  offsets[n] = total;
  const std::span<RobustEntry> entries = arena.alloc<RobustEntry>(total);
  for (std::size_t i = 0; i < n; ++i) {
    cursor[i] = offsets[i];
    if (with_own) entries[cursor[i]++] = {own[i], self_weight};
  }
  for (const WeightedContribution& c : contributions) {
    const SparsePayload& p = *c.payload;
    if (p.dense()) {
      for (std::size_t i = 0; i < n; ++i) {
        entries[cursor[i]++] = {p.values[i], c.weight};
      }
    } else {
      for (std::size_t i = 0; i < p.indices.size(); ++i) {
        entries[cursor[p.indices[i]]++] = {p.values[i], c.weight};
      }
    }
  }
  return entries;
}

/// Trim count for m suppliers under fraction f: floor(f * m), clamped so at
/// least one entry survives.
std::size_t trim_count(double fraction, std::size_t m) {
  const auto t = static_cast<std::size_t>(fraction * static_cast<double>(m));
  return m == 0 ? 0 : std::min(t, (m - 1) / 2);
}

/// Per-contribution radial shrink factors for norm_clip: min(1, c/||z-ref||)
/// with the deviation measured over the indices the contribution supplies.
/// `ref` may be empty (diff payloads deviate from zero).
std::span<double> clip_factors(std::span<const float> ref, std::size_t n,
                               double clip_norm,
                               std::span<const WeightedContribution> contributions,
                               Arena& arena, const char* who,
                               RobustAggCounters* counters) {
  const std::span<double> factors = arena.alloc<double>(contributions.size());
  for (std::size_t k = 0; k < contributions.size(); ++k) {
    check_contribution(contributions[k], n, who);
    const SparsePayload& p = *contributions[k].payload;
    double norm_sq = 0.0;
    if (p.dense()) {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(p.values[i]) -
                         (ref.empty() ? 0.0 : static_cast<double>(ref[i]));
        norm_sq += d * d;
      }
    } else {
      for (std::size_t i = 0; i < p.indices.size(); ++i) {
        const double d =
            static_cast<double>(p.values[i]) -
            (ref.empty() ? 0.0
                         : static_cast<double>(ref[p.indices[i]]));
        norm_sq += d * d;
      }
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > clip_norm) {
      factors[k] = clip_norm / norm;
      if (counters != nullptr) ++counters->clipped_contributions;
    } else {
      factors[k] = 1.0;
    }
  }
  return factors;
}

}  // namespace

const char* robust_agg_name(RobustAggKind kind) {
  switch (kind) {
    case RobustAggKind::kNone: return "none";
    case RobustAggKind::kTrimmedMean: return "trimmed_mean";
    case RobustAggKind::kMedian: return "median";
    case RobustAggKind::kNormClip: return "norm_clip";
  }
  return "unknown";
}

void robust_partial_average(const RobustAggConfig& config, std::span<float> own,
                            double self_weight,
                            std::span<const WeightedContribution> contributions,
                            Arena& arena, RobustAggCounters* counters) {
  const std::size_t n = own.size();
  switch (config.kind) {
    case RobustAggKind::kNone:
      partial_average(own, self_weight, contributions, arena);
      return;
    case RobustAggKind::kNormClip: {
      const std::span<const double> factors =
          clip_factors(own, n, config.clip_norm, contributions, arena,
                       "robust_partial_average", counters);
      const std::span<double> numerator = arena.alloc<double>(n);
      const std::span<double> denominator = arena.alloc<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        numerator[i] = self_weight * own[i];
        denominator[i] = self_weight;
      }
      for (std::size_t k = 0; k < contributions.size(); ++k) {
        const WeightedContribution& c = contributions[k];
        const double w = c.weight;
        const double f = factors[k];
        const SparsePayload& p = *c.payload;
        // f == 1.0 passes the received value through bit-identically, so a
        // run where nothing exceeds the radius matches the unclipped path.
        const auto clipped = [&](std::size_t idx, float v) {
          return f == 1.0 ? static_cast<double>(v)
                          : static_cast<double>(own[idx]) +
                                f * (static_cast<double>(v) - own[idx]);
        };
        if (p.dense()) {
          for (std::size_t i = 0; i < n; ++i) {
            numerator[i] += w * clipped(i, p.values[i]);
            denominator[i] += w;
          }
        } else {
          for (std::size_t i = 0; i < p.indices.size(); ++i) {
            const std::uint32_t idx = p.indices[i];
            numerator[idx] += w * clipped(idx, p.values[i]);
            denominator[idx] += w;
          }
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        own[i] = denominator[i] > 0.0
                     ? static_cast<float>(numerator[i] / denominator[i])
                     : own[i];
      }
      return;
    }
    case RobustAggKind::kTrimmedMean:
    case RobustAggKind::kMedian: {
      std::span<std::size_t> offsets;
      const std::span<RobustEntry> entries = group_by_coordinate(
          own, self_weight, /*with_own=*/true, contributions, arena,
          "robust_partial_average", offsets);
      for (std::size_t i = 0; i < n; ++i) {
        RobustEntry* slice = entries.data() + offsets[i];
        const std::size_t m = offsets[i + 1] - offsets[i];
        if (m <= 1) continue;  // own only: nothing to combine
        sort_entries_by_value(slice, m);
        if (config.kind == RobustAggKind::kMedian) {
          const double mid =
              m % 2 == 1 ? static_cast<double>(slice[m / 2].value)
                         : 0.5 * (static_cast<double>(slice[m / 2 - 1].value) +
                                  static_cast<double>(slice[m / 2].value));
          own[i] = static_cast<float>(mid);
          if (counters != nullptr) {
            // The median discards every entry but the middle one (two, for
            // even m) — tally them so the JSON shows the rule engaged.
            counters->trimmed_entries += m - (m % 2 == 1 ? 1 : 2);
          }
        } else {
          const std::size_t t = trim_count(config.trim_fraction, m);
          if (counters != nullptr) {
            counters->trimmed_entries += 2 * static_cast<std::uint64_t>(t);
          }
          double numerator = 0.0;
          double denominator = 0.0;
          for (std::size_t j = t; j < m - t; ++j) {
            numerator += slice[j].weight * static_cast<double>(slice[j].value);
            denominator += slice[j].weight;
          }
          if (denominator > 0.0) {
            own[i] = static_cast<float>(numerator / denominator);
          }
        }
      }
      return;
    }
  }
}

void robust_accumulate_diffs(const RobustAggConfig& config,
                             std::span<float> acc,
                             std::span<const WeightedContribution> contributions,
                             Arena& arena, RobustAggCounters* counters) {
  const std::size_t n = acc.size();
  switch (config.kind) {
    case RobustAggKind::kNone: {
      for (const WeightedContribution& c : contributions) {
        check_contribution(c, n, "robust_accumulate_diffs");
        const SparsePayload& p = *c.payload;
        if (p.dense()) {
          for (std::size_t i = 0; i < n; ++i) {
            acc[i] += static_cast<float>(c.weight * p.values[i]);
          }
        } else {
          for (std::size_t i = 0; i < p.indices.size(); ++i) {
            acc[p.indices[i]] += static_cast<float>(c.weight * p.values[i]);
          }
        }
      }
      return;
    }
    case RobustAggKind::kNormClip: {
      const std::span<const double> factors =
          clip_factors({}, n, config.clip_norm, contributions, arena,
                       "robust_accumulate_diffs", counters);
      for (std::size_t k = 0; k < contributions.size(); ++k) {
        const WeightedContribution& c = contributions[k];
        const double f = factors[k];
        const SparsePayload& p = *c.payload;
        const double wf = f == 1.0 ? c.weight : c.weight * f;
        if (p.dense()) {
          for (std::size_t i = 0; i < n; ++i) {
            acc[i] += static_cast<float>(wf * p.values[i]);
          }
        } else {
          for (std::size_t i = 0; i < p.indices.size(); ++i) {
            acc[p.indices[i]] += static_cast<float>(wf * p.values[i]);
          }
        }
      }
      return;
    }
    case RobustAggKind::kTrimmedMean:
    case RobustAggKind::kMedian: {
      std::span<std::size_t> offsets;
      const std::span<RobustEntry> entries = group_by_coordinate(
          acc, /*self_weight=*/0.0, /*with_own=*/false, contributions, arena,
          "robust_accumulate_diffs", offsets);
      for (std::size_t i = 0; i < n; ++i) {
        RobustEntry* slice = entries.data() + offsets[i];
        const std::size_t m = offsets[i + 1] - offsets[i];
        if (m == 0) continue;
        sort_entries_by_value(slice, m);
        double supplied_weight = 0.0;
        for (std::size_t j = 0; j < m; ++j) supplied_weight += slice[j].weight;
        double robust = 0.0;
        if (config.kind == RobustAggKind::kMedian) {
          robust =
              m % 2 == 1 ? static_cast<double>(slice[m / 2].value)
                         : 0.5 * (static_cast<double>(slice[m / 2 - 1].value) +
                                  static_cast<double>(slice[m / 2].value));
          if (counters != nullptr) {
            counters->trimmed_entries += m - (m % 2 == 1 ? 1 : 2);
          }
        } else {
          const std::size_t t = trim_count(config.trim_fraction, m);
          if (counters != nullptr) {
            counters->trimmed_entries += 2 * static_cast<std::uint64_t>(t);
          }
          double numerator = 0.0;
          double denominator = 0.0;
          for (std::size_t j = t; j < m - t; ++j) {
            numerator += slice[j].weight * static_cast<double>(slice[j].value);
            denominator += slice[j].weight;
          }
          if (denominator <= 0.0) continue;
          robust = numerator / denominator;
        }
        acc[i] += static_cast<float>(supplied_weight * robust);
      }
      return;
    }
  }
}

}  // namespace jwins::core
