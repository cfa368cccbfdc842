#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <unistd.h>

#include "alloc_count.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kData: return "data";
    case Layer::kNn: return "nn";
    case Layer::kDwt: return "dwt";
    case Layer::kCompress: return "compress";
    case Layer::kCore: return "core";
    case Layer::kNet: return "net";
    case Layer::kGraph: return "graph";
    case Layer::kAlgo: return "algo";
    case Layer::kSim: return "sim";
    case Layer::kBench: return "bench";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::size_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0;
  unsigned long resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  return read == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE))
                   : 0;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  s.p99 = values[std::max<std::size_t>(rank, 1) - 1];
  return s;
}

std::uint16_t Tracer::name(const std::string& label, Layer layer) {
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) return static_cast<std::uint16_t>(i);
  }
  labels_.push_back(label);
  layers_.push_back(layer);
  return static_cast<std::uint16_t>(labels_.size() - 1);
}

std::int32_t Tracer::begin(std::uint16_t name) {
  // The tracer's own growth happens before the span starts counting.
  Span& s = spans_.emplace_back();
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  s.allocs = thread_allocs();
  s.start_ns = now_ns();
  return open_.back();
}

void Tracer::end(std::int32_t span) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error("Tracer: spans closed out of order");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = t;
  s.allocs = thread_allocs() - s.allocs;
}

void Tracer::add(std::uint16_t name, std::int32_t parent,
                 std::int64_t start_ns, std::int64_t end_ns) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

std::vector<std::pair<std::int32_t, std::int32_t>> Tracer::by_parent() const {
  std::vector<std::pair<std::int32_t, std::int32_t>> order;
  order.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    order.emplace_back(spans_[i].parent, static_cast<std::int32_t>(i));
  }
  std::sort(order.begin(), order.end(), [&](auto a, auto b) {
    if (a.first != b.first) return a.first < b.first;
    return spans_[static_cast<std::size_t>(a.second)].start_ns <
           spans_[static_cast<std::size_t>(b.second)].start_ns;
  });
  return order;
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Sweep each parent's children in start order, subtracting the union of
  // their intervals clipped to the parent: `reach` is how far the children
  // so far cover.
  const auto order = by_parent();
  std::int32_t parent = -1;
  std::int64_t reach = 0;
  for (const auto& [p, child] : order) {
    if (p < 0) continue;
    const Span& ps = spans_[static_cast<std::size_t>(p)];
    if (p != parent) {
      parent = p;
      reach = ps.start_ns;
    }
    const Span& c = spans_[static_cast<std::size_t>(child)];
    const std::int64_t from = std::max(c.start_ns, reach);
    const std::int64_t to = std::min(c.end_ns, ps.end_ns);
    if (to > from) {
      self[static_cast<std::size_t>(p)] -= to - from;
      reach = to;
    }
  }
  std::vector<double> out(self.size());
  for (std::size_t i = 0; i < self.size(); ++i) {
    out[i] = static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::size_t Tracer::check() const {
  std::size_t violations = 0;
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) ++violations;
  }
  // Each child must sit inside its parent and begin no earlier than its
  // previous sibling ended.
  const auto by_parent = this->by_parent();
  for (std::size_t k = 0; k < by_parent.size(); ++k) {
    const auto [parent, child] = by_parent[k];
    const Span& c = spans_[static_cast<std::size_t>(child)];
    if (parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(parent)];
      if (c.start_ns < p.start_ns || c.end_ns > p.end_ns) ++violations;
    }
    if (k > 0 && by_parent[k - 1].first == parent &&
        c.start_ns <
            spans_[static_cast<std::size_t>(by_parent[k - 1].second)].end_ns) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace perfbench
