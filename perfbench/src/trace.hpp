// Span recorder for the traced replay. The benchmark records a span (name,
// start, end, parent) around each call it makes into a library module;
// spans stay in memory and are reduced to per-layer self times when the
// run ends. A span's self time is its duration minus the part of it its
// child spans cover (the union of their intervals, clipped to the span).
// The self times of a well-nested trace therefore sum exactly to the
// duration of its root spans; children that overlap each other or reach
// outside their parent make the sum larger, which is how the benchmark
// checks that no time is counted twice. check() names the violations.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The library's modules (`tensor` is counted under `nn`, `config` under
/// set-up). kBench marks the benchmark's own verification work, which the
/// traced wall time excludes.
enum class Layer : std::uint8_t {
  kData,
  kNn,
  kDwt,
  kCompress,
  kCore,
  kNet,
  kGraph,
  kAlgo,
  kSim,
  kBench,
  kCount
};

const char* layer_name(Layer layer);

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< heap allocations made inside the span
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint16_t name = 0;

  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Median, 99th percentile and sample count of a sample.
struct Summary {
  double median = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
};

/// Resident memory of this process now, in bytes (0 if unavailable).
std::size_t current_rss_bytes();

/// Nearest-rank percentiles; an empty sample summarises to zeros.
Summary summarize(std::vector<double> values);

class Tracer {
 public:
  /// Registers a span name under `layer` and returns its id.
  std::uint16_t name(const std::string& label, Layer layer);

  /// Opens a span as a child of the innermost open span.
  std::int32_t begin(std::uint16_t name);
  void end(std::int32_t span);

  /// Appends an already-closed span (the estimated kernel children).
  void add(std::uint16_t name, std::int32_t parent, std::int64_t start_ns,
           std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  Layer layer_of(std::uint16_t name) const { return layers_.at(name); }
  const std::string& label_of(std::uint16_t name) const {
    return labels_.at(name);
  }

  /// Self time of every span, in seconds (index-aligned with spans()).
  std::vector<double> self_seconds() const;

  /// Nesting violations: a child outside its parent's interval, or two
  /// children of one parent overlapping.
  std::size_t check() const;

 private:
  /// (parent, span) of every span, ordered by parent, then by start.
  std::vector<std::pair<std::int32_t, std::int32_t>> by_parent() const;

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<std::string> labels_;
  std::vector<Layer> layers_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::uint16_t name)
      : tracer_(tracer), span_(tracer.begin(name)) {}
  ~Scoped() { tracer_.end(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::int32_t index() const noexcept { return span_; }

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

}  // namespace perfbench
