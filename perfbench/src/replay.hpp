// The traced replay: the synchronous round loop of sim::Experiment::run()
// (full and compact node state), driven by the benchmark through the
// library's public node, network, graph and state-store APIs with a span
// around every call. Its result digest must equal Experiment::run()'s,
// which proves the replay is the program.
//
// Share and aggregate are single library calls, so the kernels inside them
// cannot be timed in place. For a sample of nodes the replay re-executes
// each share/aggregate step kernel by kernel through the kernels' public
// functions (WaveletRanker::transform_into / inverse_into,
// topk_indices_into, make_message, decode_payload_into, partial_average) on
// the node's own vectors and the message bodies the replay captured, and
// checks that the outcome is bit-identical to the node's. Each kernel's
// median call time, times the calls each share/aggregate made (counted at
// the kernel's symbol, kernel_count.hpp), becomes a dwt/compress/core child
// span of that share/aggregate span.
#pragma once

#include <cstdint>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Per-call kernel times (microseconds) from the kernel-by-kernel
/// re-execution.
struct KernelSamples {
  std::vector<double> forward_us;  ///< WaveletRanker::transform_into
  std::vector<double> inverse_us;  ///< WaveletRanker::inverse_into
  std::vector<double> topk_us;     ///< compress::topk_indices_into
  std::vector<double> encode_us;   ///< core::make_message
  std::vector<double> decode_us;   ///< core::decode_payload_into
  std::vector<double> average_us;  ///< core::partial_average
};

struct ReplayReport {
  sim::ExperimentResult result;
  KernelSamples kernels;
  /// Re-executed share/aggregate steps, and those whose outcome differed
  /// from the node's (any mismatch makes the run incorrect).
  std::size_t kernel_checks = 0;
  std::size_t kernel_mismatches = 0;
  /// Share/aggregate spans whose estimated kernel children exceeded the
  /// span and were scaled down to fit it.
  std::size_t estimates_clamped = 0;
  /// Measured DwtPlan forward + inverse calls inside share/aggregate.
  double dwt_calls_per_node_round = 0.0;
  std::uint64_t messages_delivered = 0;
  double state_bytes_per_node = 0.0;
  double materialized_fraction = 0.0;
};

/// Runs `p` (built with construct = false) single-threaded, recording spans
/// into `tracer`. The root span is named "sim.replay".
ReplayReport replay(const Prepared& p, Tracer& tracer);

}  // namespace perfbench
