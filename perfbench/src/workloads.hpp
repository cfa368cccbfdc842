// The benchmark's four workloads. Each is a scenario (the `config` module's
// input language) whose experiment seed is fixed, plus the workload seed
// the benchmark takes as its --seed argument: sim::make_workload turns that
// seed into the datasets and partition the Experiment receives.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/workloads.hpp"

namespace perfbench {

namespace algo = jwins::algo;
namespace compress = jwins::compress;
namespace config = jwins::config;
namespace core = jwins::core;
namespace data = jwins::data;
namespace dwt = jwins::dwt;
namespace graph = jwins::graph;
namespace net = jwins::net;
namespace nn = jwins::nn;
namespace sim = jwins::sim;

struct WorkloadDef {
  std::string name;
  std::string scenario;        ///< scenario text, without `threads`
  std::string small_overrides;  ///< `key=value;...` for the reduced self-test
  bool parallel = true;        ///< threads = min(4, nproc); false = 1 thread
};

const std::vector<WorkloadDef>& workload_defs();

/// Throws std::invalid_argument naming the valid workloads.
const WorkloadDef& find_workload(std::string_view name);

/// min(4, hardware threads) for parallel workloads, 1 otherwise.
unsigned default_threads(const WorkloadDef& def);

/// Everything one run needs. `workload` is declared before `experiment`
/// because the Experiment keeps references into its datasets.
struct Prepared {
  config::ScenarioRun run;
  sim::Workload workload;
  sim::ExperimentConfig config;
  std::unique_ptr<sim::Experiment> experiment;
  double data_seconds = 0.0;       ///< scenario parse + sim::make_workload
  double construct_seconds = 0.0;  ///< topology + Experiment constructor
};

/// Builds the workload from `seed` and, when `construct` is set, the
/// Experiment at `threads` lanes.
Prepared prepare(const WorkloadDef& def, std::uint32_t seed, unsigned threads,
                 bool small, bool construct = true);

/// Node-rounds a run completed: rounds x live nodes under the synchronous
/// engine, the sum of per-node local steps under the event engine.
double node_rounds(const sim::ExperimentResult& result, std::size_t nodes);

/// Hash of the run's result JSON without the host-clock "wall_seconds"
/// block: every run of one workload at one seed must produce the same one.
std::string result_digest(const sim::ExperimentResult& result);

}  // namespace perfbench
