#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "config/runner.hpp"
#include "sim/report.hpp"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

// Why each workload exists, which layer it loads and which it bypasses is
// recorded in BENCHMARK.json and README.md. The shapes follow the
// checked-in presets; `seed` here is the experiment seed (model init,
// samplers, topology), held fixed so --seed varies only the data.
const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"fig5_cifar_jwins",
       // scenarios/fig5_convergence.scenario, cifar x jwins cell.
       "name = fig5_cifar_jwins\n"
       "workload = cifar\n"
       "algorithm = jwins\n"
       "nodes = 16\n"
       "topology = regular\n"
       "topology_degree = 4\n"
       "rounds = 160\n"
       "seed = 1\n"
       "eval_every = 5\n"
       "eval_sample_limit = 192\n"
       "eval_node_limit = 8\n"
       "random_sampling_fraction = 0.37\n",
       "nodes=8;rounds=6;eval_every=2;eval_node_limit=4", true},
      {"comm_movielens_jwins",
       // Matrix factorization: ~7.8k parameters, so the wavelet
       // communication path outweighs training.
       "name = comm_movielens_jwins\n"
       "workload = movielens\n"
       "algorithm = jwins\n"
       "nodes = 512\n"
       "topology = regular\n"
       "topology_degree = 4\n"
       "rounds = 40\n"
       "seed = 1\n"
       "eval_sample = 32\n",
       "nodes=32;rounds=4;eval_sample=8", true},
      {"scale_100k_compact",
       // scenarios/scale_100k.scenario.
       "name = scale_100k_compact\n"
       "workload = scale\n"
       "algorithm = random-sampling\n"
       "nodes = 100000\n"
       "topology = ring\n"
       "rounds = 3\n"
       "seed = 7\n"
       "node_state = compact\n"
       "batch_sampler = counter\n"
       "eval_every = 1\n"
       "eval_sample = 256\n"
       "eval_sample_limit = 64\n",
       "nodes=3000;rounds=2;eval_sample=32", true},
      {"async_free_scale",
       // scenarios/async_free.scenario with the scale model at 4096 nodes
       // and no simulated-time budget.
       "name = async_free_scale\n"
       "workload = scale\n"
       "algorithm = jwins\n"
       "nodes = 4096\n"
       "topology = regular\n"
       "rounds = 20\n"
       "seed = 13\n"
       "eval_every = 8\n"
       "eval_sample_limit = 64\n"
       "eval_node_limit = 4\n"
       "bandwidth_dist = lognormal:100:0.75\n"
       "latency_dist = uniform:2:40\n"
       "straggler_fraction = 0.3\n"
       "straggler_slowdown = 4\n"
       "engine = async\n"
       "async_mode = free\n"
       "stop_at_sim_time = 0\n",
       "nodes=64;rounds=3", false},
  };
  return defs;
}

const WorkloadDef& find_workload(std::string_view name) {
  std::string valid;
  for (const WorkloadDef& def : workload_defs()) {
    if (def.name == name) return def;
    valid += (valid.empty() ? "" : ", ") + def.name;
  }
  throw std::invalid_argument("unknown workload \"" + std::string(name) +
                              "\" (valid: " + valid + ")");
}

unsigned default_threads(const WorkloadDef& def) {
  if (!def.parallel) return 1;
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

Prepared prepare(const WorkloadDef& def, std::uint32_t seed, unsigned threads,
                 bool small, bool construct) {
  const auto start = std::chrono::steady_clock::now();
  Prepared p;
  config::RawScenario raw = config::parse_scenario_text(def.scenario, def.name);
  config::set_value(raw, "threads", std::to_string(threads));
  if (small) {
    std::istringstream overrides(def.small_overrides);
    std::string item;
    while (std::getline(overrides, item, ';')) {
      const std::size_t eq = item.find('=');
      config::set_value(raw, item.substr(0, eq), item.substr(eq + 1));
    }
  }
  p.run = config::expand_grid(raw).at(0);
  p.workload =
      sim::make_workload(p.run.workload, p.run.nodes, seed, p.run.scale);
  p.config = config::resolve_config(p.run, p.workload);
  p.data_seconds = seconds_since(start);
  if (construct) {
    const auto built = std::chrono::steady_clock::now();
    p.experiment = std::make_unique<sim::Experiment>(
        p.config, p.workload.model_factory, *p.workload.train,
        p.workload.partition, *p.workload.test,
        config::make_run_topology(p.run));
    p.construct_seconds = seconds_since(built);
  }
  return p;
}

double node_rounds(const sim::ExperimentResult& result, std::size_t nodes) {
  if (result.event_engine.enabled) {
    double steps = 0.0;
    for (const std::uint64_t s : result.event_engine.local_steps) {
      steps += static_cast<double>(s);
    }
    return steps;
  }
  return static_cast<double>(result.rounds_run) * static_cast<double>(nodes) -
         static_cast<double>(result.sim_time.crashed_node_rounds);
}

std::string result_digest(const sim::ExperimentResult& result) {
  std::ostringstream os;
  sim::write_result_json(os, "perfbench", result, /*include_wall=*/false);
  // FNV-1a over the JSON bytes.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : os.str()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace perfbench
