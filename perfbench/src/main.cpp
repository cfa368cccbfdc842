// The repository benchmark binary (see ../README.md). One invocation runs
// one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--trace-out FILE]
//
// --trace 0 repeats set-up + Experiment::run() at the workload's thread
// count for S seconds and reports the end-to-end metrics. --trace 1 makes
// one untraced single-thread run, one run at the workload's thread count,
// and one traced single-thread run, and reports the per-layer metrics. The
// last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; everything else goes to
// standard error.
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cerrno>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// A run longer than this counts as failed (a whole invocation must end
/// within 180 s).
constexpr double kRunTimeoutSeconds = 150.0;
/// Extra set-ups before the measured runs, so setup_s is a median of many
/// even when only a few runs fit in the time: at least kMinSetups, then
/// more until kSetupSeconds have passed or kMaxSetups were made.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 40;
constexpr double kSetupSeconds = 1.0;
/// Set-ups measured for the data/sim set-up layer metrics.
constexpr int kTracedSetupRepeats = 3;
/// The self times of a trace must sum to its root spans within this share
/// (they agree exactly unless spans overlap or leave their parent; see
/// trace.hpp).
constexpr double kSelfSumTolerance = 1e-6;

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::invalid_argument("--trace: must be 0 or 1");
      }
      o.trace = v == "1";
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds: must be > 0");
  return o;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics in emission order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }

  /// `name` = median, `name.p99`, `name.samples`.
  void timing(const std::string& name, const Summary& s,
              const std::string& unit) {
    set(name, s.median, unit);
    set(name + ".p99", s.p99, unit);
    set(name + ".samples", static_cast<double>(s.samples), "count");
  }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " +
             number(items_[i].value) + ", \"unit\": \"" + items_[i].unit +
             "\"}";
    }
    return out + "}";
  }

  void print(std::ostream& os) const {
    for (const auto& m : items_) {
      os << "  " << m.name << " = " << number(m.value) << " " << m.unit
         << "\n";
    }
  }

  static std::string number(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Failure accounting and the output check shared by both modes.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Runs one already-prepared experiment, timing run() and counting a throw,
/// a digest mismatch against `expected` (when non-empty) or a timeout as a
/// failed run.
void timed_run(Prepared& p, Outcome& out, std::string& expected,
               sim::ExperimentResult& result, double& seconds,
               const std::string& what) {
  ++out.attempted;
  try {
    const auto start = std::chrono::steady_clock::now();
    result = p.experiment->run();
    seconds = seconds_since(start);
  } catch (const std::exception& e) {
    ++out.failed;
    out.fail(what + " threw: " + e.what());
    return;
  }
  bool ok = true;
  const std::string digest = result_digest(result);
  if (expected.empty()) {
    expected = digest;
  } else if (digest != expected) {
    out.fail(what + ": result digest " + digest + " != " + expected);
    ok = false;
  }
  if (seconds > kRunTimeoutSeconds) {
    out.fail(what + ": exceeded " + std::to_string(kRunTimeoutSeconds) + " s");
    ok = false;
  }
  if (!ok) ++out.failed;
}

/// Runs `body` in a forked child, which sends back the trivially copyable
/// T it returns through a pipe, so each measured run starts from a fresh
/// heap and reports its own peak RSS. A child that dies, or that is still
/// running after kRunTimeoutSeconds (it is killed), yields nullopt and
/// `error` says why. The child is always reaped.
template <class T, class Fn>
std::optional<T> in_child(Fn&& body, std::string& error) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe");
  }
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::system_error(errno, std::generic_category(), "fork");
  if (pid == 0) {
    close(fds[0]);
    const T value = body();
    const char* bytes = reinterpret_cast<const char*>(&value);
    for (std::size_t sent = 0; sent < sizeof value;) {
      const ssize_t n = write(fds[1], bytes + sent, sizeof value - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  T value{};
  std::size_t got = 0;
  bool timed_out = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kRunTimeoutSeconds);
  while (got < sizeof value) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = left > 0 ? poll(&pfd, 1, static_cast<int>(left)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&value) + got,
                           sizeof value - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof value) {
    error = timed_out ? "exceeded " + std::to_string(kRunTimeoutSeconds) + " s"
                      : "child process died";
    return std::nullopt;
  }
  return value;
}

/// What one measured run reports from its child process.
struct ChildRun {
  bool ok = false;
  char error[240] = {};
  char digest[24] = {};
  double setup_seconds = 0.0;
  double run_seconds = 0.0;
  double node_rounds = 0.0;
  double peak_rss_mib = 0.0;
  double bytes_per_node = 0.0;
  double sim_seconds = 0.0;
};

/// Set-up times of the extra set-ups, made in one child process.
struct SetupSamples {
  std::size_t count = 0;
  double seconds[kMaxSetups] = {};
  char error[240] = {};
};

template <std::size_t N>
void copy_text(char (&to)[N], const std::string& from) {
  std::snprintf(to, N, "%s", from.c_str());
}

ChildRun measured_run(const WorkloadDef& def, const Options& o,
                      unsigned threads) {
  ChildRun r;
  try {
    Prepared p = prepare(def, o.seed, threads, o.small);
    r.setup_seconds = p.data_seconds + p.construct_seconds;
    const auto start = std::chrono::steady_clock::now();
    const sim::ExperimentResult result = p.experiment->run();
    r.run_seconds = seconds_since(start);
    r.node_rounds = node_rounds(result, p.run.nodes);
    r.peak_rss_mib = peak_rss_mib();
    r.bytes_per_node = static_cast<double>(result.total_traffic.bytes_sent) /
                       static_cast<double>(p.run.nodes);
    r.sim_seconds = result.sim_seconds;
    copy_text(r.digest, result_digest(result));
    r.ok = true;
  } catch (const std::exception& e) {
    copy_text(r.error, e.what());
  }
  return r;
}

SetupSamples measured_setups(const WorkloadDef& def, const Options& o,
                             unsigned threads) {
  SetupSamples s;
  try {
    const auto start = std::chrono::steady_clock::now();
    while (s.count < static_cast<std::size_t>(kMinSetups) ||
           (s.count < static_cast<std::size_t>(kMaxSetups) &&
            seconds_since(start) < kSetupSeconds)) {
      const Prepared p = prepare(def, o.seed, threads, o.small);
      s.seconds[s.count++] = p.data_seconds + p.construct_seconds;
    }
  } catch (const std::exception& e) {
    copy_text(s.error, e.what());
  }
  return s;
}

void run_untraced(const Options& o, Metrics& metrics, Outcome& out) {
  const WorkloadDef& def = find_workload(o.workload);
  const unsigned threads = default_threads(def);
  std::string error;
  const auto setups = in_child<SetupSamples>(
      [&] { return measured_setups(def, o, threads); }, error);
  if (!setups || setups->error[0] != '\0') {
    throw std::runtime_error("set-up failed: " +
                             (setups ? std::string(setups->error) : error));
  }
  std::vector<double> setup(setups->seconds, setups->seconds + setups->count);
  std::vector<double> rates;
  std::vector<double> rss;
  std::string digest;
  ChildRun first;
  // Runs start while the next one, as long as the last, still ends within
  // --seconds; the first run always happens.
  const auto start = std::chrono::steady_clock::now();
  double last = 0.0;
  while ((rates.empty() && out.attempted < 3) ||
         (!rates.empty() && seconds_since(start) + last <= o.seconds)) {
    const auto iteration = std::chrono::steady_clock::now();
    ++out.attempted;
    const std::string what = "run " + std::to_string(out.attempted);
    const auto r = in_child<ChildRun>(
        [&] { return measured_run(def, o, threads); }, error);
    last = seconds_since(iteration);
    if (!r || !r->ok) {
      ++out.failed;
      out.fail(what + ": " + (r ? std::string(r->error) : error));
      continue;
    }
    if (digest.empty()) {
      digest = r->digest;
      first = *r;
    } else if (digest != r->digest) {
      ++out.failed;
      out.fail(what + ": result digest " + r->digest + " != " + digest);
      continue;
    }
    setup.push_back(r->setup_seconds);
    rates.push_back(r->node_rounds / r->run_seconds);
    rss.push_back(r->peak_rss_mib);
  }
  if (rates.empty()) throw std::runtime_error("no run completed");
  const Summary rate = summarize(rates);
  const Summary setup_s = summarize(setup);
  metrics.set("node_rounds_per_s", rate.median, "1/s");
  metrics.set("setup_s", setup_s.median, "s");
  metrics.set("peak_rss_mib", summarize(rss).median, "MiB");
  metrics.set("bytes_per_node", first.bytes_per_node, "bytes");
  metrics.set("sim_s", first.sim_seconds, "s");
  std::cerr << def.name << ": " << rate.samples << " runs at " << threads
            << " threads, node_rounds_per_s";
  for (const double r : rates) std::cerr << " " << r;
  std::cerr << "; peak_rss_mib";
  for (const double r : rss) std::cerr << " " << r;
  std::cerr << "; setup_s median of " << setup_s.samples << "\n";
}

/// Self time per layer, and the trace's consistency figures.
struct LayerTotals {
  double by_layer[static_cast<int>(Layer::kCount)] = {};
  double root_seconds = 0.0;   ///< summed durations of the root spans
  double self_sum = 0.0;       ///< summed self times of every span
  double wall = 0.0;           ///< root spans minus the benchmark's own work
  std::size_t violations = 0;  ///< Tracer::check()
};

LayerTotals layer_totals(const Tracer& tracer,
                         const std::vector<double>& self) {
  LayerTotals totals;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals.by_layer[static_cast<int>(tracer.layer_of(spans[i].name))] +=
        self[i];
    totals.self_sum += self[i];
    if (spans[i].parent < 0) totals.root_seconds += spans[i].seconds();
  }
  totals.wall = totals.root_seconds -
                totals.by_layer[static_cast<int>(Layer::kBench)];
  totals.violations = tracer.check();
  return totals;
}

/// Durations (or self times) in microseconds, and allocations, of every
/// span with one name.
struct NameStats {
  std::vector<double> duration_us;
  std::vector<double> self_us;
  double allocs = 0.0;
};

std::map<std::string, NameStats> name_stats(const Tracer& tracer,
                                            const std::vector<double>& self) {
  std::map<std::string, NameStats> stats;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameStats& s = stats[tracer.label_of(spans[i].name)];
    s.duration_us.push_back(spans[i].seconds() * 1e6);
    s.self_us.push_back(self[i] * 1e6);
    s.allocs += static_cast<double>(spans[i].allocs);
  }
  return stats;
}

void run_traced(const Options& o, Metrics& metrics, Outcome& out,
                std::ostringstream& trace_json) {
  const WorkloadDef& def = find_workload(o.workload);
  const unsigned threads = default_threads(def);

  std::vector<double> data_s;
  std::vector<double> construct_s;
  for (int k = 0; k < kTracedSetupRepeats; ++k) {
    const Prepared p = prepare(def, o.seed, 1, o.small);
    data_s.push_back(p.data_seconds);
    construct_s.push_back(p.construct_seconds);
  }

  // Untraced single-thread run: the trace overhead's baseline.
  std::string digest;
  sim::ExperimentResult result;
  double untraced_s = 0.0;
  std::size_t nodes = 0;
  {
    Prepared p = prepare(def, o.seed, 1, o.small);
    nodes = p.run.nodes;
    timed_run(p, out, digest, result, untraced_s, "untraced 1-thread run");
  }
  std::string digest_n;
  if (threads > 1) {
    Prepared p = prepare(def, o.seed, threads, o.small);
    sim::ExperimentResult r;
    double s = 0.0;
    timed_run(p, out, digest, r, s,
              "untraced " + std::to_string(threads) + "-thread run");
    digest_n = result_digest(r);
  }

  Tracer tracer;
  ReplayReport rep;
  const Prepared base = prepare(def, o.seed, 1, o.small, false);
  const sim::ExperimentConfig& cfg = base.config;
  const bool sync = cfg.engine == sim::EngineKind::kSync;
  ++out.attempted;
  try {
    if (sync) {
      rep = replay(base, tracer);
      result = rep.result;
    } else {
      // The event engine is traced as a black box: one span around run(),
      // with its public per-phase wall times as children.
      const std::size_t rss_before = current_rss_bytes();
      Prepared p = prepare(def, o.seed, 1, o.small);
      const std::size_t rss_after = current_rss_bytes();
      const auto n_root = tracer.name("sim.run", Layer::kSim);
      const std::int32_t root = tracer.begin(n_root);
      result = p.experiment->run();
      tracer.end(root);
      const Span span = tracer.spans()[static_cast<std::size_t>(root)];
      std::int64_t at = span.start_ns;
      const std::pair<const char*, double> phases[] = {
          {"nn.train_phase", result.wall.train_seconds},
          {"algo.share_phase", result.wall.share_seconds},
          {"algo.aggregate_phase", result.wall.aggregate_seconds},
          {"nn.eval_phase", result.wall.evaluate_seconds}};
      for (const auto& [label, seconds] : phases) {
        const Layer layer = label[0] == 'n' ? Layer::kNn : Layer::kAlgo;
        const std::int64_t end = std::min(
            span.end_ns, at + static_cast<std::int64_t>(seconds * 1e9));
        tracer.add(tracer.name(label, layer), root, at, end);
        at = end;
      }
      rep.result = result;
      rep.messages_delivered = result.event_engine.messages_delivered;
      rep.materialized_fraction = 1.0;
      rep.state_bytes_per_node =
          static_cast<double>(rss_after > rss_before ? rss_after - rss_before
                                                     : 0) /
          static_cast<double>(nodes);
    }
  } catch (const std::exception& e) {
    ++out.failed;
    out.fail(std::string("traced run threw: ") + e.what());
    return;
  }
  const std::string digest_traced = result_digest(result);
  if (digest_traced != digest) {
    ++out.failed;
    out.fail("traced run digest " + digest_traced + " != untraced " + digest);
  }
  if (rep.kernel_mismatches > 0) {
    out.fail(std::to_string(rep.kernel_mismatches) + " of " +
             std::to_string(rep.kernel_checks) +
             " kernel re-executions differ from the node's own step");
  }
  const std::vector<double> self = tracer.self_seconds();
  const LayerTotals totals = layer_totals(tracer, self);
  if (totals.violations > 0) {
    out.fail(std::to_string(totals.violations) + " span nesting violations");
  }
  const double self_error =
      std::abs(totals.self_sum - totals.root_seconds) /
      std::max(totals.root_seconds, 1e-9);
  if (self_error > kSelfSumTolerance) {
    out.fail("self times sum to " + std::to_string(totals.self_sum) +
             " s, root spans to " + std::to_string(totals.root_seconds) +
             " s");
  }

  // Per-layer metrics. Layers a workload does not reach report 0.
  auto stats = name_stats(tracer, self);
  auto durations = [&](const char* name) {
    return summarize(stats[name].duration_us);
  };
  auto per_call_allocs = [&](const char* name) {
    const NameStats& s = stats[name];
    return s.duration_us.empty()
               ? 0.0
               : s.allocs / static_cast<double>(s.duration_us.size());
  };
  const net::NodeTraffic& traffic = result.total_traffic;
  const double sent = static_cast<double>(traffic.messages_sent);
  const sim::EventEngineStats& ev = result.event_engine;
  const double wall = totals.wall;
  auto layer_s = [&](Layer l) { return totals.by_layer[static_cast<int>(l)]; };

  metrics.timing("data.workload_build_s", summarize(data_s), "s");
  metrics.timing("sim.construct_s", summarize(construct_s), "s");
  metrics.timing("nn.train_us", durations("nn.train"), "us");
  metrics.set("nn.train_allocs_per_call", per_call_allocs("nn.train"),
              "count");
  metrics.timing("nn.eval_us", durations("nn.eval"), "us");
  metrics.set("nn.eval_calls",
              static_cast<double>(stats["nn.eval"].duration_us.size()),
              "count");
  metrics.timing("algo.share_self_us", summarize(stats["algo.share"].self_us),
                 "us");
  metrics.timing("algo.aggregate_self_us",
                 summarize(stats["algo.aggregate"].self_us), "us");
  metrics.set("algo.share_allocs_per_call", per_call_allocs("algo.share"),
              "count");
  metrics.set("algo.aggregate_allocs_per_call",
              per_call_allocs("algo.aggregate"), "count");
  metrics.timing("dwt.forward_us", summarize(rep.kernels.forward_us), "us");
  metrics.timing("dwt.inverse_us", summarize(rep.kernels.inverse_us), "us");
  metrics.set("dwt.calls_per_node_round", rep.dwt_calls_per_node_round,
              "count");
  metrics.timing("compress.topk_us", summarize(rep.kernels.topk_us), "us");
  metrics.timing("compress.encode_us", summarize(rep.kernels.encode_us), "us");
  metrics.timing("compress.decode_us", summarize(rep.kernels.decode_us), "us");
  metrics.set("compress.payload_bytes_per_msg",
              sent > 0 ? static_cast<double>(traffic.payload_bytes_sent) / sent
                       : 0.0,
              "bytes");
  metrics.set("compress.metadata_bytes_per_msg",
              sent > 0 ? static_cast<double>(traffic.metadata_bytes_sent) / sent
                       : 0.0,
              "bytes");
  metrics.set("nn.final_accuracy", result.final_accuracy, "fraction");
  metrics.set("algo.alpha_mean",
              cfg.algorithm == sim::Algorithm::kJwins ? result.mean_alpha
              : cfg.algorithm == sim::Algorithm::kRandomSampling
                  ? cfg.random_sampling_fraction
                  : 1.0,
              "fraction");
  metrics.timing("core.average_us", summarize(rep.kernels.average_us), "us");
  metrics.timing("graph.round_graph_us", durations("graph.round_graph"), "us");
  metrics.timing("graph.mixing_weights_us", durations("graph.mixing_weights"),
                 "us");
  metrics.timing("net.finish_round_us", durations("net.finish_round"), "us");
  metrics.set("net.messages_per_round",
              result.rounds_run > 0
                  ? sent / static_cast<double>(result.rounds_run)
                  : 0.0,
              "count");
  metrics.set("net.delivered_ratio",
              sent > 0 ? static_cast<double>(rep.messages_delivered) / sent
                       : 0.0,
              "fraction");
  metrics.timing("sim.bind_us", durations("sim.bind"), "us");
  metrics.timing("sim.store_write_us", durations("sim.store_write"), "us");
  metrics.set("sim.state_bytes_per_node", rep.state_bytes_per_node, "bytes");
  metrics.set("sim.materialized_fraction", rep.materialized_fraction,
              "fraction");
  const std::string root_name = sync ? "sim.replay" : "sim.run";
  const double engine_self =
      stats[root_name].self_us.empty() ? 0.0 : stats[root_name].self_us[0] * 1e-6;
  metrics.set("sim.engine_self_s", engine_self, "s");
  metrics.set("sim.events_processed",
              static_cast<double>(ev.events_processed), "count");
  metrics.set("sim.events_per_s",
              ev.events_processed > 0 && wall > 0
                  ? static_cast<double>(ev.events_processed) / wall
                  : 0.0,
              "1/s");
  metrics.set("sim.max_queue_depth", static_cast<double>(ev.max_queue_depth),
              "count");
  metrics.set("sim.edge_records_high_water",
              static_cast<double>(ev.edge_records_high_water), "count");
  metrics.set("sim.mean_contribution_age", ev.mean_contribution_age(),
              "rounds");
  for (const Layer l : {Layer::kNn, Layer::kAlgo, Layer::kDwt,
                        Layer::kCompress, Layer::kCore, Layer::kNet,
                        Layer::kGraph, Layer::kSim}) {
    metrics.set(std::string("layer.") + layer_name(l) + "_pct",
                wall > 0 ? 100.0 * layer_s(l) / wall : 0.0, "%");
  }
  metrics.set("trace.wall_s", wall, "s");
  metrics.set("trace_overhead_pct",
              untraced_s > 0 ? 100.0 * (wall - untraced_s) / untraced_s : 0.0,
              "%");

  std::cerr << def.name << ": traced " << wall << " s, untraced 1-thread "
            << untraced_s << " s; kernel re-executions " << rep.kernel_checks
            << " (" << rep.kernel_mismatches << " differ), estimates clamped "
            << rep.estimates_clamped << "\n";

  trace_json << "{\"digest_untraced\": \"" << digest
             << "\", \"digest_threads\": \"" << digest_n
             << "\", \"digest_traced\": \"" << digest_traced
             << "\", \"replay\": " << (sync ? "true" : "false")
             << ", \"kernel_checks\": " << rep.kernel_checks
             << ", \"kernel_mismatches\": " << rep.kernel_mismatches
             << ", \"nesting_violations\": " << totals.violations
             << ", \"spans\": " << tracer.spans().size()
             << ", \"root_s\": " << Metrics::number(totals.root_seconds)
             << ", \"self_sum_s\": " << Metrics::number(totals.self_sum)
             << ", \"wall_s\": " << Metrics::number(totals.wall)
             << ", \"self_s\": {";
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    trace_json << (l ? ", " : "") << "\"" << layer_name(static_cast<Layer>(l))
               << "\": " << Metrics::number(totals.by_layer[l]);
  }
  trace_json << "}}";
}

int run(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  find_workload(o.workload);  // reject unknown names before any work
  Metrics metrics;
  Outcome out;
  std::ostringstream trace_json;
  if (o.trace) {
    run_traced(o, metrics, out, trace_json);
  } else {
    run_untraced(o, metrics, out);
  }
  if (out.failed > 0) out.correct = false;
  for (const std::string& p : out.problems) {
    std::cerr << "perfbench: " << p << "\n";
  }
  metrics.print(std::cerr);
  if (!o.trace_out.empty()) {
    std::ofstream(o.trace_out) << "{\"correct\": "
                               << (out.correct ? "true" : "false")
                               << ", \"trace\": "
                               << (o.trace ? trace_json.str() : "null")
                               << ", \"metrics\": " << metrics.json() << "}\n";
  }
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
