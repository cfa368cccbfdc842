// Scenario engine tests: parser round-trips, every diagnostic path, sweep
// expansion count/order, runner wiring, the golden-file check that a
// paper-figure scenario reproduces the hand-wired bench it replaced bit for
// bit, and the docs contract (every key the parser accepts is documented in
// docs/EXPERIMENTS.md).
#include "config/runner.hpp"
#include "config/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "graph/graph.hpp"
#include "sim/experiment.hpp"
#include "sim/workloads.hpp"

namespace jwins::config {
namespace {

std::vector<ScenarioRun> expand(const std::string& text) {
  return expand_grid(parse_scenario_text(text));
}

/// Runs text through parse+expand and returns the diagnostic ("" = valid).
std::string expand_error(const std::string& text) {
  try {
    expand(text);
  } catch (const ScenarioError& e) {
    return e.what();
  }
  return {};
}

void expect_error_contains(const std::string& text, const std::string& what) {
  const std::string message = expand_error(text);
  EXPECT_NE(message.find(what), std::string::npos)
      << "spec:\n" << text << "\ndiagnostic: " << message;
}

TEST(ScenarioParse, DefaultsMatchTheDocumentedTable) {
  const auto runs = expand("");
  ASSERT_EQ(runs.size(), 1u);
  const ScenarioRun& run = runs.front();
  EXPECT_EQ(run.label, "run");
  EXPECT_EQ(run.workload, "cifar");
  EXPECT_EQ(run.nodes, 16u);
  EXPECT_DOUBLE_EQ(run.scale, 1.0);
  EXPECT_EQ(run.topology, "regular");
  EXPECT_EQ(run.topology_degree, 0u);
  EXPECT_EQ(run.churn_every, 0u);
  EXPECT_TRUE(run.auto_learning_rate);
  EXPECT_TRUE(run.auto_local_steps);
  EXPECT_EQ(run.config.algorithm, sim::Algorithm::kJwins);
  EXPECT_EQ(run.config.rounds, 100u);
  EXPECT_EQ(run.config.eval_every, 10u);
  EXPECT_EQ(run.config.eval_sample_limit, 512u);
  EXPECT_EQ(run.config.eval_node_limit, 0u);
  EXPECT_EQ(run.config.threads, 0u);  // scenario default: all hardware threads
  EXPECT_EQ(run.config.seed, 1u);
  EXPECT_LT(run.config.target_accuracy, 0.0);  // off
  EXPECT_DOUBLE_EQ(run.config.link.bandwidth_bytes_per_sec, 12.5e6);
  EXPECT_DOUBLE_EQ(run.config.link.latency_sec, 2e-3);
}

TEST(ScenarioParse, RoundTripsValuesCommentsAndWhitespace) {
  const auto runs = expand(
      "# full-line comment\n"
      "  workload = femnist   ; trailing comment\n"
      "\n"
      "nodes=8\n"
      "algorithm\t=\tchoco\n"
      "rounds = 7\n"
      "seed = 99\n"
      "learning_rate = 0.125\n"
      "local_steps = 3\n"
      "choco_compressor = qsgd\n"
      "jwins_cutoff = two-point:0.05:0.1\n"
      "bandwidth_mbit = 10\n"
      "latency_ms = 20\n"
      "threads = 2\n");
  ASSERT_EQ(runs.size(), 1u);
  const ScenarioRun& run = runs.front();
  EXPECT_EQ(run.workload, "femnist");
  EXPECT_EQ(run.nodes, 8u);
  EXPECT_EQ(run.config.algorithm, sim::Algorithm::kChoco);
  EXPECT_EQ(run.config.rounds, 7u);
  EXPECT_EQ(run.config.seed, 99u);
  EXPECT_FALSE(run.auto_learning_rate);
  EXPECT_FLOAT_EQ(run.config.sgd.learning_rate, 0.125f);
  EXPECT_FALSE(run.auto_local_steps);
  EXPECT_EQ(run.config.local_steps, 3u);
  EXPECT_EQ(run.config.choco.compressor, algo::ChocoNode::Compressor::kQsgd);
  // two-point:0.05:0.1 -> E[alpha] = 0.1 + 0.9 * 0.05
  EXPECT_NEAR(run.config.jwins.cutoff.expected_alpha(), 0.145, 1e-12);
  EXPECT_DOUBLE_EQ(run.config.link.bandwidth_bytes_per_sec, 10e6 / 8.0);
  EXPECT_DOUBLE_EQ(run.config.link.latency_sec, 0.020);
  EXPECT_EQ(run.config.threads, 2u);
}

TEST(ScenarioParse, AsyncModeAndDecayKeys) {
  const auto runs = expand(
      "engine = async\nasync_mode = weighted\nstaleness_decay = 0.6\n");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().config.engine, sim::EngineKind::kAsync);
  EXPECT_EQ(runs.front().config.async_mode, sim::AsyncMode::kWeighted);
  EXPECT_DOUBLE_EQ(runs.front().config.staleness_decay, 0.6);
  const auto defaults = expand("");
  EXPECT_EQ(defaults.front().config.async_mode, sim::AsyncMode::kBarrier);
  EXPECT_EQ(expand("engine = async\nasync_mode = free\n")
                .front()
                .config.async_mode,
            sim::AsyncMode::kFree);
  expect_error_contains("async_mode = sometimes\n", "async_mode");
  expect_error_contains("staleness_decay = 0\n", "staleness_decay");
  expect_error_contains("staleness_decay = 1.5\n", "staleness_decay");
}

TEST(ScenarioParse, ByzantineAndRobustAggKeys) {
  const auto runs = expand(
      "byzantine_nodes = 2\nbyzantine_mode = scale:-3.5\n"
      "robust_agg = trimmed_mean:0.25\n");
  ASSERT_EQ(runs.size(), 1u);
  const sim::ExperimentConfig& cfg = runs.front().config;
  EXPECT_EQ(cfg.byzantine_nodes, 2u);
  EXPECT_EQ(cfg.byzantine_mode, algo::ByzantineMode::kScale);
  EXPECT_DOUBLE_EQ(cfg.byzantine_scale, -3.5);
  EXPECT_EQ(cfg.robust_agg.kind, core::RobustAggKind::kTrimmedMean);
  EXPECT_DOUBLE_EQ(cfg.robust_agg.trim_fraction, 0.25);
  EXPECT_EQ(expand("byzantine_mode = random\n").front().config.byzantine_mode,
            algo::ByzantineMode::kRandom);
  EXPECT_EQ(
      expand("byzantine_mode = sign_flip\n").front().config.byzantine_mode,
      algo::ByzantineMode::kSignFlip);
  EXPECT_EQ(expand("robust_agg = median\n").front().config.robust_agg.kind,
            core::RobustAggKind::kMedian);
  const core::RobustAggConfig clip =
      expand("robust_agg = norm_clip:2.5\n").front().config.robust_agg;
  EXPECT_EQ(clip.kind, core::RobustAggKind::kNormClip);
  EXPECT_DOUBLE_EQ(clip.clip_norm, 2.5);
  const sim::ExperimentConfig defaults = expand("").front().config;
  EXPECT_EQ(defaults.byzantine_nodes, 0u);
  EXPECT_EQ(defaults.byzantine_mode, algo::ByzantineMode::kSignFlip);
  EXPECT_EQ(defaults.robust_agg.kind, core::RobustAggKind::kNone);
}

TEST(ScenarioParse, NameKeyAndFileStemNaming) {
  RawScenario raw = parse_scenario_text("name = my_exp\nrounds = 3\n", "stem");
  EXPECT_EQ(raw.name, "my_exp");
  raw = parse_scenario_text("rounds = 3\n", "stem");
  EXPECT_EQ(raw.name, "stem");
}

TEST(ScenarioParse, SetValueOverridesAndAppends) {
  RawScenario raw = parse_scenario_text("rounds = 3\n");
  set_value(raw, "rounds", "9");
  set_value(raw, "workload", "celeba");
  const auto runs = expand_grid(raw);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().config.rounds, 9u);
  EXPECT_EQ(runs.front().workload, "celeba");
  // A --set override may itself introduce a sweep.
  set_value(raw, "seed", "1, 2");
  EXPECT_EQ(expand_grid(raw).size(), 2u);
}

// --- diagnostics: every error path answers with "<key>: <why>" ------------

TEST(ScenarioDiagnostics, UnknownKey) {
  expect_error_contains("bogus = 1\n", "bogus: unknown key");
  // Values are always sent raw; the retired value-codec key is refused.
  expect_error_contains("value_encoding = raw\n",
                        "value_encoding: unknown key");
}

TEST(ScenarioDiagnostics, BadEnums) {
  expect_error_contains("algorithm = sgd\n", "algorithm: unknown value");
  expect_error_contains("workload = imagenet\n", "workload: unknown value");
  expect_error_contains("topology = star\n", "topology: unknown value");
  expect_error_contains("jwins_wavelet = sym9\n", "jwins_wavelet: unknown value");
  expect_error_contains("choco_compressor = topj\n",
                        "choco_compressor: unknown value");
  expect_error_contains("index_encoding = gzip\n",
                        "index_encoding: unknown value");
}

TEST(ScenarioDiagnostics, MalformedNumbers) {
  expect_error_contains("nodes = abc\n", "nodes: \"abc\" is not an unsigned");
  expect_error_contains("rounds = -3\n", "rounds: \"-3\" is not an unsigned");
  expect_error_contains("rounds = 5x\n", "rounds: \"5x\" is not an unsigned");
  expect_error_contains("scale = tiny\n", "scale: \"tiny\" is not a finite");
  expect_error_contains("jwins_use_wavelet = yep\n",
                        "jwins_use_wavelet: \"yep\" is not a bool");
}

TEST(ScenarioDiagnostics, OutOfRangeValues) {
  expect_error_contains("nodes = 1\n", "nodes: must be >= 2");
  expect_error_contains("rounds = 0\n", "rounds: must be >= 1");
  expect_error_contains("eval_every = 0\n", "eval_every: must be >= 1");
  expect_error_contains("eval_sample_limit = 0\n",
                        "eval_sample_limit: must be >= 1");
  expect_error_contains("lr_decay_factor = 0\n",
                        "lr_decay_factor: must be in (0, 1]");
  expect_error_contains("target_accuracy = 1.5\n",
                        "target_accuracy: must be in (0, 1]");
  expect_error_contains("message_drop_probability = 1\n",
                        "message_drop_probability: must be in [0, 1)");
  expect_error_contains("momentum = 1\n", "momentum: must be in [0, 1)");
  expect_error_contains("learning_rate = 0\n", "learning_rate: must be in");
  expect_error_contains("choco_fraction = 1.2\n",
                        "choco_fraction: must be in (0, 1]");
  expect_error_contains("random_sampling_fraction = 0\n",
                        "random_sampling_fraction: must be in (0, 1]");
}

TEST(ScenarioDiagnostics, CutoffSpecGrammar) {
  expect_error_contains("jwins_cutoff = pareto\n",
                        "jwins_cutoff: unknown cutoff");
  expect_error_contains("jwins_cutoff = two-point:0.5\n", "two fields");
  expect_error_contains("jwins_cutoff = fixed:1.5\n", "(0, 1]");
  expect_error_contains("jwins_cutoff = fixed:0\n", "(0, 1]");
}

TEST(ScenarioDiagnostics, ByzantineAndRobustAggGrammar) {
  expect_error_contains("byzantine_nodes = -1\n",
                        "byzantine_nodes: \"-1\" is not an unsigned");
  expect_error_contains("byzantine_mode = gaussian\n",
                        "byzantine_mode: unknown attack mode");
  expect_error_contains("byzantine_mode = scale:\n",
                        "byzantine_mode: scale:<k> multiplier must be a "
                        "finite number");
  expect_error_contains("byzantine_mode = scale:big\n",
                        "byzantine_mode: scale:<k> multiplier");
  expect_error_contains("byzantine_mode = scale:inf\n",
                        "byzantine_mode: scale:<k> multiplier");
  expect_error_contains("robust_agg = krum\n",
                        "robust_agg: unknown robust rule");
  expect_error_contains("robust_agg = trimmed_mean:0.5\n", "[0, 0.5)");
  expect_error_contains("robust_agg = trimmed_mean:-0.1\n", "[0, 0.5)");
  expect_error_contains("robust_agg = trimmed_mean:lots\n", "[0, 0.5)");
  expect_error_contains("robust_agg = norm_clip:0\n",
                        "robust_agg: norm_clip:<c> clip norm must be > 0");
  expect_error_contains("robust_agg = norm_clip:-1\n",
                        "norm_clip:<c> clip norm must be > 0");
}

TEST(ScenarioDiagnostics, ByzantineCrossFieldRules) {
  expect_error_contains("nodes = 8\nbyzantine_nodes = 8\n",
                        "byzantine_nodes: must leave at least one honest");
  expect_error_contains("nodes = 8\nbyzantine_nodes = 12\n",
                        "byzantine_nodes: must leave at least one honest");
  expect_error_contains(
      "algorithm = power-gossip\nrobust_agg = median\n",
      "robust_agg: trimmed_mean/median are undefined for power-gossip");
  expect_error_contains(
      "algorithm = power-gossip\nrobust_agg = trimmed_mean:0.2\n",
      "use none or norm_clip");
  // norm_clip and none stay valid on power-gossip.
  EXPECT_EQ(
      expand_error("algorithm = power-gossip\nrobust_agg = norm_clip:1\n"),
      "");
}

TEST(ScenarioDiagnostics, SyntaxErrors) {
  expect_error_contains("[sim]\n", "line 1: sections are not supported");
  expect_error_contains("rounds 5\n", "line 1: expected `key = value`");
  expect_error_contains("= 5\n", "line 1: empty key");
  expect_error_contains("rounds = 5\nrounds = 6\n", "duplicate key \"rounds\"");
  expect_error_contains("algorithm = jwins,,choco\n", "empty value");
  expect_error_contains("name = a, b\n", "name: is not sweepable");
}

TEST(ScenarioDiagnostics, CrossFieldTopologyRules) {
  // 7 is prime: no rows x cols factorization with both >= 2.
  expect_error_contains("topology = torus\nnodes = 7\n",
                        "nodes: torus requires a composite");
  expect_error_contains("topology = ring\ntopology_degree = 3\n",
                        "topology_degree: ring requires an even degree");
  expect_error_contains("topology = full\nchurn_every = 1\n",
                        "churn_every: churn");
  // nodes=5, auto degree 3 -> nodes*degree odd.
  expect_error_contains("nodes = 5\n", "topology: random regular requires");
}

TEST(ScenarioDiagnostics, MissingFile) {
  EXPECT_THROW(load_scenario_file("/nonexistent/x.scenario"), ScenarioError);
}

// --- sweep expansion ------------------------------------------------------

TEST(ScenarioSweep, CountAndOdometerOrder) {
  const auto runs = expand(
      "algorithm = jwins, choco\n"
      "seed = 1, 2, 3\n");
  ASSERT_EQ(runs.size(), 6u);
  // File order with the last-listed key fastest: algorithm is the slow
  // axis, seed the fast one.
  const char* expected[] = {
      "algorithm=jwins,seed=1", "algorithm=jwins,seed=2",
      "algorithm=jwins,seed=3", "algorithm=choco,seed=1",
      "algorithm=choco,seed=2", "algorithm=choco,seed=3"};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    EXPECT_EQ(runs[i].label, expected[i]);
  }
  EXPECT_EQ(runs[0].config.algorithm, sim::Algorithm::kJwins);
  EXPECT_EQ(runs[0].config.seed, 1u);
  EXPECT_EQ(runs[5].config.algorithm, sim::Algorithm::kChoco);
  EXPECT_EQ(runs[5].config.seed, 3u);
}

TEST(ScenarioSweep, NonSweptKeysApplyToEveryCell) {
  const auto runs = expand(
      "rounds = 12\n"
      "workload = celeba, femnist\n");
  ASSERT_EQ(runs.size(), 2u);
  for (const ScenarioRun& run : runs) EXPECT_EQ(run.config.rounds, 12u);
  EXPECT_EQ(runs[0].workload, "celeba");
  EXPECT_EQ(runs[1].workload, "femnist");
}

TEST(ScenarioSweep, GridCapIsEnforced) {
  std::string seeds = "seed = 0";
  for (int i = 1; i < 70; ++i) seeds += ", " + std::to_string(i);
  const std::string text = seeds + "\nrounds = 1, 2\nnodes = 4, 8, 12, 16\n" +
                           "eval_every = 1, 2, 3, 4, 5, 6, 7, 8\n";
  expect_error_contains(text, "grid expands past the 4096-run cap");
}

// --- key registry & docs contract -----------------------------------------

TEST(ScenarioKeys, RegistryIsNonEmptyAndUnique) {
  const auto& keys = scenario_keys();
  ASSERT_GE(keys.size(), 30u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_STRNE(keys[i].key, keys[j].key);
    }
    EXPECT_GT(std::string(keys[i].description).size(), 0u) << keys[i].key;
    EXPECT_GT(std::string(keys[i].default_value).size(), 0u) << keys[i].key;
  }
}

TEST(ScenarioKeys, EveryKeyIsDocumentedInExperimentsMd) {
  const std::string path = std::string(JWINS_SOURCE_DIR) +
                           "/docs/EXPERIMENTS.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string docs = buffer.str();
  for (const KeyInfo& key : scenario_keys()) {
    // Incremental append (not operator+ chains) sidesteps GCC 12's
    // -Wrestrict false positive on string concatenation (GCC PR 105651).
    std::string needle = "`";
    needle += key.key;
    needle += "`";
    EXPECT_NE(docs.find(needle), std::string::npos)
        << "docs/EXPERIMENTS.md does not document scenario key `" << key.key
        << "`";
  }
}

TEST(ScenarioKeys, AllCheckedInScenarioPresetsExpand) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(JWINS_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(fs::exists(dir));
  std::size_t presets = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".scenario") continue;
    ++presets;
    EXPECT_NO_THROW({
      const auto runs = expand_grid(load_scenario_file(entry.path().string()));
      EXPECT_GE(runs.size(), 1u) << entry.path();
    }) << entry.path();
  }
  EXPECT_GE(presets, 8u);  // one per refactored bench/example + smoke
}

// --- runner wiring --------------------------------------------------------

TEST(ScenarioRunner, AutoKnobsResolveToWorkloadSuggestions) {
  const ScenarioRun run = expand("workload = shakespeare\nnodes = 4\n").front();
  const sim::Workload workload = make_run_workload(run);
  const sim::ExperimentConfig config = resolve_config(run, workload);
  EXPECT_FLOAT_EQ(config.sgd.learning_rate, workload.suggested_lr);
  EXPECT_EQ(config.local_steps, workload.suggested_local_steps);
  EXPECT_GE(config.threads, 1u);  // 0 = auto resolved
}

TEST(ScenarioRunner, ExplicitKnobsWin) {
  const ScenarioRun run =
      expand("workload = shakespeare\nnodes = 4\nlearning_rate = 0.5\n"
             "local_steps = 7\nthreads = 3\n")
          .front();
  const sim::ExperimentConfig config =
      resolve_config(run, make_run_workload(run));
  EXPECT_FLOAT_EQ(config.sgd.learning_rate, 0.5f);
  EXPECT_EQ(config.local_steps, 7u);
  EXPECT_EQ(config.threads, 3u);
}

TEST(ScenarioRunner, TopologyShapes) {
  auto degree_of = [](graph::TopologyProvider& topo, std::size_t n) {
    const graph::Graph& g = topo.round_graph(0);
    EXPECT_EQ(g.size(), n);
    EXPECT_TRUE(g.connected());
    return g.degree(0);
  };
  const auto ring = expand("topology = ring\nnodes = 8\n").front();
  EXPECT_EQ(degree_of(*make_run_topology(ring), 8), 2u);

  const auto torus = expand("topology = torus\nnodes = 12\n").front();
  EXPECT_EQ(degree_of(*make_run_topology(torus), 12), 4u);

  const auto full = expand("topology = full\nnodes = 6\n").front();
  EXPECT_EQ(degree_of(*make_run_topology(full), 6), 5u);

  const auto regular =
      expand("topology = regular\nnodes = 8\ntopology_degree = 4\n").front();
  const auto topo = make_run_topology(regular);
  EXPECT_TRUE(topo->round_graph(0).is_regular(4));
}

TEST(ScenarioRunner, ChurnScheduleRewiresOnThePeriod) {
  const auto run =
      expand("nodes = 8\nchurn_every = 2\ntopology_degree = 4\n").front();
  const auto topo = make_run_topology(run);
  auto edges = [](const graph::Graph& g) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t u = 0; u < g.size(); ++u) {
      for (std::size_t v : g.neighbors(u)) {
        if (u < v) out.emplace_back(u, v);
      }
    }
    return out;
  };
  const auto e0 = edges(topo->round_graph(0));
  const auto e1 = edges(topo->round_graph(1));
  const auto e2 = edges(topo->round_graph(2));
  EXPECT_EQ(e0, e1);  // same epoch
  EXPECT_NE(e0, e2);  // rewired after the period
}

// --- ExperimentConfig::validate -------------------------------------------

TEST(ExperimentConfigValidate, DefaultConfigIsValid) {
  // Named variable rather than a temporary: GCC 12 -O2 raises a
  // -Wmaybe-uninitialized false positive on the temporary's string member.
  const sim::ExperimentConfig config;
  EXPECT_TRUE(config.validate().empty());
}

TEST(ExperimentConfigValidate, ReportsEveryViolation) {
  sim::ExperimentConfig config;
  config.eval_every = 0;
  config.lr_decay_factor = -0.5;
  config.target_accuracy = 1.5;
  config.sgd.learning_rate = 0.0f;
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 4u);
  auto has = [&](const std::string& needle) {
    for (const std::string& e : errors) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("eval_every:"));
  EXPECT_TRUE(has("lr_decay_factor:"));
  EXPECT_TRUE(has("target_accuracy:"));
  EXPECT_TRUE(has("learning_rate:"));
}

TEST(ExperimentConfigValidate, ExperimentConstructorRejectsInvalidConfig) {
  const sim::Workload w = sim::make_celeba_like(4, 3);
  sim::ExperimentConfig config;
  config.eval_every = 0;
  std::mt19937 rng(3);
  EXPECT_THROW(sim::Experiment(config, w.model_factory, *w.train, w.partition,
                               *w.test,
                               std::make_unique<graph::StaticTopology>(
                                   graph::random_regular(4, 3, rng))),
               std::invalid_argument);
}

// --- the golden-file check ------------------------------------------------

// scenarios/fig5_convergence.scenario, scaled down, must reproduce the
// EXACT series the pre-refactor bench_fig5_convergence wiring produced:
// same workload seed, same topology construction, same config. This is the
// contract that lets the benches delete their hand wiring.
TEST(ScenarioGolden, Fig5ScenarioMatchesHandWiredBench) {
  const std::size_t nodes = 8;
  const std::size_t rounds = 6;
  const std::size_t seed = 1;

  // Scenario path: the checked-in preset, scaled down via overrides (what
  // `jwins_run scenarios/fig5_convergence.scenario --set ...` does).
  RawScenario raw = load_scenario_file(std::string(JWINS_SOURCE_DIR) +
                                       "/scenarios/fig5_convergence.scenario");
  set_value(raw, "nodes", std::to_string(nodes));
  set_value(raw, "rounds", std::to_string(rounds));
  set_value(raw, "workload", "celeba");
  set_value(raw, "eval_every", "2");
  set_value(raw, "eval_sample_limit", "64");
  set_value(raw, "eval_node_limit", "4");
  set_value(raw, "threads", "1");
  const auto runs = expand_grid(raw);
  const ScenarioRun* cell = nullptr;
  for (const ScenarioRun& r : runs) {
    if (r.config.algorithm == sim::Algorithm::kRandomSampling) cell = &r;
  }
  ASSERT_NE(cell, nullptr);
  const sim::ExperimentResult from_scenario = execute(*cell);

  // Hand-wired path: the pre-refactor bench code, verbatim.
  const sim::Workload w =
      sim::make_workload("celeba", nodes, static_cast<std::uint32_t>(seed));
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = rounds;
  cfg.local_steps = w.suggested_local_steps;
  cfg.sgd.learning_rate = w.suggested_lr;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.eval_node_limit = 4;
  cfg.threads = 1;
  cfg.seed = seed;
  cfg.random_sampling_fraction = 0.37;
  std::mt19937 rng(static_cast<unsigned>(seed));
  sim::Experiment hand_wired(
      cfg, w.model_factory, *w.train, w.partition, *w.test,
      std::make_unique<graph::StaticTopology>(
          graph::random_regular(nodes, auto_degree(nodes), rng)));
  const sim::ExperimentResult golden = hand_wired.run();

  ASSERT_EQ(from_scenario.series.size(), golden.series.size());
  for (std::size_t i = 0; i < golden.series.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(from_scenario.series[i].round, golden.series[i].round);
    EXPECT_EQ(from_scenario.series[i].sim_seconds, golden.series[i].sim_seconds);
    EXPECT_EQ(from_scenario.series[i].test_accuracy,
              golden.series[i].test_accuracy);
    EXPECT_EQ(from_scenario.series[i].test_loss, golden.series[i].test_loss);
    EXPECT_EQ(from_scenario.series[i].train_loss, golden.series[i].train_loss);
    EXPECT_EQ(from_scenario.series[i].avg_bytes_per_node,
              golden.series[i].avg_bytes_per_node);
    EXPECT_EQ(from_scenario.series[i].avg_metadata_bytes_per_node,
              golden.series[i].avg_metadata_bytes_per_node);
  }
  EXPECT_EQ(from_scenario.total_traffic.bytes_sent,
            golden.total_traffic.bytes_sent);
  EXPECT_EQ(from_scenario.total_traffic.metadata_bytes_sent,
            golden.total_traffic.metadata_bytes_sent);
  EXPECT_EQ(from_scenario.final_accuracy, golden.final_accuracy);
  EXPECT_EQ(from_scenario.final_loss, golden.final_loss);
  EXPECT_EQ(from_scenario.sim_seconds, golden.sim_seconds);
}

}  // namespace
}  // namespace jwins::config
