#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>

#include "algo/jwins_node.hpp"
#include "algo/random_sampling.hpp"
#include "compress/topk.hpp"
#include "config/runner.hpp"
#include "core/averaging.hpp"
#include "core/ranker.hpp"
#include "core/rng.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "data/dataset.hpp"
#include "net/network.hpp"
#include "sim/node_state.hpp"

#include "kernel_count.hpp"

namespace perfbench {

namespace {

// Constructor wiring private to sim/experiment.cpp, mirrored here. The
// digest comparison against Experiment::run() fails if they ever drift.
constexpr std::uint64_t kSamplerStream = 0xDA7A;
constexpr std::size_t kBatchCap = 16;

/// Nodes re-executed kernel by kernel (evenly spaced over the ranks).
constexpr std::size_t kKernelSampleNodes = 16;

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// w_{receiver,sender} as algo::DlNode::weight_of computes it.
double weight_of(const graph::Graph& g, const graph::MixingWeights& weights,
                 std::uint32_t receiver, std::uint32_t sender) {
  const auto& nbrs = g.neighbors(receiver);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] == sender) return weights.neighbor_weight[receiver][k];
  }
  return 0.0;
}

/// Passes every message straight into its mailbox (the network already
/// made the drop verdict and the accounting), counting deliveries and
/// keeping the sampled nodes' outgoing and incoming messages for the kernel
/// re-execution.
class CaptureSink final : public net::DeliverySink {
 public:
  CaptureSink(net::Network& network, const std::vector<std::int32_t>& slot_of,
              std::size_t slots)
      : network_(network),
        slot_of_(slot_of),
        outbound_(slots),
        inbound_(slots) {}

  void on_deliver(std::uint32_t to, net::Message msg) override {
    ++delivered_;
    if (const std::int32_t s = slot_of_[msg.sender]; s >= 0) {
      outbound_[static_cast<std::size_t>(s)] = msg;
    }
    if (const std::int32_t s = slot_of_[to]; s >= 0) {
      inbound_[static_cast<std::size_t>(s)].push_back(msg);
    }
    network_.deliver(to, std::move(msg));
  }

  std::uint64_t delivered() const noexcept { return delivered_; }
  net::Message& outbound(std::size_t slot) { return outbound_[slot]; }
  std::vector<net::Message>& inbound(std::size_t slot) {
    return inbound_[slot];
  }

 private:
  net::Network& network_;
  const std::vector<std::int32_t>& slot_of_;
  std::vector<net::Message> outbound_;
  std::vector<std::vector<net::Message>> inbound_;
  std::uint64_t delivered_ = 0;
};

/// Workspace and timers of the kernel-by-kernel re-execution.
struct KernelBench {
  KernelSamples samples;
  core::Arena arena{1 << 20};
  dwt::DwtWorkspace ws;
  compress::BitWriter bits;
  net::BufferPool pool;
  core::PayloadPool payloads;
  std::vector<core::WeightedContribution> contributions;
  std::vector<float> actual;
  std::size_t checks = 0;
  std::size_t mismatches = 0;

  template <class Fn>
  void time(std::vector<double>& into, Fn&& fn) {
    const std::int64_t start = now_ns();
    fn();
    into.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }

  void check(bool ok) {
    ++checks;
    if (!ok) ++mismatches;
  }

  /// Decodes `inbox` (sorted into the canonical drain order first) and
  /// builds the weighted contributions of `rank`'s aggregation.
  void decode_inbox(std::vector<net::Message>& inbox, const graph::Graph& g,
                    const graph::MixingWeights& weights, std::uint32_t rank) {
    std::sort(inbox.begin(), inbox.end(), [](const auto& a, const auto& b) {
      return a.round != b.round ? a.round < b.round : a.sender < b.sender;
    });
    arena.reset();
    payloads.reset();
    contributions.clear();
    for (const net::Message& msg : inbox) {
      time(samples.decode_us, [&] {
        core::decode_payload_into(msg.body, payloads.next(), arena);
      });
    }
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      contributions.push_back(
          {weight_of(g, weights, rank, inbox[i].sender), &payloads[i]});
    }
  }

  void check_message(const net::Message& mine, const net::Message& real) {
    const auto a = mine.body.span();
    const auto b = real.body.span();
    check(a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin()) &&
          mine.metadata_bytes == real.metadata_bytes);
  }
};

/// A JWINS node's ranking state, advanced alongside the real node.
struct JwinsShadow {
  core::WaveletRanker ranker;
  std::vector<float> x0, x_tau, x_next, delta, delta_coeffs, coeffs, values;
  std::vector<std::uint32_t> indices;
  bool dense = false;

  JwinsShadow(std::span<const float> params,
              const core::WaveletRanker::Options& options)
      : ranker(params.size(), options), x0(params.begin(), params.end()) {}

  /// forward #1 of a round: the transform inside accumulate_round_change.
  void transform_change(KernelBench& kb, std::span<const float> before,
                        std::span<const float> after) {
    delta.resize(after.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      delta[i] = after[i] - before[i];
    }
    delta_coeffs.resize(ranker.coeff_length());
    kb.time(kb.samples.forward_us,
            [&] { ranker.transform_into(delta, delta_coeffs, kb.ws); });
  }

  void share(KernelBench& kb, algo::JwinsNode& node, std::uint32_t round,
             const algo::JwinsNode::Options& options,
             const net::Message& real) {
    node.flat_params_into(x_tau);
    transform_change(kb, x0, x_tau);
    kb.arena.reset();
    const std::span<const float> scores =
        ranker.accumulate_round_change(x0, x_tau, kb.arena, kb.ws);
    coeffs.resize(ranker.coeff_length());
    kb.time(kb.samples.forward_us,
            [&] { ranker.transform_into(x_tau, coeffs, kb.ws); });
    const double alpha = node.last_alpha();
    core::PayloadView payload;
    payload.vector_length = static_cast<std::uint32_t>(coeffs.size());
    core::PayloadOptions msg_options;
    msg_options.value_encoding = options.value_encoding;
    dense = alpha >= 1.0;
    if (dense) {
      indices.clear();
      payload.values = coeffs;
      msg_options.index_encoding = core::IndexEncoding::kDense;
    } else {
      const std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 alpha * static_cast<double>(coeffs.size()) + 0.5));
      kb.time(kb.samples.topk_us,
              [&] { compress::topk_indices_into(scores, k, indices); });
      compress::gather_into(coeffs, indices, values);
      payload.indices = indices;
      payload.values = values;
      msg_options.index_encoding = options.index_encoding;
    }
    net::Message msg;
    kb.time(kb.samples.encode_us, [&] {
      msg = core::make_message(node.rank(), round, payload, msg_options,
                               kb.pool, kb.bits);
    });
    kb.check_message(msg, real);
  }

  void aggregate(KernelBench& kb, algo::JwinsNode& node,
                 std::vector<net::Message>& inbox, const graph::Graph& g,
                 const graph::MixingWeights& weights) {
    const std::uint32_t rank = node.rank();
    kb.decode_inbox(inbox, g, weights, rank);
    kb.time(kb.samples.average_us, [&] {
      core::partial_average(coeffs, weights.self_weight[rank],
                            kb.contributions, kb.arena);
    });
    x_next.resize(x_tau.size());
    kb.time(kb.samples.inverse_us,
            [&] { ranker.inverse_into(coeffs, x_next, kb.ws); });
    transform_change(kb, x_tau, x_next);
    if (dense) {
      indices.resize(ranker.coeff_length());
      std::iota(indices.begin(), indices.end(), 0u);
    }
    ranker.finish_round(x_tau, x_next, indices, kb.arena, kb.ws);
    node.flat_params_into(kb.actual);
    kb.check(same_bits(x_next, kb.actual));
    x0 = x_next;
  }
};

/// Random sampling keeps no state between rounds beyond the parameters.
struct SamplingShadow {
  std::vector<float> x;
  std::vector<float> values;
  std::vector<std::uint32_t> indices;

  void share(KernelBench& kb, std::span<const float> params,
             std::uint32_t rank, std::uint32_t round, double fraction,
             std::uint64_t seed_base, const net::Message& real) {
    const std::size_t n = params.size();
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * static_cast<double>(n) + 0.5));
    const std::uint64_t seed = core::derive_seed(seed_base, rank, round);
    kb.arena.reset();
    compress::random_indices_into(n, k, seed, indices, kb.arena);
    compress::gather_into(params, indices, values);
    core::PayloadView payload(static_cast<std::uint32_t>(n), indices, values);
    core::PayloadOptions options;
    options.index_encoding = core::IndexEncoding::kSeed;
    options.seed = seed;
    net::Message msg;
    kb.time(kb.samples.encode_us, [&] {
      msg = core::make_message(rank, round, payload, options, kb.pool,
                               kb.bits);
    });
    kb.check_message(msg, real);
  }

  void aggregate(KernelBench& kb, std::uint32_t rank,
                 std::vector<net::Message>& inbox, const graph::Graph& g,
                 const graph::MixingWeights& weights,
                 std::span<const float> after) {
    kb.decode_inbox(inbox, g, weights, rank);
    kb.time(kb.samples.average_us, [&] {
      core::partial_average(x, weights.self_weight[rank], kb.contributions,
                            kb.arena);
    });
    kb.check(same_bits(x, after));
  }
};

/// A share/aggregate span and the kernel calls made inside it, for its
/// estimated kernel children.
struct CallNote {
  std::int32_t span = -1;
  KernelCounts calls;
};

/// Runs one share/aggregate call in a span named `name`, noting the span
/// and the kernel calls it made.
template <class Fn>
void noted_call(Tracer& tracer, std::uint16_t name,
                std::vector<CallNote>& notes, Fn&& fn) {
  const KernelCounts before = thread_kernel_counts();
  std::int32_t span = -1;
  {
    Scoped scoped(tracer, name);
    fn();
    span = scoped.index();
  }
  notes.push_back({span, thread_kernel_counts() - before});
}

}  // namespace

ReplayReport replay(const Prepared& p, Tracer& tracer) {
  const sim::ExperimentConfig& cfg = p.config;
  if (cfg.engine != sim::EngineKind::kSync) {
    throw std::invalid_argument("replay: the synchronous engine only");
  }
  // What the benchmark's workloads use. Anything else would need more of
  // Experiment::run() mirrored; the digest check would catch the gap.
  const bool compact = cfg.node_state == sim::NodeState::kCompact;
  if (cfg.algorithm != (compact ? sim::Algorithm::kRandomSampling
                                : sim::Algorithm::kJwins)) {
    throw std::invalid_argument(
        "replay: jwins with full node state, random-sampling with compact");
  }
  if (cfg.byzantine_nodes > 0 ||
      cfg.robust_agg.kind != core::RobustAggKind::kNone ||
      cfg.lr_decay_every > 0 || cfg.target_accuracy > 0.0 ||
      cfg.message_drop_probability > 0.0 || cfg.stop_at_sim_time > 0.0 ||
      cfg.time.crash_nodes > 0) {
    throw std::invalid_argument(
        "replay: no attacks, robust rules, lr decay, target accuracy, drops, "
        "time budget or crashes");
  }
  const auto n_root = tracer.name("sim.replay", Layer::kSim);
  const auto n_round_graph = tracer.name("graph.round_graph", Layer::kGraph);
  const auto n_mixing = tracer.name("graph.mixing_weights", Layer::kGraph);
  const auto n_train = tracer.name("nn.train", Layer::kNn);
  const auto n_eval = tracer.name("nn.eval", Layer::kNn);
  const auto n_share = tracer.name("algo.share", Layer::kAlgo);
  const auto n_aggregate = tracer.name("algo.aggregate", Layer::kAlgo);
  const auto n_finish = tracer.name("net.finish_round", Layer::kNet);
  const auto n_bind = tracer.name("sim.bind", Layer::kSim);
  const auto n_store = tracer.name("sim.store_write", Layer::kSim);
  const auto n_eval_load = tracer.name("sim.eval_load", Layer::kSim);
  const auto n_bench = tracer.name("bench.kernels", Layer::kBench);
  const auto n_forward = tracer.name("dwt.forward", Layer::kDwt);
  const auto n_inverse = tracer.name("dwt.inverse", Layer::kDwt);
  const auto n_topk = tracer.name("compress.topk", Layer::kCompress);
  const auto n_encode = tracer.name("compress.encode", Layer::kCompress);
  const auto n_decode = tracer.name("compress.decode", Layer::kCompress);
  const auto n_average = tracer.name("core.average", Layer::kCore);

  const data::Dataset& train = *p.workload.train;
  const data::Partition& partition = p.workload.partition;
  const std::size_t n = partition.size();
  const algo::TrainConfig train_config{cfg.local_steps, cfg.sgd, cfg.seed};

  // Node state, as Experiment's constructor lays it out.
  const std::size_t rss_before = current_rss_bytes();
  std::vector<std::unique_ptr<algo::JwinsNode>> nodes;
  std::unique_ptr<algo::DlNode> worker;
  std::unique_ptr<sim::NodeStateStore> store;
  std::vector<std::uint64_t> steps_done;
  if (compact) {
    worker = std::make_unique<algo::RandomSamplingNode>(
        0, p.workload.model_factory(),
        data::Sampler(train, partition[0], kBatchCap,
                      core::derive_seed(cfg.seed, 0, 0, kSamplerStream),
                      data::Sampler::Mode::kCounter),
        train_config, cfg.random_sampling_fraction, cfg.seed);
    store = std::make_unique<sim::NodeStateStore>(n, worker->flat_params());
    steps_done.assign(n, 0);
  } else {
    const auto mode = cfg.batch_sampler == sim::BatchSampler::kCounter
                          ? data::Sampler::Mode::kCounter
                          : data::Sampler::Mode::kShuffle;
    nodes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<algo::JwinsNode>(
          static_cast<std::uint32_t>(i), p.workload.model_factory(),
          data::Sampler(train, partition[i],
                        std::max<std::size_t>(
                            1, std::min(kBatchCap, partition[i].size())),
                        core::derive_seed(cfg.seed, i, 0, kSamplerStream),
                        mode),
          train_config, cfg.jwins));
    }
  }
  const std::size_t rss_after = current_rss_bytes();
  const double full_state_bytes =
      static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
      static_cast<double>(n);
  algo::DlNode& first = compact ? *worker : *nodes.front();
  const std::size_t params = first.param_count();

  auto topology = config::make_run_topology(p.run);
  net::Network network(n, net::TimeModel(n, cfg.link, cfg.time, cfg.seed));
  core::RoundScratch scratch;
  scratch.reserve_for_model(params);
  const nn::Batch eval_batch =
      data::full_batch(*p.workload.test, cfg.eval_sample_limit);

  // Kernel re-execution sample and its capture hook.
  const std::size_t sample_count = std::min(n, kKernelSampleNodes);
  std::vector<std::int32_t> slot_of(n, -1);
  std::vector<std::uint32_t> sample_nodes;
  for (std::size_t s = 0; s < sample_count; ++s) {
    const std::size_t node = s * n / sample_count;
    slot_of[node] = static_cast<std::int32_t>(s);
    sample_nodes.push_back(static_cast<std::uint32_t>(node));
  }
  CaptureSink sink(network, slot_of, sample_nodes.size());
  network.set_delivery_sink(&sink);
  KernelBench kb;
  std::vector<JwinsShadow> jwins_shadows;
  std::vector<SamplingShadow> sampling_shadows(compact ? sample_nodes.size()
                                                       : 0);
  if (!compact) {
    for (const std::uint32_t node : sample_nodes) {
      jwins_shadows.emplace_back(nodes[node]->flat_params(), cfg.jwins.ranker);
    }
  }

  const net::TimeModel& time_model = network.time_model();
  const bool eval_sample_active = cfg.eval_sample > 0 && cfg.eval_sample < n;
  std::vector<std::uint32_t> subset;
  std::size_t subset_round = static_cast<std::size_t>(-1);
  auto eval_subset = [&](std::size_t round) -> const std::vector<std::uint32_t>& {
    if (subset_round != round) {
      subset = sim::Experiment::eval_sample_indices(cfg.seed, round, n,
                                                    cfg.eval_sample);
      subset_round = round;
    }
    return subset;
  };
  auto bind = [&](std::size_t i) {
    Scoped span(tracer, n_bind);
    worker->rebind(static_cast<std::uint32_t>(i), partition[i],
                   core::derive_seed(cfg.seed, i, 0, kSamplerStream),
                   steps_done[i]);
    worker->set_flat_params(store->view(i));
  };
  auto evaluate = [&](std::size_t round, double train_loss) {
    sim::MetricPoint point;
    point.round = round;
    point.sim_seconds = network.simulated_seconds();
    point.sim_compute_seconds = network.simulated_compute_seconds();
    point.sim_comm_seconds = network.simulated_comm_seconds();
    point.train_loss = train_loss;
    const std::vector<std::uint32_t>* sub =
        eval_sample_active ? &eval_subset(round) : nullptr;
    const std::size_t count =
        sub ? sub->size()
            : (cfg.eval_node_limit == 0 ? n : std::min(cfg.eval_node_limit, n));
    nn::EvalMetrics sums;
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t node = sub ? (*sub)[j] : j;
      nn::SupervisedModel* model = nullptr;
      if (compact) {
        Scoped span(tracer, n_eval_load);
        worker->set_flat_params(store->view(node));
        model = &worker->model();
      } else {
        model = &nodes[node]->model();
      }
      nn::EvalMetrics m;
      {
        Scoped span(tracer, n_eval);
        m = model->evaluate(eval_batch);
      }
      sums.accuracy += m.accuracy;
      sums.loss += m.loss;
    }
    point.test_accuracy = sums.accuracy / static_cast<double>(count);
    point.test_loss = sums.loss / static_cast<double>(count);
    point.avg_bytes_per_node = network.traffic().average_bytes_per_node();
    point.avg_metadata_bytes_per_node =
        static_cast<double>(network.traffic().total().metadata_bytes_sent) /
        static_cast<double>(n);
    return point;
  };

  ReplayReport report;
  sim::ExperimentResult& result = report.result;
  std::vector<float> train_losses(n, 0.0f);
  std::vector<CallNote> notes;
  graph::MixingWeights mixing;
  std::size_t mixing_epoch = 0;
  bool mixing_valid = false;
  double alpha_sum = 0.0;
  std::size_t alpha_samples = 0;

  const std::int32_t root = tracer.begin(n_root);
  for (std::size_t t = 0; t < cfg.rounds; ++t) {
    const auto round = static_cast<std::uint32_t>(t);
    const graph::Graph* gp = nullptr;
    {
      Scoped span(tracer, n_round_graph);
      gp = &topology->round_graph(t);
    }
    const graph::Graph& g = *gp;
    if (g.size() != n) {
      throw std::logic_error("replay: topology size != node count");
    }
    if (const std::size_t epoch = topology->round_epoch(t);
        !mixing_valid || mixing_epoch != epoch) {
      Scoped span(tracer, n_mixing);
      mixing = graph::metropolis_hastings(g);
      mixing_epoch = epoch;
      mixing_valid = true;
    }

    if (compact) {
      // The fused train+share pass of Experiment::run_compact().
      for (std::size_t i = 0; i < n; ++i) {
        bind(i);
        {
          Scoped span(tracer, n_train);
          train_losses[i] = worker->local_train();
        }
        noted_call(tracer, n_share, notes, [&] {
          worker->share(network, g, mixing, round, scratch);
        });
        {
          Scoped span(tracer, n_store);
          worker->flat_params_into(store->slot(i));
        }
        steps_done[i] += cfg.local_steps;
        if (const std::int32_t s = slot_of[i]; s >= 0) {
          Scoped span(tracer, n_bench);
          auto& sh = sampling_shadows[static_cast<std::size_t>(s)];
          sh.share(kb, store->view(i), static_cast<std::uint32_t>(i), round,
                   cfg.random_sampling_fraction, cfg.seed,
                   sink.outbound(static_cast<std::size_t>(s)));
          sink.outbound(static_cast<std::size_t>(s)) = net::Message{};
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        bind(i);
        const std::int32_t s = slot_of[i];
        if (s >= 0) {
          Scoped span(tracer, n_bench);
          const auto view = store->view(i);
          sampling_shadows[static_cast<std::size_t>(s)].x.assign(view.begin(),
                                                                 view.end());
        }
        noted_call(tracer, n_aggregate, notes, [&] {
          worker->aggregate(network, g, mixing, round, scratch);
        });
        {
          Scoped span(tracer, n_store);
          worker->flat_params_into(store->slot(i));
        }
        if (s >= 0) {
          Scoped span(tracer, n_bench);
          auto& inbox = sink.inbound(static_cast<std::size_t>(s));
          sampling_shadows[static_cast<std::size_t>(s)].aggregate(
              kb, static_cast<std::uint32_t>(i), inbox, g, mixing,
              store->view(i));
          inbox.clear();
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        Scoped span(tracer, n_train);
        train_losses[i] = nodes[i]->local_train();
      }
      for (std::size_t i = 0; i < n; ++i) {
        noted_call(tracer, n_share, notes, [&] {
          nodes[i]->share(network, g, mixing, round, scratch);
        });
        if (const std::int32_t s = slot_of[i]; s >= 0) {
          Scoped span(tracer, n_bench);
          const auto slot = static_cast<std::size_t>(s);
          jwins_shadows[slot].share(kb, *nodes[i], round, cfg.jwins,
                                    sink.outbound(slot));
          sink.outbound(slot) = net::Message{};
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        noted_call(tracer, n_aggregate, notes, [&] {
          nodes[i]->aggregate(network, g, mixing, round, scratch);
        });
        if (const std::int32_t s = slot_of[i]; s >= 0) {
          Scoped span(tracer, n_bench);
          auto& inbox = sink.inbound(static_cast<std::size_t>(s));
          jwins_shadows[static_cast<std::size_t>(s)].aggregate(kb, *nodes[i],
                                                               inbox, g, mixing);
          inbox.clear();
        }
      }
    }
    {
      Scoped span(tracer, n_finish);
      network.finish_round(cfg.compute_seconds_per_round);
    }
    result.rounds_run = t + 1;

    if (!compact) {
      if (eval_sample_active) {
        for (const std::uint32_t i : eval_subset(t + 1)) {
          alpha_sum += nodes[i]->last_alpha();
          ++alpha_samples;
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          alpha_sum += nodes[i]->last_alpha();
          ++alpha_samples;
        }
      }
    }
    if (t % cfg.eval_every == 0 || t + 1 == cfg.rounds) {
      const double mean_train_loss = sim::Experiment::mean_loss_over(
          train_losses,
          eval_sample_active
              ? std::span<const std::uint32_t>(eval_subset(t + 1))
              : std::span<const std::uint32_t>{},
          [](std::size_t) { return true; });
      result.series.push_back(evaluate(t + 1, mean_train_loss));
    }
  }
  tracer.end(root);
  network.set_delivery_sink(nullptr);

  // Experiment::collect_summary().
  const sim::MetricPoint& last = result.series.back();
  result.final_accuracy = last.test_accuracy;
  result.final_loss = last.test_loss;
  result.sim_seconds = network.simulated_seconds();
  result.total_traffic = network.traffic().total();
  result.mean_alpha = alpha_samples == 0
                          ? 0.0
                          : alpha_sum / static_cast<double>(alpha_samples);
  result.sim_time.extended = time_model.extended();
  result.sim_time.compute_seconds = network.simulated_compute_seconds();
  result.sim_time.comm_seconds = network.simulated_comm_seconds();
  result.sim_time.dropped_total = time_model.dropped_total();
  result.sim_time.dropped_iid = time_model.dropped_iid();
  result.sim_time.dropped_edge = time_model.dropped_edge();
  result.sim_time.dropped_burst = time_model.dropped_burst();
  result.sim_time.dropped_crash = time_model.dropped_crash();
  result.sim_time.crashed_node_rounds = time_model.crashed_node_rounds();
  result.sim_time.stragglers = time_model.straggler_count();

  // Estimated kernel children of every share/aggregate span: each kernel's
  // median re-executed call time (robust to the re-execution's own cold
  // first calls), times the calls that span made.
  KernelSamples& ks = kb.samples;
  auto median_ns = [](const std::vector<double>& us) {
    return summarize(us).median * 1e3;
  };
  const std::pair<std::uint16_t, double> per_call[] = {
      {n_forward, median_ns(ks.forward_us)},
      {n_inverse, median_ns(ks.inverse_us)},
      {n_topk, median_ns(ks.topk_us)},
      {n_encode, median_ns(ks.encode_us)},
      {n_decode, median_ns(ks.decode_us)},
      {n_average, median_ns(ks.average_us)}};
  static_assert(std::size(per_call) == static_cast<int>(Kernel::kCount));
  double dwt_calls = 0.0;
  std::vector<std::pair<std::uint16_t, double>> kids;
  for (const CallNote& note : notes) {
    kids.clear();
    for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k) {
      if (note.calls.calls[k] > 0) {
        kids.emplace_back(per_call[k].first,
                          static_cast<double>(note.calls.calls[k]) *
                              per_call[k].second);
      }
    }
    dwt_calls += static_cast<double>(note.calls[Kernel::kForward] +
                                     note.calls[Kernel::kInverse]);
    const Span parent = tracer.spans()[static_cast<std::size_t>(note.span)];
    const auto span_ns = static_cast<double>(parent.end_ns - parent.start_ns);
    double total = 0.0;
    for (const auto& kid : kids) total += kid.second;
    double scale = 1.0;
    if (total > span_ns) {
      scale = span_ns / total;
      ++report.estimates_clamped;
    }
    std::int64_t at = parent.start_ns;
    for (const auto& [name, ns] : kids) {
      const std::int64_t end =
          std::min(parent.end_ns, at + static_cast<std::int64_t>(ns * scale));
      tracer.add(name, note.span, at, end);
      at = end;
    }
  }

  const double rounds = node_rounds(result, n);
  report.kernels = std::move(kb.samples);
  report.kernel_checks = kb.checks;
  report.kernel_mismatches = kb.mismatches;
  report.dwt_calls_per_node_round =
      rounds > 0 ? dwt_calls / rounds : 0.0;
  report.messages_delivered = sink.delivered();
  if (compact) {
    report.state_bytes_per_node = static_cast<double>(store->memory_bytes()) /
                                  static_cast<double>(n);
    report.materialized_fraction =
        static_cast<double>(store->materialized_count()) /
        static_cast<double>(n);
  } else {
    report.state_bytes_per_node = full_state_bytes;
    report.materialized_fraction = 1.0;
  }
  return report;
}

}  // namespace perfbench
