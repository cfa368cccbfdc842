#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <string>

#include "algo/choco.hpp"
#include "algo/full_sharing.hpp"
#include "algo/jwins_node.hpp"
#include "algo/power_gossip.hpp"
#include "algo/random_sampling.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "test_util.hpp"

namespace jwins::algo {
namespace {

using jwins::testutil::DummyDataset;
using jwins::testutil::QuadraticModel;
using tensor::Tensor;

constexpr std::size_t kDim = 24;

Tensor node_target(std::size_t rank, std::size_t n) {
  // Spread the per-node optima; global optimum is their mean.
  Tensor t({kDim});
  for (std::size_t i = 0; i < kDim; ++i) {
    t[i] = std::sin(0.3f * static_cast<float>(i + 1) *
                    static_cast<float>(rank + 1)) *
           2.0f;
  }
  (void)n;
  return t;
}

Tensor mean_target(std::size_t n) {
  Tensor mean({kDim});
  for (std::size_t r = 0; r < n; ++r) mean += node_target(r, n);
  mean *= 1.0f / static_cast<float>(n);
  return mean;
}

Tensor node_init(std::size_t rank) {
  std::mt19937 rng(1000 + static_cast<unsigned>(rank));
  return Tensor::normal({kDim}, 0.0f, 1.0f, rng);
}

struct Cluster {
  DummyDataset dataset;
  net::Network network;
  core::RoundScratch scratch;
  graph::Graph graph;
  graph::MixingWeights weights;
  std::vector<std::unique_ptr<DlNode>> nodes;

  explicit Cluster(std::size_t n) : network(n) {
    std::mt19937 rng(7);
    graph = n >= 6 ? graph::random_regular(n, 4, rng) : graph::complete(n);
    weights = graph::metropolis_hastings(graph);
  }

  data::Sampler sampler() const {
    return data::Sampler(dataset, {0, 1, 2, 3}, 4, 1);
  }

  void set_learning_rate(float lr) {
    for (auto& node : nodes) node->set_learning_rate(lr);
  }

  void round(std::uint32_t t, bool train) {
    for (auto& node : nodes) {
      if (train) node->local_train();
    }
    for (auto& node : nodes) node->share(network, graph, weights, t, scratch);
    for (auto& node : nodes) node->aggregate(network, graph, weights, t, scratch);
    network.finish_round(0.0);
  }

  /// Max pairwise distance between node models (consensus residual).
  float disagreement() {
    float worst = 0.0f;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto a = nodes[i]->flat_params();
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        const auto b = nodes[j]->flat_params();
        float d = 0.0f;
        for (std::size_t k = 0; k < a.size(); ++k) {
          d = std::max(d, std::fabs(a[k] - b[k]));
        }
        worst = std::max(worst, d);
      }
    }
    return worst;
  }

  /// Max distance of any node from `point`.
  float distance_to(const Tensor& point) {
    float worst = 0.0f;
    for (auto& node : nodes) {
      const auto x = node->flat_params();
      for (std::size_t k = 0; k < x.size(); ++k) {
        worst = std::max(worst, std::fabs(x[k] - point[k]));
      }
    }
    return worst;
  }
};

TrainConfig no_train_config() {
  TrainConfig cfg;
  cfg.local_steps = 1;
  cfg.sgd.learning_rate = 0.0f;  // pure gossip, no optimization
  return cfg;
}

TrainConfig train_config(float lr) {
  TrainConfig cfg;
  cfg.local_steps = 1;
  cfg.sgd.learning_rate = lr;
  return cfg;
}

// ------------------------------------------------------------ full sharing

TEST(FullSharing, PureGossipReachesConsensusOnMean) {
  const std::size_t n = 8;
  Cluster cluster(n);
  Tensor init_mean({kDim});
  for (std::size_t r = 0; r < n; ++r) {
    auto model = std::make_unique<QuadraticModel>(node_target(r, n), node_init(r));
    init_mean += model->x();
    cluster.nodes.push_back(std::make_unique<FullSharingNode>(
        static_cast<std::uint32_t>(r), std::move(model), cluster.sampler(),
        no_train_config()));
  }
  init_mean *= 1.0f / static_cast<float>(n);
  for (std::uint32_t t = 0; t < 60; ++t) cluster.round(t, /*train=*/false);
  // Doubly-stochastic mixing preserves the mean and contracts disagreement.
  EXPECT_LT(cluster.disagreement(), 1e-3f);
  EXPECT_LT(cluster.distance_to(init_mean), 1e-3f);
}

TEST(FullSharing, DPsgdConvergesToGlobalOptimum) {
  const std::size_t n = 8;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<FullSharingNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), train_config(0.15f)));
  }
  // Constant-step D-PSGD keeps a steady-state disagreement floor
  // proportional to the step size; anneal to converge tightly.
  for (std::uint32_t t = 0; t < 120; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.02f);
  for (std::uint32_t t = 120; t < 220; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.004f);
  for (std::uint32_t t = 220; t < 300; ++t) cluster.round(t, /*train=*/true);
  EXPECT_LT(cluster.distance_to(mean_target(n)), 0.05f);
  EXPECT_LT(cluster.disagreement(), 0.05f);
}

// --------------------------------------------------------- random sampling

TEST(RandomSampling, ConvergesWithPartialSharing) {
  const std::size_t n = 8;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<RandomSamplingNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), train_config(0.15f), /*fraction=*/0.4));
  }
  for (std::uint32_t t = 0; t < 250; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.02f);
  for (std::uint32_t t = 250; t < 450; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.004f);
  for (std::uint32_t t = 450; t < 600; ++t) cluster.round(t, /*train=*/true);
  EXPECT_LT(cluster.distance_to(mean_target(n)), 0.15f);
}

TEST(RandomSampling, MetadataIsOnlyTheSeed) {
  const std::size_t n = 4;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<RandomSamplingNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), no_train_config(), 0.5));
  }
  cluster.round(0, false);
  const auto total = cluster.network.traffic().total();
  // 18 bytes of header+seed metadata per message.
  EXPECT_EQ(total.metadata_bytes_sent, total.messages_sent * 18u);
}

// -------------------------------------------------------------------- jwins

JwinsNode::Options jwins_options() {
  JwinsNode::Options opt;
  opt.ranker.wavelet = "sym2";
  opt.ranker.levels = 4;
  return opt;
}

TEST(Jwins, DenseModeMatchesFullSharingTrajectory) {
  // With alpha fixed at 100%, JWINS shares the dense wavelet vector and the
  // orthonormal transform makes wavelet-domain averaging identical to
  // parameter-domain averaging.
  const std::size_t n = 6;
  Cluster full_cluster(n), jwins_cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    full_cluster.nodes.push_back(std::make_unique<FullSharingNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        full_cluster.sampler(), train_config(0.1f)));
    auto opt = jwins_options();
    opt.cutoff = core::RandomizedCutoff::fixed(1.0);
    jwins_cluster.nodes.push_back(std::make_unique<JwinsNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        jwins_cluster.sampler(), train_config(0.1f), opt));
  }
  for (std::uint32_t t = 0; t < 20; ++t) {
    full_cluster.round(t, true);
    jwins_cluster.round(t, true);
  }
  for (std::size_t r = 0; r < n; ++r) {
    const auto a = full_cluster.nodes[r]->flat_params();
    const auto b = jwins_cluster.nodes[r]->flat_params();
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 2e-3f) << "node " << r << " coord " << k;
    }
  }
}

TEST(Jwins, ConvergesUnderSparsification) {
  const std::size_t n = 8;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<JwinsNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), train_config(0.15f), jwins_options()));
  }
  const float initial_distance = cluster.distance_to(mean_target(n));
  for (std::uint32_t t = 0; t < 250; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.02f);
  for (std::uint32_t t = 250; t < 450; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.004f);
  for (std::uint32_t t = 450; t < 600; ++t) cluster.round(t, /*train=*/true);
  // Partial averaging with per-coordinate renormalization is not exactly
  // mean-preserving, so JWINS converges to a neighborhood of the global
  // optimum rather than the exact mean (this is the paper's small accuracy
  // gap vs full-sharing). Require an order-of-magnitude contraction.
  EXPECT_LT(cluster.distance_to(mean_target(n)), 0.8f);
  EXPECT_LT(cluster.distance_to(mean_target(n)), initial_distance * 0.3f);
  EXPECT_LT(cluster.disagreement(), 0.2f);
}

TEST(Jwins, UsesFewerBytesThanFullSharing) {
  const std::size_t n = 6;
  Cluster full_cluster(n), jwins_cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    full_cluster.nodes.push_back(std::make_unique<FullSharingNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        full_cluster.sampler(), train_config(0.1f)));
    jwins_cluster.nodes.push_back(std::make_unique<JwinsNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        jwins_cluster.sampler(), train_config(0.1f), jwins_options()));
  }
  for (std::uint32_t t = 0; t < 30; ++t) {
    full_cluster.round(t, true);
    jwins_cluster.round(t, true);
  }
  const auto full_bytes = full_cluster.network.traffic().total().bytes_sent;
  const auto jwins_bytes = jwins_cluster.network.traffic().total().bytes_sent;
  EXPECT_LT(jwins_bytes, full_bytes);
}

TEST(Jwins, AlphaSamplesComeFromConfiguredSupport) {
  const std::size_t n = 4;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<JwinsNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), no_train_config(), jwins_options()));
  }
  const std::vector<double> support{0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 1.00};
  for (std::uint32_t t = 0; t < 30; ++t) {
    cluster.round(t, false);
    for (auto& node : cluster.nodes) {
      const double a = static_cast<JwinsNode&>(*node).last_alpha();
      EXPECT_TRUE(std::find(support.begin(), support.end(), a) != support.end())
          << "alpha=" << a;
    }
  }
}

TEST(Jwins, AblationVariantsRun) {
  // All three Figure-8 ablations must be expressible and runnable.
  const std::size_t n = 4;
  for (int variant = 0; variant < 3; ++variant) {
    Cluster cluster(n);
    for (std::size_t r = 0; r < n; ++r) {
      auto opt = jwins_options();
      if (variant == 0) opt.ranker.use_wavelet = false;
      if (variant == 1) opt.ranker.use_accumulation = false;
      if (variant == 2) opt.cutoff = core::RandomizedCutoff::fixed(0.34);
      cluster.nodes.push_back(std::make_unique<JwinsNode>(
          static_cast<std::uint32_t>(r),
          std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
          cluster.sampler(), train_config(0.1f), opt));
    }
    for (std::uint32_t t = 0; t < 50; ++t) cluster.round(t, true);
    EXPECT_LT(cluster.distance_to(mean_target(n)), 1.0f) << "variant " << variant;
  }
}

// -------------------------------------------------------------------- choco

ChocoNode::Options choco_options(double gamma, double fraction) {
  ChocoNode::Options opt;
  opt.gamma = gamma;
  opt.fraction = fraction;
  return opt;
}

TEST(Choco, ConvergesOnQuadratics) {
  const std::size_t n = 8;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<ChocoNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), train_config(0.1f), choco_options(0.5, 0.3)));
  }
  for (std::uint32_t t = 0; t < 300; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.02f);
  for (std::uint32_t t = 300; t < 500; ++t) cluster.round(t, /*train=*/true);
  cluster.set_learning_rate(0.004f);
  for (std::uint32_t t = 500; t < 650; ++t) cluster.round(t, /*train=*/true);
  EXPECT_LT(cluster.distance_to(mean_target(n)), 0.2f);
}

TEST(Choco, PureGossipContractsDisagreement) {
  const std::size_t n = 8;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<ChocoNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), no_train_config(), choco_options(0.6, 0.4)));
  }
  const float before = cluster.disagreement();
  for (std::uint32_t t = 0; t < 200; ++t) cluster.round(t, false);
  EXPECT_LT(cluster.disagreement(), before * 0.05f);
}

TEST(Choco, GammaSensitivity) {
  // The paper reports CHOCO is highly sensitive to gamma: an overly large
  // step size must do visibly worse (or diverge) relative to a tuned one.
  auto run = [&](double gamma) {
    const std::size_t n = 8;
    Cluster cluster(n);
    for (std::size_t r = 0; r < n; ++r) {
      cluster.nodes.push_back(std::make_unique<ChocoNode>(
          static_cast<std::uint32_t>(r),
          std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
          cluster.sampler(), train_config(0.1f), choco_options(gamma, 0.2)));
    }
    for (std::uint32_t t = 0; t < 200; ++t) cluster.round(t, true);
    return cluster.distance_to(mean_target(n));
  };
  const float tuned = run(0.4);
  const float too_large = run(2.5);
  EXPECT_LT(tuned, too_large);
}

TEST(Choco, FractionValidated) {
  Cluster cluster(2);
  EXPECT_THROW(ChocoNode(0,
                         std::make_unique<QuadraticModel>(node_target(0, 2),
                                                          node_init(0)),
                         cluster.sampler(), no_train_config(),
                         choco_options(0.5, 0.0)),
               std::invalid_argument);
}

// ------------------------------------------------------------ cross-cutting

TEST(AllAlgorithms, TrafficSplitsAddUp) {
  const std::size_t n = 4;
  Cluster cluster(n);
  for (std::size_t r = 0; r < n; ++r) {
    cluster.nodes.push_back(std::make_unique<JwinsNode>(
        static_cast<std::uint32_t>(r),
        std::make_unique<QuadraticModel>(node_target(r, n), node_init(r)),
        cluster.sampler(), train_config(0.1f), jwins_options()));
  }
  for (std::uint32_t t = 0; t < 10; ++t) cluster.round(t, true);
  const auto total = cluster.network.traffic().total();
  EXPECT_EQ(total.bytes_sent, total.payload_bytes_sent +
                                  total.metadata_bytes_sent +
                                  total.messages_sent * net::Message::kEnvelopeBytes);
  EXPECT_GT(total.messages_sent, 0u);
}

// ---------------------------------------------------------- staleness decay

// Weighted async mixing fades a contribution tagged s rounds old by
// lambda^s. That must be exactly a reweighting: a node with decay 0.5 that
// aggregates aged messages ends bit-identical to an undecayed node whose
// neighbor mixing weights were pre-multiplied by 0.5^s. (0.5^s is exact in
// IEEE arithmetic, so both sides form the same double weight.)
TEST(StalenessDecay, EqualsReweightedMixing) {
  using core::RobustAggKind;
  const std::size_t n = 6;
  const double lambda = 0.5;
  using Factory = std::function<std::unique_ptr<DlNode>(std::uint32_t,
                                                        const Cluster&)>;
  struct Arm {
    const char* name;
    Factory make;
    std::vector<RobustAggKind> rules;
    /// Sender j's messages are age_step * (j % 3) rounds old. PowerGossip
    /// reads its protocol phase from round parity, so it ages in steps of 2.
    std::uint32_t age_step;
  };
  const auto model = [n](std::uint32_t r) {
    return std::make_unique<QuadraticModel>(node_target(r, n), node_init(r));
  };
  const std::vector<RobustAggKind> all_rules = {
      RobustAggKind::kNone, RobustAggKind::kTrimmedMean, RobustAggKind::kMedian,
      RobustAggKind::kNormClip};
  ChocoNode::Options qsgd = choco_options(0.6, 1.0);
  qsgd.compressor = ChocoNode::Compressor::kQsgd;
  const std::vector<Arm> arms = {
      {"full_sharing",
       [&](std::uint32_t r, const Cluster& c) -> std::unique_ptr<DlNode> {
         return std::make_unique<FullSharingNode>(r, model(r), c.sampler(),
                                                  train_config(0.05f));
       },
       all_rules, 1},
      {"random_sampling",
       [&](std::uint32_t r, const Cluster& c) -> std::unique_ptr<DlNode> {
         return std::make_unique<RandomSamplingNode>(
             r, model(r), c.sampler(), train_config(0.05f), 0.5);
       },
       {RobustAggKind::kNone}, 1},
      {"jwins",
       [&](std::uint32_t r, const Cluster& c) -> std::unique_ptr<DlNode> {
         return std::make_unique<JwinsNode>(r, model(r), c.sampler(),
                                            train_config(0.05f),
                                            jwins_options());
       },
       all_rules, 1},
      {"choco",
       [&](std::uint32_t r, const Cluster& c) -> std::unique_ptr<DlNode> {
         return std::make_unique<ChocoNode>(r, model(r), c.sampler(),
                                            train_config(0.05f),
                                            choco_options(0.6, 0.3));
       },
       all_rules, 1},
      {"choco_qsgd",
       [&](std::uint32_t r, const Cluster& c) -> std::unique_ptr<DlNode> {
         return std::make_unique<ChocoNode>(r, model(r), c.sampler(),
                                            train_config(0.05f), qsgd);
       },
       all_rules, 1},
      {"power_gossip",
       [&](std::uint32_t r, const Cluster& c) -> std::unique_ptr<DlNode> {
         return std::make_unique<PowerGossipNode>(r, model(r), c.sampler(),
                                                  train_config(0.05f),
                                                  PowerGossipNode::Options{});
       },
       {RobustAggKind::kNone, RobustAggKind::kNormClip}, 2},
  };

  for (const Arm& arm : arms) {
    for (const RobustAggKind rule : arm.rules) {
      SCOPED_TRACE(std::string(arm.name) + " / " + core::robust_agg_name(rule));
      core::RobustAggConfig robust;
      robust.kind = rule;
      robust.trim_fraction = 0.25;
      robust.clip_norm = 0.5;
      const auto age = [&](std::size_t sender) {
        return arm.age_step * static_cast<std::uint32_t>(sender % 3);
      };
      // decayed: lambda = 0.5 on the stock weights. reweighted: no decay,
      // w_ij pre-multiplied by 0.5^age(j). plain: neither (vacuity guard).
      Cluster decayed(n), reweighted(n), plain(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& nbrs = reweighted.graph.neighbors(i);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          reweighted.weights.neighbor_weight[i][k] *=
              std::pow(lambda, static_cast<double>(age(nbrs[k])));
        }
      }
      for (Cluster* c : {&decayed, &reweighted, &plain}) {
        for (std::size_t r = 0; r < n; ++r) {
          c->nodes.push_back(arm.make(static_cast<std::uint32_t>(r), *c));
          c->nodes.back()->set_robust_agg(robust);
        }
      }
      for (auto& node : decayed.nodes) node->set_staleness_decay(lambda);
      const std::uint32_t first = 2 * arm.age_step;  // oldest tag is >= 0
      for (Cluster* c : {&decayed, &reweighted, &plain}) {
        for (std::uint32_t t = first; t < first + 8; ++t) {
          for (auto& node : c->nodes) node->local_train();
          for (std::size_t j = 0; j < n; ++j) {
            c->nodes[j]->share(c->network, c->graph, c->weights, t - age(j),
                               c->scratch);
          }
          for (auto& node : c->nodes) {
            node->aggregate(c->network, c->graph, c->weights, t, c->scratch);
          }
          c->network.finish_round(0.0);
        }
      }
      bool decay_mattered = false;
      for (std::size_t r = 0; r < n; ++r) {
        const std::vector<float> x = decayed.nodes[r]->flat_params();
        EXPECT_EQ(x, reweighted.nodes[r]->flat_params()) << "node " << r;
        decay_mattered =
            decay_mattered || x != plain.nodes[r]->flat_params();
      }
      // The weighted mean must move under reweighting; the unweighted
      // median need not.
      if (rule == RobustAggKind::kNone) {
        EXPECT_TRUE(decay_mattered);
      }
    }
  }
}

TEST(DlNode, FlatParamsRoundTrip) {
  Cluster cluster(2);
  FullSharingNode node(0,
                       std::make_unique<QuadraticModel>(node_target(0, 2),
                                                        node_init(0)),
                       cluster.sampler(), no_train_config());
  auto flat = node.flat_params();
  EXPECT_EQ(flat.size(), kDim);
  for (float& v : flat) v += 1.0f;
  node.set_flat_params(flat);
  EXPECT_EQ(node.flat_params(), flat);
}

}  // namespace
}  // namespace jwins::algo
