#include "algo/node.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/flat.hpp"

namespace jwins::algo {

namespace {

/// Salt of the byzantine victim *choice* hash (derive_seed stream tag) —
/// distinct from kByzantineStream (the per-round corruption draws) and from
/// every net::TimeModel salt, so the byzantine set is an independent draw
/// from the crash set.
constexpr std::uint64_t kSaltByzantineChoice = 0xBADC;

}  // namespace

const char* byzantine_mode_name(ByzantineMode mode) {
  switch (mode) {
    case ByzantineMode::kRandom: return "random";
    case ByzantineMode::kSignFlip: return "sign_flip";
    case ByzantineMode::kScale: return "scale";
  }
  return "unknown";
}

std::vector<std::uint32_t> byzantine_victims(std::uint64_t seed,
                                             std::size_t nodes,
                                             std::size_t count) {
  // Mirror of net::TimeModel's crash-set construction: hash every node,
  // sort, take the first `count`. A pure function of (seed, nodes), so the
  // same set is reproducible from config validation, the Experiment wiring,
  // and tests.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    order.emplace_back(core::derive_seed(seed, i, 0, kSaltByzantineChoice),
                       static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end());
  std::vector<std::uint32_t> victims;
  const std::size_t k = std::min(count, nodes);
  victims.reserve(k);
  for (std::size_t i = 0; i < k; ++i) victims.push_back(order[i].second);
  std::sort(victims.begin(), victims.end());
  return victims;
}

DlNode::DlNode(std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
               data::Sampler sampler, TrainConfig config)
    : rank_(rank),
      model_(std::move(model)),
      sampler_(std::move(sampler)),
      config_(config),
      optimizer_(model_->parameters(), model_->gradients(), config.sgd) {}

float DlNode::local_train() {
  double total = 0.0;
  for (std::size_t s = 0; s < config_.local_steps; ++s) {
    const nn::Batch batch = sampler_.next();
    model_->zero_grad();
    total += model_->loss_and_grad(batch);
    optimizer_.step();
  }
  return static_cast<float>(total / static_cast<double>(config_.local_steps));
}

std::vector<float> DlNode::flat_params() {
  return nn::to_flat(model_->parameters());
}

void DlNode::flat_params_into(std::vector<float>& out) {
  out.resize(model_->parameter_count());
  nn::copy_to_flat(model_->parameters(), out);
}

void DlNode::flat_params_into(std::span<float> out) {
  nn::copy_to_flat(model_->parameters(), out);
}

void DlNode::set_flat_params(std::span<const float> flat) {
  nn::copy_from_flat(model_->parameters(), flat);
}

std::size_t DlNode::param_count() { return model_->parameter_count(); }

double DlNode::weight_of(const graph::Graph& g,
                         const graph::MixingWeights& weights,
                         std::uint32_t receiver, std::uint32_t sender) {
  const auto& nbrs = g.neighbors(receiver);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] == sender) return weights.neighbor_weight[receiver][k];
  }
  return 0.0;
}

double DlNode::contribution_weight(const graph::Graph& g,
                                   const graph::MixingWeights& weights,
                                   const net::Message& msg,
                                   std::uint32_t round) const {
  const double base = weight_of(g, weights, rank_, msg.sender);
  // Messages from the current round or ahead of it (possible under free
  // aggregation) carry no staleness; decay applies only to genuinely old
  // tags. Returning the unmultiplied double keeps sync/barrier aggregation
  // bit-identical.
  if (staleness_decay_ >= 1.0 || msg.round >= round) return base;
  return base *
         std::pow(staleness_decay_, static_cast<double>(round - msg.round));
}

void DlNode::corrupt_wire_values(std::span<float> values, std::uint32_t round,
                                 std::uint64_t salt) {
  switch (byzantine_mode_) {
    case ByzantineMode::kSignFlip:
      for (float& v : values) v = -v;
      break;
    case ByzantineMode::kScale: {
      const float k = static_cast<float>(byzantine_scale_);
      for (float& v : values) v *= k;
      break;
    }
    case ByzantineMode::kRandom: {
      // Seeded garbage of roughly unit magnitude, decoupled from the honest
      // values: a fresh counter stream per (node, round, span), so threaded
      // and replayed runs corrupt identically.
      core::CounterRng rng = round_rng(round, kByzantineStream + salt);
      for (float& v : values) {
        v = static_cast<float>((rng() >> 11) * 0x1.0p-53 * 2.0 - 1.0);
      }
      break;
    }
  }
}

void DlNode::average_inbox(net::Network& network, const graph::Graph& g,
                           const graph::MixingWeights& weights,
                           std::uint32_t round, std::span<float> own,
                           core::RoundScratch& scratch) {
  network.drain_into(rank_, scratch.inbox);
  const std::vector<net::Message>& inbox = scratch.inbox;
  for (const net::Message& msg : inbox) {
    core::decode_payload_into(msg.body, scratch.payloads.next(), scratch.arena);
  }
  // Pool references are stable once all payloads are decoded.
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    scratch.contributions.push_back(
        {contribution_weight(g, weights, inbox[i], round),
         &scratch.payloads[i]});
  }
  const double self_weight = weights.self_weight[rank_];
  // robust_partial_average(kNone) forwards to partial_average too; calling
  // it directly keeps the call visible across translation units (the
  // repository benchmark counts it by link-wrapping the symbol).
  if (robust_.kind == core::RobustAggKind::kNone) {
    core::partial_average(own, self_weight, scratch.contributions,
                          scratch.arena);
  } else {
    core::robust_partial_average(robust_, own, self_weight,
                                 scratch.contributions, scratch.arena,
                                 &robust_counters_);
  }
}

void DlNode::aggregate(net::Network& network, const graph::Graph& g,
                       const graph::MixingWeights& weights,
                       std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  const std::span<float> x = scratch.arena.alloc<float>(param_count());
  flat_params_into(x);
  average_inbox(network, g, weights, round, x, scratch);
  set_flat_params(x);
}

}  // namespace jwins::algo
