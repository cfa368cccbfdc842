// Random-sampling sparsification baseline (paper §II-B2a): a fixed fraction
// of parameter indices is drawn each round from a shared-seed PRNG, so the
// metadata cost collapses to one 8-byte seed. Aggregation is partial
// weighted averaging in the parameter domain (DlNode's default aggregate()).
#pragma once

#include "algo/node.hpp"
#include "core/sparse_payload.hpp"

namespace jwins::algo {

class RandomSamplingNode final : public DlNode {
 public:
  /// `fraction` of parameters shared per round (the paper uses 37% to match
  /// JWINS' expected budget in the Table-I runs).
  RandomSamplingNode(std::uint32_t rank,
                     std::unique_ptr<nn::SupervisedModel> model,
                     data::Sampler sampler, TrainConfig config, double fraction,
                     std::uint64_t seed_base = 0x5EEDBA5Eull);

  void share(net::Network& network, const graph::Graph& g,
             const graph::MixingWeights& weights, std::uint32_t round,
             core::RoundScratch& scratch) override;

 private:
  double fraction_;
  std::uint64_t seed_base_;
  std::vector<std::uint32_t> indices_;  ///< reused per-round sample buffer
};

}  // namespace jwins::algo
