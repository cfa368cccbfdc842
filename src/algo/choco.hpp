// Memory-efficient CHOCO-SGD (Koloskova, Stich & Jaggi, ICML 2019) with
// TopK compression — the paper's state-of-the-art comparison baseline.
//
// Each node keeps only its own public copy x̂_i and the weighted neighbor
// aggregate s_i = Σ_j w_ij x̂_j (including self), updating both
// incrementally from the exchanged compressed differences q:
//   q_i = TopK(x_i - x̂_i);  broadcast q_i
//   x̂_i += q_i;  s_i += w_ii q_i + Σ_{j∈N} w_ij q_j
//   x_i += γ (s_i - x̂_i)
// The error-feedback state assumes a *static* topology; the paper points out
// (Fig. 7) that CHOCO breaks down when neighbors change every round.
#pragma once

#include "algo/node.hpp"
#include "core/sparse_payload.hpp"

namespace jwins::algo {

class ChocoNode final : public DlNode {
 public:
  /// CHOCO-SGD is defined for arbitrary compressors Q; the paper evaluates
  /// TopK ("it worked better than random sampling"), and QSGD-style
  /// stochastic quantization is provided as the other standard choice.
  enum class Compressor { kTopK, kQsgd };

  struct Options {
    double gamma = 0.6;      ///< consensus step size (the sensitive knob)
    Compressor compressor = Compressor::kTopK;
    double fraction = 0.2;   ///< TopK fraction of parameters per round
    std::uint32_t qsgd_levels = 15;  ///< quantization levels for kQsgd
    core::IndexEncoding index_encoding = core::IndexEncoding::kEliasGamma;
    core::ValueEncoding value_encoding = core::ValueEncoding::kXorCodec;
  };

  ChocoNode(std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
            data::Sampler sampler, TrainConfig config, Options options);

  void share(net::Network& network, const graph::Graph& g,
             const graph::MixingWeights& weights, std::uint32_t round,
             core::RoundScratch& scratch) override;
  void aggregate(net::Network& network, const graph::Graph& g,
                 const graph::MixingWeights& weights, std::uint32_t round,
                 core::RoundScratch& scratch) override;

 private:
  Options options_;
  std::vector<float> x_hat_;  ///< public copy of own model
  std::vector<float> s_;      ///< Σ_j w_ij x̂_j, maintained incrementally
  // Own compressed difference of the current round, applied in aggregate().
  std::vector<std::uint32_t> own_indices_;
  std::vector<float> own_values_;
};

}  // namespace jwins::algo
