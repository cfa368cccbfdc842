#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jwins::nn {

Tensor softmax(const Tensor& logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("softmax: expected [B, C] logits");
  }
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  Tensor probs(logits.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    float* prow = probs.raw() + b * classes;
    const float row_max = *std::max_element(row, row + classes);
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      prow[c] = std::exp(row[c] - row_max);
      denom += prow[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t c = 0; c < classes; ++c) prow[c] *= inv;
  }
  return probs;
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::int32_t> labels) {
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  if (labels.size() != batch) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  Tensor probs = softmax(logits);
  double loss = 0.0;
  Tensor grad = probs;
  const float* pr = probs.raw();
  float* g = grad.raw();
  const float scale = 1.0f / static_cast<float>(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto y = static_cast<std::size_t>(labels[b]);
    if (y >= classes) {
      throw std::out_of_range("softmax_cross_entropy: label out of range");
    }
    const float p = std::max(pr[b * classes + y], 1e-12f);
    loss -= std::log(p);
    g[b * classes + y] -= 1.0f;
  }
  grad *= scale;
  return {static_cast<float>(loss / static_cast<double>(batch)), std::move(grad)};
}

LossResult mse_loss(const Tensor& predictions, const Tensor& targets) {
  if (!predictions.same_shape(targets)) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  const std::size_t n = predictions.size();
  Tensor grad(predictions.shape());
  double loss = 0.0;
  const float scale = 2.0f / static_cast<float>(n);
  const float* pred = predictions.raw();
  const float* target = targets.raw();
  float* g = grad.raw();
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    loss += static_cast<double>(d) * d;
    g[i] = scale * d;
  }
  return {static_cast<float>(loss / static_cast<double>(n)), std::move(grad)};
}

double accuracy(const Tensor& logits, std::span<const std::int32_t> labels) {
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  if (labels.size() != batch || batch == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    const std::size_t pred = static_cast<std::size_t>(
        std::distance(row, std::max_element(row, row + classes)));
    if (pred == static_cast<std::size_t>(labels[b])) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(batch);
}

}  // namespace jwins::nn
