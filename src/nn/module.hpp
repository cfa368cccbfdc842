// Neural network substrate: a layer interface with explicit forward/backward
// passes. Stands in for PyTorch in the original JWINS implementation —
// JWINS itself only ever sees models as flat parameter vectors (paper
// §IV-G b), so any correct SGD substrate exercises the same code paths.
//
// Conventions:
//  * Inputs/outputs are batched row-major tensors; the leading axis is batch.
//  * forward() caches whatever backward() needs; backward() receives
//    dL/d(output) and returns dL/d(input), accumulating parameter gradients.
//  * Parameter gradients accumulate across backward() calls until
//    zero_grad(); the optimizer consumes them via params()/grads().
#pragma once

#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace jwins::nn {

using tensor::Tensor;

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output and caches activations for backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Back-propagates: takes dL/d(output), returns dL/d(input), and
  /// accumulates dL/d(params) into the gradient tensors.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (possibly empty). Order must be stable: the flat
  /// parameter vector layout used by JWINS depends on it.
  virtual std::vector<Tensor*> params() { return {}; }

  /// Gradient tensors, aligned 1:1 with params().
  virtual std::vector<Tensor*> grads() { return {}; }

  void zero_grad() {
    for (Tensor* g : grads()) g->zero();
  }
};

/// Runs a list of modules in order.
class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining via add(...).add(...).
  Sequential& add(std::unique_ptr<Module> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<M>(std::forward<Args>(args)...));
    return *this;
  }

  // The first layer reads the argument itself, so no copy of it is made.
  Tensor forward(const Tensor& input) override {
    if (layers_.empty()) return input;
    Tensor x = layers_.front()->forward(input);
    for (auto it = layers_.begin() + 1; it != layers_.end(); ++it) {
      x = (*it)->forward(x);
    }
    return x;
  }

  Tensor backward(const Tensor& grad_output) override {
    if (layers_.empty()) return grad_output;
    Tensor g = layers_.back()->backward(grad_output);
    for (auto it = layers_.rbegin() + 1; it != layers_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  std::vector<Tensor*> params() override {
    std::vector<Tensor*> out;
    for (auto& layer : layers_) {
      for (Tensor* p : layer->params()) out.push_back(p);
    }
    return out;
  }

  std::vector<Tensor*> grads() override {
    std::vector<Tensor*> out;
    for (auto& layer : layers_) {
      for (Tensor* g : layer->grads()) out.push_back(g);
    }
    return out;
  }

  std::size_t layer_count() const noexcept { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace jwins::nn
