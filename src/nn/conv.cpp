#include "nn/conv.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace jwins::nn {

namespace {

std::size_t conv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                          std::size_t pad) {
  if (in + 2 * pad < kernel) {
    throw std::invalid_argument("convolution kernel larger than padded input");
  }
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               std::mt19937& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: kernel and stride must be positive");
  }
  const float fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = 1.0f / std::sqrt(fan_in);
  weight_ = Tensor::uniform(weight_.shape(), -bound, bound, rng);
  bias_ = Tensor::uniform({out_channels}, -bound, bound, rng);
}

// forward() and backward() start on a cache-line boundary for the reason
// given at compress::topk_indices_into_fast: left to the linker, a 32-byte
// shift of these direct loops measured ~4% slower end to end on the fig5
// cifar workload (Xeon host).
[[gnu::aligned(64)]] Tensor Conv2d::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv2d: expected [B, " + std::to_string(in_ch_) +
                                ", H, W], got " + tensor::to_string(input.shape()));
  }
  cached_input_ = input;
  const std::size_t batch = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = conv_out_size(ih, kernel_, stride_, pad_);
  const std::size_t ow = conv_out_size(iw, kernel_, stride_, pad_);
  Tensor out({batch, out_ch_, oh, ow});
  const float* x = input.raw();
  const float* w = weight_.raw();
  float* y = out.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float bias = bias_[oc];
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          double acc = bias;
          for (std::size_t ic = 0; ic < in_ch_; ++ic) {
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
              const std::ptrdiff_t in_r =
                  static_cast<std::ptrdiff_t>(r * stride_ + kr) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (in_r < 0 || in_r >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < kernel_; ++kc) {
                const std::ptrdiff_t in_c =
                    static_cast<std::ptrdiff_t>(c * stride_ + kc) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (in_c < 0 || in_c >= static_cast<std::ptrdiff_t>(iw)) continue;
                const float xv = x[((b * in_ch_ + ic) * ih +
                                    static_cast<std::size_t>(in_r)) * iw +
                                   static_cast<std::size_t>(in_c)];
                const float wv = w[((oc * in_ch_ + ic) * kernel_ + kr) * kernel_ + kc];
                acc += static_cast<double>(xv) * wv;
              }
            }
          }
          y[((b * out_ch_ + oc) * oh + r) * ow + c] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

[[gnu::aligned(64)]] Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  if (grad_output.dim(0) != batch || grad_output.dim(1) != out_ch_) {
    throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
  }
  Tensor grad_input(input.shape());
  const float* x = input.raw();
  const float* w = weight_.raw();
  const float* gy = grad_output.raw();
  float* gx = grad_input.raw();
  float* gw = grad_weight_.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const float g = gy[((b * out_ch_ + oc) * oh + r) * ow + c];
          if (g == 0.0f) continue;
          grad_bias_[oc] += g;
          for (std::size_t ic = 0; ic < in_ch_; ++ic) {
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
              const std::ptrdiff_t in_r =
                  static_cast<std::ptrdiff_t>(r * stride_ + kr) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (in_r < 0 || in_r >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < kernel_; ++kc) {
                const std::ptrdiff_t in_c =
                    static_cast<std::ptrdiff_t>(c * stride_ + kc) -
                    static_cast<std::ptrdiff_t>(pad_);
                if (in_c < 0 || in_c >= static_cast<std::ptrdiff_t>(iw)) continue;
                const std::size_t xi = ((b * in_ch_ + ic) * ih +
                                        static_cast<std::size_t>(in_r)) * iw +
                                       static_cast<std::size_t>(in_c);
                const std::size_t wi =
                    ((oc * in_ch_ + ic) * kernel_ + kr) * kernel_ + kc;
                gw[wi] += g * x[xi];
                gx[xi] += g * w[wi];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("MaxPool2d: kernel and stride must be positive");
  }
}

Tensor MaxPool2d::forward(const Tensor& input) {
  if (input.rank() != 4) {
    throw std::invalid_argument("MaxPool2d: expected [B, C, H, W]");
  }
  cached_in_shape_ = input.shape();
  const std::size_t batch = input.dim(0), ch = input.dim(1), ih = input.dim(2),
                    iw = input.dim(3);
  const std::size_t oh = conv_out_size(ih, kernel_, stride_, 0);
  const std::size_t ow = conv_out_size(iw, kernel_, stride_, 0);
  Tensor out({batch, ch, oh, ow});
  argmax_.assign(out.size(), 0);
  const float* x = input.raw();
  float* y = out.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t cch = 0; cch < ch; ++cch) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t kr = 0; kr < kernel_; ++kr) {
            const std::size_t in_r = r * stride_ + kr;
            if (in_r >= ih) continue;
            for (std::size_t kc = 0; kc < kernel_; ++kc) {
              const std::size_t in_c = c * stride_ + kc;
              if (in_c >= iw) continue;
              const std::size_t xi = ((b * ch + cch) * ih + in_r) * iw + in_c;
              if (x[xi] > best) {
                best = x[xi];
                best_idx = xi;
              }
            }
          }
          const std::size_t yi = ((b * ch + cch) * oh + r) * ow + c;
          y[yi] = best;
          argmax_[yi] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: grad shape mismatch");
  }
  Tensor grad_input(cached_in_shape_);
  float* gx = grad_input.raw();
  const float* gy = grad_output.raw();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gx[argmax_[i]] += gy[i];
  return grad_input;
}

GroupNorm::GroupNorm(std::size_t groups, std::size_t channels, float eps)
    : groups_(groups),
      channels_(channels),
      eps_(eps),
      gamma_({channels}, 1.0f),
      beta_({channels}),
      grad_gamma_({channels}),
      grad_beta_({channels}) {
  if (groups == 0 || channels % groups != 0) {
    throw std::invalid_argument("GroupNorm: channels must be divisible by groups");
  }
}

Tensor GroupNorm::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument("GroupNorm: expected [B, " +
                                std::to_string(channels_) + ", H, W]");
  }
  cached_in_shape_ = input.shape();
  const std::size_t batch = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t ch_per_group = channels_ / groups_;
  const std::size_t group_size = ch_per_group * h * w;
  Tensor xhat(input.shape());
  cached_inv_std_.assign(batch * groups_, 0.0f);
  const float* x = input.raw();
  float* xh = xhat.raw();
  Tensor out(input.shape());
  float* y = out.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t base = (b * channels_ + g * ch_per_group) * h * w;
      double mean = 0.0;
      for (std::size_t i = 0; i < group_size; ++i) mean += x[base + i];
      mean /= static_cast<double>(group_size);
      double var = 0.0;
      for (std::size_t i = 0; i < group_size; ++i) {
        const double d = x[base + i] - mean;
        var += d * d;
      }
      var /= static_cast<double>(group_size);
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      cached_inv_std_[b * groups_ + g] = inv_std;
      for (std::size_t i = 0; i < group_size; ++i) {
        xh[base + i] = (x[base + i] - static_cast<float>(mean)) * inv_std;
      }
      for (std::size_t cc = 0; cc < ch_per_group; ++cc) {
        const std::size_t ch = g * ch_per_group + cc;
        const std::size_t coff = (b * channels_ + ch) * h * w;
        for (std::size_t i = 0; i < h * w; ++i) {
          y[coff + i] = gamma_[ch] * xh[coff + i] + beta_[ch];
        }
      }
    }
  }
  cached_xhat_ = std::move(xhat);
  return out;
}

Tensor GroupNorm::backward(const Tensor& grad_output) {
  const std::size_t batch = cached_in_shape_[0], h = cached_in_shape_[2],
                    w = cached_in_shape_[3];
  const std::size_t ch_per_group = channels_ / groups_;
  const std::size_t group_size = ch_per_group * h * w;
  Tensor grad_input(cached_in_shape_);
  const float* gy = grad_output.raw();
  const float* xh = cached_xhat_.raw();
  float* gx = grad_input.raw();
  // Per-channel affine gradients.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < channels_; ++ch) {
      const std::size_t coff = (b * channels_ + ch) * h * w;
      for (std::size_t i = 0; i < h * w; ++i) {
        grad_gamma_[ch] += gy[coff + i] * xh[coff + i];
        grad_beta_[ch] += gy[coff + i];
      }
    }
  }
  // Input gradient. With dxhat = gy * gamma(channel):
  // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const float inv_std = cached_inv_std_[b * groups_ + g];
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (std::size_t cc = 0; cc < ch_per_group; ++cc) {
        const std::size_t ch = g * ch_per_group + cc;
        const std::size_t coff = (b * channels_ + ch) * h * w;
        for (std::size_t i = 0; i < h * w; ++i) {
          const double dxhat = static_cast<double>(gy[coff + i]) * gamma_[ch];
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xh[coff + i];
        }
      }
      const double m = static_cast<double>(group_size);
      const double mean_dxhat = sum_dxhat / m;
      const double mean_dxhat_xhat = sum_dxhat_xhat / m;
      for (std::size_t cc = 0; cc < ch_per_group; ++cc) {
        const std::size_t ch = g * ch_per_group + cc;
        const std::size_t coff = (b * channels_ + ch) * h * w;
        for (std::size_t i = 0; i < h * w; ++i) {
          const double dxhat = static_cast<double>(gy[coff + i]) * gamma_[ch];
          gx[coff + i] = static_cast<float>(
              inv_std * (dxhat - mean_dxhat - xh[coff + i] * mean_dxhat_xhat));
        }
      }
    }
  }
  return grad_input;
}

}  // namespace jwins::nn
