#include "nn/conv.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/kernel_dispatch.hpp"

namespace jwins::nn {

namespace {

std::size_t conv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                          std::size_t pad) {
  if (in + 2 * pad < kernel) {
    throw std::invalid_argument("convolution kernel larger than padded input");
  }
  return (in + 2 * pad - kernel) / stride + 1;
}

// Lanes per block of the fast tier's channel loops: output channels are
// padded to kLanes, input channels (grad_input's lanes) to kInLanes.
constexpr std::size_t kLanes = 8;
constexpr std::size_t kInLanes = 4;

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

// The kernel taps [lo, hi) of output coordinate `o` whose input coordinate
// o·stride + tap - pad lies inside [0, in), and `first`, the input coordinate
// of tap lo. Signed arithmetic, so no offset ever wraps.
struct TapRange {
  std::size_t lo = 0, hi = 0, first = 0;
};

TapRange tap_range(std::size_t o, std::size_t in, std::size_t kernel,
                   std::size_t stride, std::size_t pad) {
  const std::ptrdiff_t start =
      static_cast<std::ptrdiff_t>(o * stride) - static_cast<std::ptrdiff_t>(pad);
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -start);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(kernel), static_cast<std::ptrdiff_t>(in) - start);
  if (hi <= lo) return {};
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
          static_cast<std::size_t>(start + lo)};
}

// The outputs [lo, hi) along an axis of `out` outputs whose tap `tap` reads
// an input coordinate o·stride + tap - pad inside [0, in).
struct OutRange {
  std::size_t lo = 0, hi = 0;
};

OutRange out_range(std::size_t tap, std::size_t in, std::size_t out,
                   std::size_t stride, std::size_t pad) {
  if (tap >= in + pad) return {};
  const std::size_t lo = pad > tap ? (pad - tap + stride - 1) / stride : 0;
  const std::size_t hi = std::min(out, (in - 1 + pad - tap) / stride + 1);
  return lo < hi ? OutRange{lo, hi} : OutRange{};
}

// g·x, or -0.0f where g == 0: adding -0.0f leaves every float as it is, so
// such a lane matches the reference's skipped term bit for bit.
inline float kept(float g, float x) {
  const std::uint32_t keep = g != 0.0f ? ~0u : 0u;
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(g * x) & keep) |
                              (~keep & 0x80000000u));
}

// The lane kernels of the fast tier. Each adds its terms to acc[j] one at a
// time in argument order; a pass of four terms only saves loads and stores.
// Fixed trip counts and __restrict let the compiler vectorize them across j.

void add4(double* __restrict acc, const double* __restrict w0,
          const double* __restrict w1, const double* __restrict w2,
          const double* __restrict w3, double x0, double x1, double x2,
          double x3) {
  for (std::size_t j = 0; j < kLanes; ++j) {
    acc[j] = acc[j] + x0 * w0[j] + x1 * w1[j] + x2 * w2[j] + x3 * w3[j];
  }
}

void add1(double* __restrict acc, const double* __restrict w0, double x0) {
  for (std::size_t j = 0; j < kLanes; ++j) acc[j] += x0 * w0[j];
}

// As add4/add1 in float with g rows for w, where a lane whose g is zero
// adds nothing, as the reference skips that term.
void add4_kept(float* __restrict acc, const float* __restrict g0,
               const float* __restrict g1, const float* __restrict g2,
               const float* __restrict g3, float x0, float x1, float x2,
               float x3) {
  for (std::size_t j = 0; j < kLanes; ++j) {
    acc[j] = acc[j] + kept(g0[j], x0) + kept(g1[j], x1) + kept(g2[j], x2) +
             kept(g3[j], x3);
  }
}

void add1_kept(float* __restrict acc, const float* __restrict g0, float x0) {
  for (std::size_t j = 0; j < kLanes; ++j) acc[j] += kept(g0[j], x0);
}

// acc[m] += g·w[m] for m < len, len a multiple of kInLanes.
void add_scaled(float* __restrict acc, const float* __restrict w, float g,
                std::size_t len) {
  for (std::size_t m = 0; m < len; m += kInLanes) {
    for (std::size_t j = 0; j < kInLanes; ++j) acc[m + j] += g * w[m + j];
  }
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

Tensor Conv2d::forward(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv2d: expected [B, " + std::to_string(in_ch_) +
                                ", H, W], got " + tensor::to_string(input.shape()));
  }
  cached_input_ = input;
  Tensor out({input.dim(0), out_ch_,
              conv_out_size(input.dim(2), kernel_, stride_, pad_),
              conv_out_size(input.dim(3), kernel_, stride_, pad_)});
  if (core::KernelDispatch::fast()) {
    forward_fast(input, out);
  } else {
    forward_scalar(input, out);
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (grad_output.rank() != 4 || grad_output.dim(0) != input.dim(0) ||
      grad_output.dim(1) != out_ch_ ||
      grad_output.dim(2) != conv_out_size(input.dim(2), kernel_, stride_, pad_) ||
      grad_output.dim(3) != conv_out_size(input.dim(3), kernel_, stride_, pad_)) {
    throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
  }
  Tensor grad_input(input.shape());
  if (core::KernelDispatch::fast()) {
    backward_fast(grad_output, grad_input);
  } else {
    backward_scalar(grad_output, grad_input);
  }
  return grad_input;
}

// --- Scalar reference: the direct loops -----------------------------------

void Conv2d::forward_scalar(const Tensor& input, Tensor& out) const {
  const std::size_t batch = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = out.dim(2), ow = out.dim(3);
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
}

void Conv2d::backward_scalar(const Tensor& grad_output, Tensor& grad_input) {
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
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
}

// --- Fast tier: the same sums, vectorized across channels -----------------
//
// Order contract (each must match the loops above bit for bit):
//  * y: a double sum starting at the bias and adding double(x)·double(w) over
//    the valid taps in (ic, kr, kc) order. Padded taps are skipped, never fed
//    as zeros: a ±0 product would turn a -0.0f bias into +0.0f.
//  * grad_weight, grad_bias: float sums in (b, r, c) order, skipping g == 0.
//  * grad_input: a float sum in (oc, r, c) order, skipping g == 0. An
//    im2col + col2im GEMM would reduce over oc per position first and so
//    reorder this sum.
// The independent sums of neighbouring channels fill the vector lanes: the
// lane loops have a fixed trip count, so the compiler unrolls and vectorizes
// them at the default ISA. Where a loop adds four terms per pass, they still
// add one at a time in order; the pass only saves loads and stores.

void Conv2d::forward_fast(const Tensor& input, Tensor& out) {
  const std::size_t batch = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = out.dim(2), ow = out.dim(3), ohw = oh * ow;
  const std::size_t taps = in_ch_ * kernel_ * kernel_;
  const std::size_t ocp = round_up(out_ch_, kLanes);
  const std::size_t plane = ih * iw, sample = in_ch_ * plane;
  const float* x = input.raw();
  const float* w = weight_.raw();
  const float* bias = bias_.raw();
  float* y = out.raw();
  // float -> double is exact, so the products equal the reference's.
  fwd_weight_.assign(taps * ocp, 0.0);
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t t = 0; t < taps; ++t) {
      fwd_weight_[t * ocp + oc] = w[oc * taps + t];
    }
  }
  const double* wt = fwd_weight_.data();
  taps_.reserve(taps);
  for (std::size_t r = 0; r < oh; ++r) {
    const TapRange rows = tap_range(r, ih, kernel_, stride_, pad_);
    for (std::size_t c = 0; c < ow; ++c) {
      const TapRange cols = tap_range(c, iw, kernel_, stride_, pad_);
      // The valid taps of this position in (ic, kr, kc) order, as offsets
      // into one sample's input and into fwd_weight_.
      taps_.clear();
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        for (std::size_t kr = rows.lo; kr < rows.hi; ++kr) {
          for (std::size_t kc = cols.lo; kc < cols.hi; ++kc) {
            taps_.push_back({ic * plane + (rows.first + kr - rows.lo) * iw +
                                 cols.first + kc - cols.lo,
                             ((ic * kernel_ + kr) * kernel_ + kc) * ocp});
          }
        }
      }
      const std::size_t n = taps_.size();
      for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * sample;
        float* yb = y + b * out_ch_ * ohw + r * ow + c;
        for (std::size_t oc0 = 0; oc0 < ocp; oc0 += kLanes) {
          double acc[kLanes];
          for (std::size_t j = 0; j < kLanes; ++j) {
            acc[j] = oc0 + j < out_ch_ ? bias[oc0 + j] : 0.0;
          }
          const TapOffsets* tp = taps_.data();
          std::size_t t = 0;
          for (; t + 4 <= n; t += 4) {
            add4(acc, wt + tp[t].w + oc0, wt + tp[t + 1].w + oc0,
                 wt + tp[t + 2].w + oc0, wt + tp[t + 3].w + oc0, xb[tp[t].x],
                 xb[tp[t + 1].x], xb[tp[t + 2].x], xb[tp[t + 3].x]);
          }
          for (; t < n; ++t) add1(acc, wt + tp[t].w + oc0, xb[tp[t].x]);
          const std::size_t lanes = std::min(kLanes, out_ch_ - oc0);
          for (std::size_t j = 0; j < lanes; ++j) {
            yb[(oc0 + j) * ohw] = static_cast<float>(acc[j]);
          }
        }
      }
    }
  }
}

void Conv2d::backward_fast(const Tensor& grad_output, Tensor& grad_input) {
  const Tensor& input = cached_input_;
  const std::size_t batch = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const std::size_t kk = kernel_ * kernel_, taps = in_ch_ * kk;
  const std::size_t ohw = oh * ow, plane = ih * iw, sample = in_ch_ * plane;
  const std::size_t ocp = round_up(out_ch_, kLanes);
  const std::size_t icp = round_up(in_ch_, kInLanes);
  const float* x = input.raw();
  const float* w = weight_.raw();
  const float* gy = grad_output.raw();
  float* gx = grad_input.raw();
  float* gw = grad_weight_.raw();
  float* gb = grad_bias_.raw();

  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t b = 0; b < batch; ++b) {
      const float* g = gy + (b * out_ch_ + oc) * ohw;
      for (std::size_t i = 0; i < ohw; ++i) {
        if (g[i] != 0.0f) gb[oc] += g[i];
      }
    }
  }

  // Transposed copies: grad_weight_ as [tap][oc], copied back at the end so
  // a second backward() without zero_grad() continues its sums, and
  // weight_ as [oc][k·k][ic].
  grad_weight_t_.assign(taps * ocp, 0.0f);
  bwd_weight_.assign(out_ch_ * kk * icp, 0.0f);
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t ic = 0; ic < in_ch_; ++ic) {
      for (std::size_t t = 0; t < kk; ++t) {
        grad_weight_t_[(ic * kk + t) * ocp + oc] = gw[(oc * in_ch_ + ic) * kk + t];
        bwd_weight_[(oc * kk + t) * icp + ic] = w[(oc * in_ch_ + ic) * kk + t];
      }
    }
  }
  // The positions reading each kernel tap (kr, kc), in (r, c) order, as
  // offsets into an input plane and into grad_out_t_; tap t's run starts
  // at tap_start_[t].
  taps_.clear();
  taps_.reserve(kk * ohw);
  tap_start_.clear();
  tap_start_.reserve(kk + 1);
  for (std::size_t kr = 0; kr < kernel_; ++kr) {
    const OutRange rows = out_range(kr, ih, oh, stride_, pad_);
    for (std::size_t kc = 0; kc < kernel_; ++kc) {
      const OutRange cols = out_range(kc, iw, ow, stride_, pad_);
      tap_start_.push_back(taps_.size());
      for (std::size_t r = rows.lo; r < rows.hi; ++r) {
        for (std::size_t c = cols.lo; c < cols.hi; ++c) {
          taps_.push_back({(r * stride_ + kr - pad_) * iw + c * stride_ + kc - pad_,
                           (r * ow + c) * ocp});
        }
      }
    }
  }
  tap_start_.push_back(taps_.size());
  grad_out_t_.assign(ohw * ocp, 0.0f);
  grad_in_t_.resize(plane * icp);

  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x + b * sample;
    const float* gyb = gy + b * out_ch_ * ohw;

    // grad_weight: per tap, this sample's positions in (r, c) order, with
    // grad_output as [r·c][oc].
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t i = 0; i < ohw; ++i) {
        grad_out_t_[i * ocp + oc] = gyb[oc * ohw + i];
      }
    }
    const float* gt = grad_out_t_.data();
    for (std::size_t t = 0; t < kk; ++t) {
      const TapOffsets* tp = taps_.data() + tap_start_[t];
      const std::size_t n = tap_start_[t + 1] - tap_start_[t];
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        const float* xc = xb + ic * plane;
        float* row = grad_weight_t_.data() + (ic * kk + t) * ocp;
        for (std::size_t oc0 = 0; oc0 < ocp; oc0 += kLanes) {
          float* acc = row + oc0;
          const float* g = gt + oc0;
          std::size_t i = 0;
          for (; i + 4 <= n; i += 4) {
            const float* g0 = g + tp[i].w;
            const float* g1 = g + tp[i + 1].w;
            const float* g2 = g + tp[i + 2].w;
            const float* g3 = g + tp[i + 3].w;
            const float x0 = xc[tp[i].x], x1 = xc[tp[i + 1].x],
                        x2 = xc[tp[i + 2].x], x3 = xc[tp[i + 3].x];
            add4_kept(acc, g0, g1, g2, g3, x0, x1, x2, x3);
          }
          for (; i < n; ++i) add1_kept(acc, g + tp[i].w, xc[tp[i].x]);
        }
      }
    }

    // grad_input in a [pixel][ic] copy. Each (oc, r, c) adds g·w to the
    // pixels of its valid taps; one kernel row of taps covers neighbouring
    // pixels, so its [kc][ic] weights and [pixel][ic] sums are one span each.
    std::fill(grad_in_t_.begin(), grad_in_t_.end(), 0.0f);
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t r = 0; r < oh; ++r) {
        const TapRange rows = tap_range(r, ih, kernel_, stride_, pad_);
        for (std::size_t c = 0; c < ow; ++c) {
          const float g = gyb[oc * ohw + r * ow + c];
          if (g == 0.0f) continue;
          const TapRange cols = tap_range(c, iw, kernel_, stride_, pad_);
          const std::size_t len = (cols.hi - cols.lo) * icp;
          for (std::size_t kr = rows.lo; kr < rows.hi; ++kr) {
            add_scaled(grad_in_t_.data() +
                           ((rows.first + kr - rows.lo) * iw + cols.first) * icp,
                       bwd_weight_.data() + (oc * kk + kr * kernel_ + cols.lo) * icp,
                       g, len);
          }
        }
      }
    }
    float* gxb = gx + b * sample;
    for (std::size_t ic = 0; ic < in_ch_; ++ic) {
      for (std::size_t i = 0; i < plane; ++i) {
        gxb[ic * plane + i] = grad_in_t_[i * icp + ic];
      }
    }
  }

  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t t = 0; t < taps; ++t) {
      gw[oc * taps + t] = grad_weight_t_[t * ocp + oc];
    }
  }
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
  const float* gamma = gamma_.raw();
  const float* beta = beta_.raw();
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
          y[coff + i] = gamma[ch] * xh[coff + i] + beta[ch];
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
  const float* gamma = gamma_.raw();
  float* gx = grad_input.raw();
  float* grad_gamma = grad_gamma_.raw();
  float* grad_beta = grad_beta_.raw();
  // Per-channel affine gradients.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < channels_; ++ch) {
      const std::size_t coff = (b * channels_ + ch) * h * w;
      for (std::size_t i = 0; i < h * w; ++i) {
        grad_gamma[ch] += gy[coff + i] * xh[coff + i];
        grad_beta[ch] += gy[coff + i];
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
          const double dxhat = static_cast<double>(gy[coff + i]) * gamma[ch];
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
          const double dxhat = static_cast<double>(gy[coff + i]) * gamma[ch];
          gx[coff + i] = static_cast<float>(
              inv_std * (dxhat - mean_dxhat - xh[coff + i] * mean_dxhat_xhat));
        }
      }
    }
  }
  return grad_input;
}

}  // namespace jwins::nn
