#include "nn/attention.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/kernels.h"
#include "tensor/ops.h"
#include "util/phaseprof.h"

namespace emmark {

MultiHeadAttention::MultiHeadAttention(const std::string& name, int64_t d_model,
                                       int64_t n_heads, bool use_rope,
                                       int64_t max_seq, bool bias, Rng& rng)
    : d_model_(d_model),
      n_heads_(n_heads),
      head_dim_(d_model / n_heads),
      wq_(name + ".q_proj", d_model, d_model, bias, rng),
      wk_(name + ".k_proj", d_model, d_model, bias, rng),
      wv_(name + ".v_proj", d_model, d_model, bias, rng),
      wo_(name + ".o_proj", d_model, d_model, bias, rng) {
  if (d_model % n_heads != 0) {
    throw TensorError("attention: d_model must be divisible by n_heads");
  }
  if (use_rope) rope_.emplace(head_dim_, max_seq);
}

void MultiHeadAttention::forward(const Tensor& x, int64_t batch, int64_t seq,
                                 Tensor& y) {
  batch_ = batch;
  seq_ = seq;
  wq_.forward(x, q_);
  wk_.forward(x, k_);
  wv_.forward(x, v_);

  {
    phaseprof::ScopedTimer timer(phaseprof::Phase::kAttention);
    if (rope_) {
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t t = 0; t < seq; ++t) {
          float* q_row = q_.data() + (b * seq + t) * d_model_;
          float* k_row = k_.data() + (b * seq + t) * d_model_;
          for (int64_t h = 0; h < n_heads_; ++h) {
            rope_->rotate({q_row + h * head_dim_, static_cast<size_t>(head_dim_)}, t);
            rope_->rotate({k_row + h * head_dim_, static_cast<size_t>(head_dim_)}, t);
          }
        }
      }
    }

    probs_ = Tensor({batch * n_heads_, seq, seq});
    ctx_ = Tensor({batch * seq, d_model_});
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    const kernels::Ops& ops = kernels::active_ops();

    // Per (batch, head): gather the head's K and V slices out of the
    // interleaved [B*T, D] activations once -- K^T as a [head_dim, seq]
    // panel, V as a contiguous [seq, head_dim] block -- then run every
    // query row's score and context sweeps through the dispatched
    // gemm_panel microkernel. Identical FP sequences to the naive loops:
    // scores accumulate over d ascending from an exact 0 (fresh probs_ is
    // zero-filled) with one post-multiply by scale per score, and context
    // accumulates over t2 ascending into the zero-filled ctx_ row. Packing
    // is O(seq * head_dim) against the O(seq^2 * head_dim) multiply it
    // feeds, and buys contiguous panel rows instead of d_model-strided
    // walks over k_/v_.
    std::vector<float> k_panel(static_cast<size_t>(head_dim_ * seq));
    std::vector<float> v_panel(static_cast<size_t>(seq * head_dim_));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t h = 0; h < n_heads_; ++h) {
        const int64_t bh = b * n_heads_ + h;
        for (int64_t t2 = 0; t2 < seq; ++t2) {
          const float* k_row = k_.data() + (b * seq + t2) * d_model_ + h * head_dim_;
          const float* v_row = v_.data() + (b * seq + t2) * d_model_ + h * head_dim_;
          for (int64_t d = 0; d < head_dim_; ++d) k_panel[d * seq + t2] = k_row[d];
          std::memcpy(v_panel.data() + t2 * head_dim_, v_row,
                      static_cast<size_t>(head_dim_) * sizeof(float));
        }
        for (int64_t t1 = 0; t1 < seq; ++t1) {
          const float* q_row = q_.data() + (b * seq + t1) * d_model_ + h * head_dim_;
          float* p_row = probs_.data() + (bh * seq + t1) * seq;
          // causal scores for t2 <= t1: p_row[t2] = <q, k_t2>, then * scale
          ops.gemm_panel_f32(p_row, k_panel.data(), seq, q_row, 1, head_dim_,
                             t1 + 1);
          for (int64_t t2 = 0; t2 <= t1; ++t2) p_row[t2] *= scale;
          softmax_inplace({p_row, static_cast<size_t>(t1 + 1)});
          // masked region stays zero (Tensor() zero-initializes)
          float* c_row = ctx_.data() + (b * seq + t1) * d_model_ + h * head_dim_;
          ops.gemm_panel_f32(c_row, v_panel.data(), head_dim_, p_row, 1, t1 + 1,
                             head_dim_);
        }
      }
    }
  }
  wo_.forward(ctx_, y);
}

void MultiHeadAttention::backward(const Tensor& dy, Tensor& dx) {
  Tensor dctx;
  wo_.backward(dy, dctx);

  Tensor dq({batch_ * seq_, d_model_});
  Tensor dk({batch_ * seq_, d_model_});
  Tensor dv({batch_ * seq_, d_model_});
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<float> dp(static_cast<size_t>(seq_), 0.0f);

  for (int64_t b = 0; b < batch_; ++b) {
    for (int64_t h = 0; h < n_heads_; ++h) {
      const int64_t bh = b * n_heads_ + h;
      for (int64_t t1 = 0; t1 < seq_; ++t1) {
        const float* p_row = probs_.data() + (bh * seq_ + t1) * seq_;
        const float* dctx_row =
            dctx.data() + (b * seq_ + t1) * d_model_ + h * head_dim_;

        // dP[t2] = <dctx, v_t2>; dv_t2 += P[t2] * dctx
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          const float* v_row = v_.data() + (b * seq_ + t2) * d_model_ + h * head_dim_;
          float* dv_row = dv.data() + (b * seq_ + t2) * d_model_ + h * head_dim_;
          float acc = 0.0f;
          const float p = p_row[t2];
          for (int64_t d = 0; d < head_dim_; ++d) {
            acc += dctx_row[d] * v_row[d];
            dv_row[d] += p * dctx_row[d];
          }
          dp[static_cast<size_t>(t2)] = acc;
        }
        // softmax backward: dS = P o (dP - sum(dP o P))
        float dot = 0.0f;
        for (int64_t t2 = 0; t2 <= t1; ++t2) dot += dp[static_cast<size_t>(t2)] * p_row[t2];
        float* dq_row = dq.data() + (b * seq_ + t1) * d_model_ + h * head_dim_;
        const float* q_row = q_.data() + (b * seq_ + t1) * d_model_ + h * head_dim_;
        for (int64_t t2 = 0; t2 <= t1; ++t2) {
          const float ds = p_row[t2] * (dp[static_cast<size_t>(t2)] - dot) * scale;
          const float* k_row = k_.data() + (b * seq_ + t2) * d_model_ + h * head_dim_;
          float* dk_row = dk.data() + (b * seq_ + t2) * d_model_ + h * head_dim_;
          for (int64_t d = 0; d < head_dim_; ++d) {
            dq_row[d] += ds * k_row[d];
            dk_row[d] += ds * q_row[d];
          }
        }
      }
    }
  }

  if (rope_) {
    // Rotation is orthogonal, so the gradient maps back via the inverse
    // rotation at the same position.
    for (int64_t b = 0; b < batch_; ++b) {
      for (int64_t t = 0; t < seq_; ++t) {
        float* dq_row = dq.data() + (b * seq_ + t) * d_model_;
        float* dk_row = dk.data() + (b * seq_ + t) * d_model_;
        for (int64_t h = 0; h < n_heads_; ++h) {
          rope_->rotate_inverse({dq_row + h * head_dim_, static_cast<size_t>(head_dim_)}, t);
          rope_->rotate_inverse({dk_row + h * head_dim_, static_cast<size_t>(head_dim_)}, t);
        }
      }
    }
  }

  Tensor dx_q, dx_k, dx_v;
  wq_.backward(dq, dx_q);
  wk_.backward(dk, dx_k);
  wv_.backward(dv, dx_v);
  dx = std::move(dx_q);
  dx.add_(dx_k);
  dx.add_(dx_v);
}

std::vector<Parameter*> MultiHeadAttention::parameters() {
  std::vector<Parameter*> out;
  for (Linear* l : linears()) {
    for (Parameter* p : l->parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace emmark
