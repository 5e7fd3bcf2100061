#include "partition/decode_attention.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace voltage {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Replaces scores[0..p) with exp(score - m) in place, through one call of
// the vectorized exp kernel, and returns the row max m.
float exp_shifted_scores(float* scores, std::size_t p) {
  float m = kNegInf;
  for (std::size_t j = 0; j < p; ++j) m = std::max(m, scores[j]);
  for (std::size_t j = 0; j < p; ++j) scores[j] -= m;
  detail::exp_span(scores, scores, p);
  return m;
}

}  // namespace

KvBlockPool::KvBlockPool(std::size_t block_floats, std::size_t max_blocks)
    : block_floats_(block_floats), max_blocks_(max_blocks) {
  if (block_floats_ == 0) {
    throw std::invalid_argument("KvBlockPool: zero block size");
  }
}

std::size_t KvBlockPool::allocate() {
  if (!free_.empty()) {
    const std::size_t block = free_.back();
    free_.pop_back();
    ++in_use_;
    return block;
  }
  if (max_blocks_ != 0 && blocks_.size() >= max_blocks_) {
    throw std::length_error("KvBlockPool: out of blocks");
  }
  blocks_.push_back(std::make_unique<float[]>(block_floats_));
  ++in_use_;
  return blocks_.size() - 1;
}

void KvBlockPool::release(std::size_t block) {
  if (block >= blocks_.size()) {
    throw std::out_of_range("KvBlockPool: bad block id");
  }
  free_.push_back(block);
  --in_use_;
}

DecodeLayerCache::DecodeLayerCache(DecodeLayerCache&& other) noexcept {
  *this = std::move(other);
}

DecodeLayerCache& DecodeLayerCache::operator=(
    DecodeLayerCache&& other) noexcept {
  if (this == &other) return *this;
  release();
  resident_ = other.resident_;
  rows_ = other.rows_;
  heads_ = other.heads_;
  head_dim_ = other.head_dim_;
  hidden_ = other.hidden_;
  stride_ = other.stride_;
  rows_per_block_ = other.rows_per_block_;
  pool_ = other.pool_;
  owned_pool_ = std::move(other.owned_pool_);
  blocks_ = std::move(other.blocks_);
  other.pool_ = nullptr;
  other.blocks_.clear();
  other.rows_ = 0;
  return *this;
}

void DecodeLayerCache::release() noexcept {
  if (pool_ != nullptr) {
    for (const std::size_t block : blocks_) pool_->release(block);
  }
  blocks_.clear();
  rows_ = 0;
  pool_ = nullptr;
}

void DecodeLayerCache::init(AttentionOrder resident, const LayerConfig& config,
                            KvBlockPool* pool) {
  release();
  resident_ = resident;
  heads_ = config.heads;
  head_dim_ = config.head_dim;
  hidden_ = config.hidden;
  stride_ = resident_ == AttentionOrder::kNaive ? 2 * heads_ * head_dim_
                                                : hidden_;
  if (pool == nullptr) {
    if (owned_pool_ == nullptr ||
        owned_pool_->block_floats() < kv_block_floats(config)) {
      owned_pool_ = std::make_unique<KvBlockPool>(kv_block_floats(config));
    }
    pool = owned_pool_.get();
  }
  if (pool->block_floats() < stride_) {
    throw std::invalid_argument(
        "DecodeLayerCache: pool blocks narrower than one position row");
  }
  pool_ = pool;
  rows_per_block_ = pool_->block_floats() / stride_;
}

float* DecodeLayerCache::append_row() {
  if (rows_ == blocks_.size() * rows_per_block_) {
    blocks_.push_back(pool_->allocate());
  }
  float* const row = pool_->data(blocks_[rows_ / rows_per_block_]) +
                     (rows_ % rows_per_block_) * stride_;
  ++rows_;
  return row;
}

void DecodeLayerCache::append(const Tensor& block, const AttentionWeights& w) {
  if (block.rows() == 0) return;
  if (block.cols() != hidden_) {
    throw std::invalid_argument("DecodeLayerCache: block width mismatch");
  }
  if (pool_ == nullptr) {
    throw std::logic_error("DecodeLayerCache: append before init");
  }
  const std::size_t m = block.rows();
  const std::size_t fh = head_dim_;
  if (resident_ == AttentionOrder::kNaive) {
    // Project per head exactly as the monolithic path would, then scatter
    // each position's [K_0..K_{H-1} | V_0..V_{H-1}] row into its page.
    std::vector<Tensor> k_new;
    std::vector<Tensor> v_new;
    k_new.reserve(heads_);
    v_new.reserve(heads_);
    for (std::size_t h = 0; h < heads_; ++h) {
      k_new.push_back(matmul(block, w.heads[h].wk));  // m x F_H
      v_new.push_back(matmul(block, w.heads[h].wv));
    }
    for (std::size_t j = 0; j < m; ++j) {
      float* const row = append_row();
      for (std::size_t h = 0; h < heads_; ++h) {
        std::copy_n(k_new[h].row(j).data(), fh, row + h * fh);
        std::copy_n(v_new[h].row(j).data(), fh, row + (heads_ + h) * fh);
      }
    }
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      std::copy_n(block.row(j).data(), hidden_, append_row());
    }
  }
}

void DecodeLayerCache::truncate(std::size_t n) {
  if (n == 0) return;
  if (n > rows_) {
    throw std::out_of_range("DecodeLayerCache: truncate past the beginning");
  }
  rows_ -= n;
  const std::size_t needed =
      (rows_ + rows_per_block_ - 1) / rows_per_block_;
  while (blocks_.size() > needed) {
    pool_->release(blocks_.back());
    blocks_.pop_back();
  }
}

Tensor decode_partial_attention(const Tensor& x_row,
                                const DecodeLayerCache& cache,
                                const AttentionWeights& w,
                                const LayerConfig& config) {
  if (x_row.rows() != 1 || x_row.cols() != config.hidden) {
    throw std::invalid_argument("decode_partial_attention: need one F-row");
  }
  const std::size_t heads = config.heads;
  const std::size_t fh = config.head_dim;
  const float inv_sqrt = 1.0F / std::sqrt(static_cast<float>(fh));
  Tensor packed = softmax_partial_identity(1, heads, fh);
  const std::size_t p = cache.rows_;
  if (p == 0) return packed;

  // Scratch reused across heads: scores over the cached positions, and the
  // reordered path's weighted-x accumulator.
  std::vector<float> scores(p);
  std::vector<float> xsum;

  for (std::size_t h = 0; h < heads; ++h) {
    float* const out = packed.row(0).data() + h * (fh + 2);
    if (cache.resident_ == AttentionOrder::kNaive) {
      // Eq. (3) from the resident K/V: scores = (x W_Q) K^T / sqrt(F_H).
      // Rows resolve through the page table; the per-position float order
      // is identical to contiguous storage, so results stay bitwise equal.
      const Tensor q = matmul(x_row, w.heads[h].wq);  // 1 x F_H
      const float* qd = q.data();
      for (std::size_t j = 0; j < p; ++j) {
        float dot = 0.0F;
        const float* kr = cache.position_row(j) + h * fh;
        for (std::size_t c = 0; c < fh; ++c) dot += qd[c] * kr[c];
        scores[j] = dot * inv_sqrt;
      }
      const float m = exp_shifted_scores(scores.data(), p);
      float denom = 0.0F;
      for (std::size_t j = 0; j < p; ++j) {
        const float e = scores[j];
        denom += e;
        const float* vr = cache.position_row(j) + (heads + h) * fh;
        for (std::size_t c = 0; c < fh; ++c) out[2 + c] += e * vr[c];
      }
      out[0] = m;
      out[1] = denom;
    } else {
      // Eq. (8) from the resident raw rows: scores = ((x W_Q) W_K^T) x_c^T,
      // weighted value = (sum_j e_j x_j) W_V — W_V commutes with the merge
      // sum by linearity, so the partial stays F_H wide on the wire.
      const Tensor qk =
          matmul(matmul(x_row, w.heads[h].wq), w.heads[h].wk, Trans::kNo,
                 Trans::kYes);  // 1 x F
      const float* qd = qk.data();
      const std::size_t f = cache.hidden_;
      for (std::size_t j = 0; j < p; ++j) {
        float dot = 0.0F;
        const float* xr = cache.position_row(j);
        for (std::size_t c = 0; c < f; ++c) dot += qd[c] * xr[c];
        scores[j] = dot * inv_sqrt;
      }
      const float m = exp_shifted_scores(scores.data(), p);
      float denom = 0.0F;
      xsum.assign(f, 0.0F);
      for (std::size_t j = 0; j < p; ++j) {
        const float e = scores[j];
        denom += e;
        const float* xr = cache.position_row(j);
        for (std::size_t c = 0; c < f; ++c) xsum[c] += e * xr[c];
      }
      const Tensor weighted(1, f, std::vector<float>(xsum));
      const Tensor o = matmul(weighted, w.heads[h].wv);  // 1 x F_H
      for (std::size_t c = 0; c < fh; ++c) out[2 + c] = o(0, c);
      out[0] = m;
      out[1] = denom;
    }
  }
  return packed;
}

Tensor decode_window_partial_attention(const Tensor& x_rows,
                                       const std::vector<bool>& owned,
                                       DecodeLayerCache& cache,
                                       const AttentionWeights& w,
                                       const LayerConfig& config) {
  const std::size_t window = x_rows.rows();
  if (window == 0 || x_rows.cols() != config.hidden) {
    throw std::invalid_argument(
        "decode_window_partial_attention: need [W x F] rows");
  }
  if (owned.size() != window) {
    throw std::invalid_argument(
        "decode_window_partial_attention: owned mask / window mismatch");
  }
  const DecodeWindowRef win{
      .begin = 0, .end = window, .owned = &owned, .cache = &cache};
  return decode_windows_partial_attention(
      x_rows, std::span<const DecodeWindowRef>(&win, 1), w, config);
}

Tensor decode_windows_partial_attention(const Tensor& x_rows,
                                        std::span<const DecodeWindowRef> windows,
                                        const AttentionWeights& w,
                                        const LayerConfig& config) {
  const std::size_t rows = x_rows.rows();
  if (rows == 0 || x_rows.cols() != config.hidden) {
    throw std::invalid_argument(
        "decode_windows_partial_attention: need [R x F] rows");
  }
  bool any_reordered = false;
  for (const DecodeWindowRef& win : windows) {
    if (win.begin >= win.end || win.end > rows || win.owned == nullptr ||
        win.cache == nullptr || win.owned->size() != win.end - win.begin) {
      throw std::invalid_argument(
          "decode_windows_partial_attention: malformed window");
    }
    any_reordered |= win.cache->resident() == AttentionOrder::kReordered;
  }
  const std::size_t heads = config.heads;
  const std::size_t fh = config.head_dim;
  const std::size_t f = config.hidden;
  const float inv_sqrt = 1.0F / std::sqrt(static_cast<float>(fh));
  Tensor packed = softmax_partial_identity(rows, heads, fh);

  // Hoisted query-side projections: cache-independent, so one [R x .] GEMM
  // per head covers every window row. Row slices of a GEMM are bitwise
  // equal to the per-row GEMVs they replace.
  std::vector<Tensor> q_all;   // R x F_H per head
  std::vector<Tensor> qk_all;  // R x F per head (reordered windows only)
  q_all.reserve(heads);
  if (any_reordered) qk_all.reserve(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    q_all.push_back(matmul(x_rows, w.heads[h].wq));
    if (any_reordered) {
      qk_all.push_back(
          matmul(q_all[h], w.heads[h].wk, Trans::kNo, Trans::kYes));
    }
  }
  // Reordered rows buffer their weighted-x sums so W_V applies once per
  // head at the end — linearity lets it commute with the row loop, and row
  // slices keep the chains bitwise identical to a per-row projection.
  std::vector<Tensor> xsum_all;
  std::vector<bool> reordered_row(rows, false);
  if (any_reordered) {
    xsum_all.reserve(heads);
    for (std::size_t h = 0; h < heads; ++h) xsum_all.emplace_back(rows, f);
  }

  std::vector<float> scores;
  for (const DecodeWindowRef& win : windows) {
    DecodeLayerCache& cache = *win.cache;
    const bool naive = cache.resident() == AttentionOrder::kNaive;
    for (std::size_t j = win.begin; j < win.end; ++j) {
      // Append-before-attend, in window order: this device's earlier window
      // rows are already resident when row j scores, later ones are not —
      // the causal structure of the window without an explicit mask.
      if ((*win.owned)[j - win.begin]) {
        cache.append(x_rows.slice_rows(j, j + 1), w);
      }
      const std::size_t p = cache.rows();
      if (p == 0) continue;  // the packed row stays the merge identity
      scores.resize(p);
      for (std::size_t h = 0; h < heads; ++h) {
        float* const out = packed.row(j).data() + h * (fh + 2);
        if (naive) {
          const float* qd = q_all[h].row(j).data();
          for (std::size_t r = 0; r < p; ++r) {
            float dot = 0.0F;
            const float* kr = cache.position_row(r) + h * fh;
            for (std::size_t c = 0; c < fh; ++c) dot += qd[c] * kr[c];
            scores[r] = dot * inv_sqrt;
          }
          const float m = exp_shifted_scores(scores.data(), p);
          float denom = 0.0F;
          for (std::size_t r = 0; r < p; ++r) {
            const float e = scores[r];
            denom += e;
            const float* vr = cache.position_row(r) + (heads + h) * fh;
            for (std::size_t c = 0; c < fh; ++c) out[2 + c] += e * vr[c];
          }
          out[0] = m;
          out[1] = denom;
        } else {
          const float* qd = qk_all[h].row(j).data();
          for (std::size_t r = 0; r < p; ++r) {
            float dot = 0.0F;
            const float* xr = cache.position_row(r);
            for (std::size_t c = 0; c < f; ++c) dot += qd[c] * xr[c];
            scores[r] = dot * inv_sqrt;
          }
          const float m = exp_shifted_scores(scores.data(), p);
          float denom = 0.0F;
          float* const xs = xsum_all[h].row(j).data();
          for (std::size_t r = 0; r < p; ++r) {
            const float e = scores[r];
            denom += e;
            const float* xr = cache.position_row(r);
            for (std::size_t c = 0; c < f; ++c) xs[c] += e * xr[c];
          }
          out[0] = m;
          out[1] = denom;
        }
      }
      if (!naive) reordered_row[j] = true;
    }
  }
  if (any_reordered) {
    for (std::size_t h = 0; h < heads; ++h) {
      const Tensor o = matmul(xsum_all[h], w.heads[h].wv);  // R x F_H
      for (std::size_t j = 0; j < rows; ++j) {
        if (!reordered_row[j]) continue;
        float* const out = packed.row(j).data() + h * (fh + 2);
        for (std::size_t c = 0; c < fh; ++c) out[2 + c] = o(j, c);
      }
    }
  }
  return packed;
}

Tensor softmax_partial_identity(std::size_t rows, std::size_t heads,
                                std::size_t head_dim) {
  Tensor packed(rows, softmax_partial_cols(heads, head_dim));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t h = 0; h < heads; ++h) {
      packed(r, h * (head_dim + 2)) = kNegInf;
    }
  }
  return packed;
}

void softmax_merge_inplace(Tensor& acc, const Tensor& incoming,
                           std::size_t heads, std::size_t head_dim) {
  if (!acc.same_shape(incoming) ||
      acc.cols() != softmax_partial_cols(heads, head_dim)) {
    throw std::invalid_argument("softmax_merge: partial shape mismatch");
  }
  const std::size_t stride = head_dim + 2;
  for (std::size_t r = 0; r < acc.rows(); ++r) {
    float* a = acc.row(r).data();
    const float* b = incoming.row(r).data();
    for (std::size_t h = 0; h < heads; ++h, a += stride, b += stride) {
      // Empty partials (denominator 0) are the merge identity; skipping them
      // also keeps exp(-inf - -inf) = NaN out of the all-empty corner.
      if (b[1] == 0.0F) continue;
      if (a[1] == 0.0F) {
        for (std::size_t c = 0; c < stride; ++c) a[c] = b[c];
        continue;
      }
      const float m = std::max(a[0], b[0]);
      const float ea = std::exp(a[0] - m);
      const float eb = std::exp(b[0] - m);
      a[0] = m;
      a[1] = a[1] * ea + b[1] * eb;
      for (std::size_t c = 2; c < stride; ++c) {
        a[c] = a[c] * ea + b[c] * eb;
      }
    }
  }
}

Tensor softmax_merge_concat(const Tensor& merged, std::size_t heads,
                            std::size_t fh) {
  if (merged.cols() != softmax_partial_cols(heads, fh)) {
    throw std::invalid_argument("softmax_merge_finalize: width mismatch");
  }
  Tensor concat(merged.rows(), heads * fh);
  for (std::size_t r = 0; r < merged.rows(); ++r) {
    const float* in = merged.row(r).data();
    float* out = concat.row(r).data();
    for (std::size_t h = 0; h < heads; ++h) {
      const float* triple = in + h * (fh + 2);
      if (triple[1] == 0.0F) {
        throw std::invalid_argument(
            "softmax_merge_finalize: empty merged partial (no device "
            "attended any position)");
      }
      const float inv_denom = 1.0F / triple[1];
      for (std::size_t c = 0; c < fh; ++c) {
        out[h * fh + c] = triple[2 + c] * inv_denom;
      }
    }
  }
  return concat;
}

Tensor softmax_merge_finalize(const Tensor& merged, const AttentionWeights& w,
                              const LayerConfig& config) {
  Tensor out =
      matmul(softmax_merge_concat(merged, config.heads, config.head_dim),
             w.wo);
  add_bias_inplace(out, w.bo);
  return out;
}

}  // namespace voltage
