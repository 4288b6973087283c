#include "blas/gemm.hpp"

#include <algorithm>
#include <vector>

#include "blas/level1.hpp"
#include "blas/microkernel.hpp"
#include "blas/ref_blas.hpp"
#include "blas/variant.hpp"
#include "obs/trace.hpp"

namespace lamb::blas {

namespace {

using la::ConstMatrixView;
using la::index_t;
using la::MatrixView;

double op_at(ConstMatrixView m, bool trans, index_t i, index_t j) {
  return trans ? m(j, i) : m(i, j);
}

/// Unpacked rank-k update: efficient when k is small because A and B rows fit
/// in registers/L1 without packing overhead. C += alpha * op(A) * op(B).
void gemm_small_k(bool trans_a, bool trans_b, double alpha, ConstMatrixView a,
                  ConstMatrixView b, MatrixView c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = trans_a ? a.rows() : a.cols();
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = 0; p < k; ++p) {
      const double bpj = alpha * op_at(b, trans_b, p, j);
      if (!trans_a) {
        const double* acol = &a(0, p);
        double* ccol = &c(0, j);
        for (index_t i = 0; i < m; ++i) {
          ccol[i] += acol[i] * bpj;
        }
      } else {
        for (index_t i = 0; i < m; ++i) {
          c(i, j) += a(p, i) * bpj;
        }
      }
    }
  }
}

/// GEMM's unpacked loops: C := alpha * op(A) * op(B) + beta * C through the
/// naive or the small-k variant.
void gemm_unpacked(GemmVariant variant, bool trans_a, bool trans_b,
                   double alpha, ConstMatrixView a, ConstMatrixView b,
                   double beta, MatrixView c) {
  if (variant == GemmVariant::kNaive) {
    ref_gemm(trans_a, trans_b, alpha, a, b, beta, c);
    return;
  }
  scale_matrix(c, beta);
  gemm_small_k(trans_a, trans_b, alpha, a, b, c);
}

/// Rows [i, i + r) of op(M), as a block of M still read through `trans`.
ConstMatrixView op_rows(ConstMatrixView m, bool trans, index_t i, index_t r) {
  return trans ? m.block(0, i, m.rows(), r) : m.block(i, 0, r, m.cols());
}

/// The naive and small-k variants of a product: GEMM's loops over the whole
/// of C, per column of C's lower triangle, or per rank-1 update of a
/// symmetric A.
void level3_unpacked(GemmVariant variant, const Level3Product& p) {
  const bool trans_a = p.read_a == ReadA::kTransposed;
  const index_t m = p.c.rows();
  const index_t n = p.c.cols();
  if (p.lower_c) {
    for (index_t j = 0; j < std::min(m, n); ++j) {
      gemm_unpacked(variant, trans_a, p.trans_b, p.alpha,
                    op_rows(p.a, trans_a, j, m - j),
                    // Column j of op(B) is row j of its transpose.
                    op_rows(p.b, !p.trans_b, j, 1), p.beta,
                    p.c.block(j, j, m - j, 1));
    }
  } else if (p.read_a == ReadA::kSymmetric) {
    // Column q of the symmetric A is row q of the stored triangle down to
    // the diagonal and column q below it. Update q = 0 reaches every row of
    // C, so it carries beta.
    for (index_t q = 0; q < m; ++q) {
      const ConstMatrixView b_row = op_rows(p.b, p.trans_b, q, 1);
      gemm_unpacked(variant, true, p.trans_b, p.alpha, p.a.block(q, 0, 1, q),
                    b_row, 1.0, p.c.block(0, 0, q, n));
      gemm_unpacked(variant, false, p.trans_b, p.alpha,
                    p.a.block(q, q, m - q, 1), b_row, q == 0 ? p.beta : 1.0,
                    p.c.block(q, 0, m - q, n));
    }
  } else {
    gemm_unpacked(variant, trans_a, p.trans_b, p.alpha, p.a, p.b, p.beta,
                  p.c);
  }
}

index_t inner_dim(const Level3Product& p) {
  return p.read_a == ReadA::kTransposed ? p.a.rows() : p.a.cols();
}

/// Macro-kernel: sweep the micro-panel grid of one packed (mc x kc) A block
/// against one packed (kc x nc) B block, writing the C tiles at
/// (ic.., jc..) directly through the dispatched microkernel. `beta` applies
/// to this slab's store (the caller folds the user's beta into the first
/// kc slab and accumulates the rest). A lower triangle store skips tiles
/// strictly above C's diagonal and masks the ones that cross it.
void macro_kernel(const Microkernel& mk, const Level3Product& p,
                  const double* a_buf, const double* b_buf, index_t kc,
                  index_t mc, index_t nc, double beta, index_t ic,
                  index_t jc) {
  const index_t a_panels = (mc + mk.mr - 1) / mk.mr;
  const index_t b_panels = (nc + mk.nr - 1) / mk.nr;
  const index_t ldc = p.c.ld();
  for (index_t jp = 0; jp < b_panels; ++jp) {
    const double* bp = b_buf + jp * mk.nr * kc;
    const index_t j0 = jp * mk.nr;
    const index_t cols = std::min(mk.nr, nc - j0);
    for (index_t ip = 0; ip < a_panels; ++ip) {
      const double* ap = a_buf + ip * mk.mr * kc;
      const index_t i0 = ip * mk.mr;
      const index_t rows = std::min(mk.mr, mc - i0);
      const index_t diag = p.lower_c ? (jc + j0) - (ic + i0) : kAllRows;
      if (diag >= rows) {
        continue;
      }
      double* ctile = &p.c(ic + i0, jc + j0);
      if (rows == mk.mr && cols == mk.nr && diag <= 1 - cols) {
        mk.fn(kc, p.alpha, ap, bp, beta, ctile, ldc);
      } else {
        microkernel_fringe(mk, kc, p.alpha, ap, bp, beta, ctile, ldc, rows,
                           cols, diag);
      }
    }
  }
}

/// The blocked product over C's column range [j_begin, j_end), applying the
/// user's beta on the first kc slab of each column block. Each (jc, pc) B
/// panel is packed once; the slab's mc row blocks then run inline or, with
/// `row_pool`, split over its workers, each packing its own A blocks
/// (disjoint C rows, no synchronisation) against the shared hot B panel.
/// The row split keeps a pool busy on tall-skinny shapes whose n cannot
/// feed one column stripe per worker.
void gemm_blocked(const Microkernel& mk, const Level3Product& p,
                  const BlockSizes& bs, index_t j_begin, index_t j_end,
                  parallel::ThreadPool* row_pool) {
  const index_t m = p.c.rows();
  const index_t k = inner_dim(p);
  PackBuffer a_buf;  // the inline sweep's; pool workers pack into their own
  PackBuffer b_buf;
  for (index_t jc = j_begin; jc < j_end; jc += bs.nc) {
    const index_t nc = std::min(bs.nc, j_end - jc);
    // A lower triangle store starts at the row block holding C(jc, jc).
    const index_t first = p.lower_c ? jc / bs.mc * bs.mc : 0;
    const auto row_blocks =
        static_cast<std::ptrdiff_t>((m - first + bs.mc - 1) / bs.mc);
    for (index_t pc = 0; pc < k; pc += bs.kc) {
      const index_t kc = std::min(bs.kc, k - pc);
      const double beta_eff = (pc == 0) ? p.beta : 1.0;
      const double* b_panels =
          pack_b(p.trans_b, p.b, pc, jc, kc, nc, mk.nr, b_buf);
      const auto sweep = [&](PackBuffer& own, std::ptrdiff_t rb_begin,
                             std::ptrdiff_t rb_end) {
        for (std::ptrdiff_t rb = rb_begin; rb < rb_end; ++rb) {
          const index_t ic = first + static_cast<index_t>(rb) * bs.mc;
          const index_t mc = std::min(bs.mc, m - ic);
          macro_kernel(mk, p, pack_a(p.read_a, p.a, ic, pc, mc, kc, mk.mr, own),
                       b_panels, kc, mc, nc, beta_eff, ic, jc);
        }
      };
      if (row_pool == nullptr) {
        sweep(a_buf, 0, row_blocks);
      } else {
        row_pool->parallel_for(
            row_blocks, [&](std::ptrdiff_t rb_begin, std::ptrdiff_t rb_end) {
              PackBuffer own;
              sweep(own, rb_begin, rb_end);
            });
      }
    }
  }
}

}  // namespace

std::vector<ColumnStripe> partition_column_stripes(index_t n,
                                                   index_t max_stripes,
                                                   index_t width) {
  LAMB_CHECK(n >= 0, "stripe partition: negative range");
  LAMB_CHECK(max_stripes >= 1, "stripe partition: need at least one stripe");
  LAMB_CHECK(width >= 1, "stripe partition: need a positive panel width");
  std::vector<ColumnStripe> stripes;
  if (n == 0) {
    return stripes;
  }
  // Distribute whole width-blocks, not rounded-up per-stripe widths: rounding
  // `ceil(n / stripes)` up to the panel width used to oversize early stripes
  // and leave trailing stripes empty (n = 65, 8 workers gave 2 of the 9
  // blocks to stripe 0 and none to stripes 5..7). The remainder blocks go to
  // the TRAILING stripes so the clipped final panel lands in a stripe that
  // also carries an extra block — that keeps column widths within one panel
  // of each other in every case.
  const index_t blocks = (n + width - 1) / width;
  const index_t count = std::min(max_stripes, blocks);
  const index_t per = blocks / count;
  const index_t extra = blocks % count;
  stripes.reserve(static_cast<std::size_t>(count));
  index_t block = 0;
  for (index_t s = 0; s < count; ++s) {
    const index_t take = per + (s >= count - extra ? 1 : 0);
    stripes.push_back(ColumnStripe{block * width,
                                   std::min(n, (block + take) * width)});
    block += take;
  }
  return stripes;
}

GemmParallelMode select_gemm_parallel_mode(index_t m, index_t n,
                                           std::size_t pool_size,
                                           const BlockSizes& bs, index_t nr) {
  if (pool_size <= 1 || m == 0 || n == 0) {
    return GemmParallelMode::kSerial;
  }
  const auto workers = static_cast<index_t>(pool_size);
  const index_t col_stripes = std::min(workers, (n + nr - 1) / nr);
  const index_t row_blocks = std::min(workers, (m + bs.mc - 1) / bs.mc);
  // Column stripes are cheaper (one barrier per GEMM, fully independent
  // packing pipelines), so they win whenever n is wide enough to feed every
  // worker — or at least as many workers as row blocks could.
  if (col_stripes >= workers || col_stripes >= row_blocks) {
    return col_stripes > 1 ? GemmParallelMode::kColumnStripes
                           : GemmParallelMode::kSerial;
  }
  return GemmParallelMode::kRowBlocks;
}

void run_level3(const Level3Product& p, const GemmOptions& opts) {
  const index_t m = p.c.rows();
  const index_t n = p.c.cols();
  const index_t k = inner_dim(p);
  if (m == 0 || n == 0) {
    return;
  }
  if (k == 0 || p.alpha == 0.0) {
    // Nothing to multiply: beta scales the stored part of C.
    for (index_t j = 0; j < n; ++j) {
      const index_t first = p.lower_c ? std::min(j, m) : 0;
      scale_matrix(p.c.block(first, j, m - first, 1), p.beta);
    }
    return;
  }
  const GemmVariant variant =
      opts.force_variant.value_or(select_gemm_variant(m, n, k));
  if (variant != GemmVariant::kBlocked) {
    level3_unpacked(variant, p);
    return;
  }

  // Blocked path: beta is folded into the first kc slab's store inside the
  // microkernel (no separate O(m*n) scaling sweep over C).
  const Microkernel& mk = active_microkernel();
  parallel::ThreadPool* pool = opts.pool;
  const std::size_t pool_size = (pool != nullptr) ? pool->size() : 1;
  switch (select_gemm_parallel_mode(m, n, pool_size, opts.blocks, mk.nr)) {
    case GemmParallelMode::kSerial:
      gemm_blocked(mk, p, opts.blocks, 0, n, nullptr);
      return;
    case GemmParallelMode::kRowBlocks:
      gemm_blocked(mk, p, opts.blocks, 0, n, pool);
      return;
    case GemmParallelMode::kColumnStripes:
      break;
  }

  // Parallelise over disjoint column stripes; each stripe owns its packing
  // buffers and a disjoint part of C, so no synchronisation is needed.
  const std::vector<ColumnStripe> stripes = partition_column_stripes(
      n, static_cast<index_t>(pool->size()), mk.nr);
  pool->parallel_for(static_cast<std::ptrdiff_t>(stripes.size()),
                     [&](std::ptrdiff_t s_begin, std::ptrdiff_t s_end) {
    for (std::ptrdiff_t s = s_begin; s < s_end; ++s) {
      const ColumnStripe& stripe = stripes[static_cast<std::size_t>(s)];
      gemm_blocked(mk, p, opts.blocks, stripe.begin, stripe.end, nullptr);
    }
  });
}

void gemm(bool trans_a, bool trans_b, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c,
          const GemmOptions& opts) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = trans_a ? a.rows() : a.cols();
  // One relaxed load when tracing is off; under a sampled trace each gemm
  // shows up as a kernel span in the caller's request tree, carrying its
  // 2mnk flop count so PMU-attributed spans report FLOP-per-cycle.
  const obs::SpanScope kernel_span(
      obs::Stage::kKernel, 2ull * static_cast<std::uint64_t>(m) *
                               static_cast<std::uint64_t>(n) *
                               static_cast<std::uint64_t>(k));
  LAMB_CHECK((trans_a ? a.cols() : a.rows()) == m, "gemm: A shape mismatch");
  LAMB_CHECK((trans_b ? b.cols() : b.rows()) == k, "gemm: B shape mismatch");
  LAMB_CHECK((trans_b ? b.rows() : b.cols()) == n, "gemm: B cols mismatch");
  run_level3({trans_a ? ReadA::kTransposed : ReadA::kPlain, trans_b,
              /*lower_c=*/false, alpha, a, b, beta, c},
             opts);
}

void matmul(ConstMatrixView a, ConstMatrixView b, MatrixView c,
            const GemmOptions& opts) {
  gemm(false, false, 1.0, a, b, 0.0, c, opts);
}

}  // namespace lamb::blas
