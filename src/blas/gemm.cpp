#include "blas/gemm.hpp"

#include <algorithm>

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

/// The blocked product over all of C, applying the user's beta on the first
/// kc slab of each column block. Each (jc, pc) B panel is packed once and
/// swept by the slab's mc row blocks, each packing its own A block.
void gemm_blocked(const Microkernel& mk, const Level3Product& p,
                  const BlockSizes& bs) {
  const index_t m = p.c.rows();
  const index_t n = p.c.cols();
  const index_t k = inner_dim(p);
  PackBuffer a_buf;
  PackBuffer b_buf;
  for (index_t jc = 0; jc < n; jc += bs.nc) {
    const index_t nc = std::min(bs.nc, n - jc);
    // A lower triangle store starts at the row block holding C(jc, jc).
    const index_t first = p.lower_c ? jc / bs.mc * bs.mc : 0;
    for (index_t pc = 0; pc < k; pc += bs.kc) {
      const index_t kc = std::min(bs.kc, k - pc);
      const double beta_eff = (pc == 0) ? p.beta : 1.0;
      const double* b_panels =
          pack_b(p.trans_b, p.b, pc, jc, kc, nc, mk.nr, b_buf);
      for (index_t ic = first; ic < m; ic += bs.mc) {
        const index_t mc = std::min(bs.mc, m - ic);
        macro_kernel(mk, p, pack_a(p.read_a, p.a, ic, pc, mc, kc, mk.mr, a_buf),
                     b_panels, kc, mc, nc, beta_eff, ic, jc);
      }
    }
  }
}

}  // namespace

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
  gemm_blocked(active_microkernel(), p, opts.blocks);
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
