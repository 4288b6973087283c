// General matrix multiply: C := alpha * op(A) * op(B) + beta * C, and the
// shared level-3 path (run_level3) that gemm, symm and syrk go through.
//
// Three internal variants (see blas/variant.hpp):
//   - naive     : tiny problems, plain loops;
//   - small-k   : unpacked rank-k update for shallow inner dimensions;
//   - blocked   : BLIS-style packed, cache-blocked path driven by the
//                 runtime-dispatched MR x NR register microkernel
//                 (blas/microkernel.hpp), with beta folded into the first
//                 kc-slab's store instead of a separate scaling sweep.
//
// SYMM and SYRK are the same loops with a different packing rule and store
// (Van Zee & van de Geijn, BLIS, ACM TOMS 2015): SYMM packs its A panels
// straight from the stored lower triangle, and SYRK stores only C's lower
// triangle, skipping row blocks and micro-tiles strictly above the diagonal
// and masking the tiles that cross it. Their naive and small-k variants run
// GEMM's loops per column of C (SYRK) or per rank-1 update (SYMM).
//
// Every call runs serially on its caller's thread; the machine models time
// kernel calls one at a time.
#pragma once

#include <optional>

#include "blas/packing.hpp"
#include "blas/variant.hpp"
#include "la/matrix.hpp"

namespace lamb::blas {

struct GemmOptions {
  BlockSizes blocks;
  /// Bypass select_gemm_variant() and force one internal variant — used by
  /// bm_kernels to measure the crossovers the thresholds are tuned against,
  /// and by experiments correlating variant switches with region boundaries.
  std::optional<GemmVariant> force_variant;
};

/// One product for the shared level-3 path:
///   C := alpha * op(A) * op(B) + beta * C
/// with op(A) read as `read_a` says and op(B) = B^T when `trans_b`. With
/// `lower_c` (SYRK's store, never paired with ReadA::kSymmetric) only C's
/// lower triangle (i >= j) is computed and stored, and its strict upper
/// triangle is never touched.
struct Level3Product {
  ReadA read_a = ReadA::kPlain;
  bool trans_b = false;
  bool lower_c = false;
  double alpha = 1.0;
  la::ConstMatrixView a;
  la::ConstMatrixView b;
  double beta = 0.0;
  la::MatrixView c;
};

/// The loops behind gemm, symm and syrk: variant dispatch, packing and
/// microkernel sweep. It checks no shapes and opens no trace span; its
/// callers do both, each with its own kernel's FLOP count.
void run_level3(const Level3Product& p, const GemmOptions& opts);

/// op(A) is m x k, op(B) is k x n, C is m x n; op = transpose when flagged.
void gemm(bool trans_a, bool trans_b, double alpha, la::ConstMatrixView a,
          la::ConstMatrixView b, double beta, la::MatrixView c,
          const GemmOptions& opts = {});

/// Convenience: C := A * B (no transposes, alpha = 1, beta = 0).
void matmul(la::ConstMatrixView a, la::ConstMatrixView b, la::MatrixView c,
            const GemmOptions& opts = {});

}  // namespace lamb::blas
