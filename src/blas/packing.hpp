// Panel packing for the shared level-3 path (run_level3, blas/gemm.hpp).
//
// A-panels are packed into row-major micro-panels of `mr` rows; B-panels into
// column micro-panels of `nr` columns, where (mr, nr) is the geometry of the
// runtime-dispatched microkernel (see blas/microkernel.hpp). Edge panels are
// zero-padded so the microkernel never needs a scalar cleanup path for the
// k-loop.
//
// Copies: the panel width is a compile-time constant (mr 4, 8 or 16; nr 6
// or 8: the scalar, avx2 and avx512 tiers; any other width fails a
// LAMB_CHECK). Plain A and B^T write each packed row p as one full-width
// copy of a contiguous run down a source column; plain B reads its nr source
// columns side by side and writes each packed row contiguously. A^T and the
// mirrored part of a symmetric A read down source columns and write with
// stride mr.
//
// Buffer rule: packing storage belongs to one run_level3 call. A PackBuffer
// only grows, is never initialised (every packed element is written: whole
// micro-panels once, a final partial one row by row, zeroed at full width
// before its valid elements are copied) and is freed when the call returns.
#pragma once

#include <memory>

#include "la/matrix.hpp"

namespace lamb::blas {

inline constexpr la::index_t kMR = 4;  ///< scalar-microkernel rows
inline constexpr la::index_t kNR = 8;  ///< scalar-microkernel cols

/// Cache blocking parameters (double precision, tuned for a ~32K L1 / 1M L2).
struct BlockSizes {
  la::index_t mc = 128;
  la::index_t kc = 256;
  la::index_t nc = 2048;
};

/// Grow-only, uninitialised packing storage.
class PackBuffer {
 public:
  /// Room for `n` doubles; reallocates (discarding the contents) only to
  /// grow.
  double* reserve(la::index_t n);

 private:
  std::unique_ptr<double[]> data_;
  la::index_t capacity_ = 0;
};

/// How pack_a reads element (i, p) of the packed operand from A.
enum class ReadA {
  kPlain,       ///< A(i, p)
  kTransposed,  ///< A(p, i)
  kSymmetric,   ///< A(max(i, p), min(i, p)): A stores a symmetric matrix's
                ///< lower triangle (SYMM)
};

/// Pack op(A)(ic:ic+mc, pc:pc+kc) into `buf` as ceil(mc/mr) micro-panels of
/// mr x kc (zero-padded rows in the final partial panel only), reading op(A)
/// as `read` says. Element (i, p) of the block lands at
/// [(i/mr)*mr*kc + p*mr + i%mr] of the returned panels. `mr` is 4, 8 or 16.
const double* pack_a(ReadA read, la::ConstMatrixView a, la::index_t ic,
                     la::index_t pc, la::index_t mc, la::index_t kc,
                     la::index_t mr, PackBuffer& buf);

/// Pack op(B)(pc:pc+kc, jc:jc+nc) into `buf` as ceil(nc/nr) micro-panels of
/// kc x nr (zero-padded cols in the final partial panel only), where op(B)
/// is B^T when `trans`. Element (p, j) of the block lands at
/// [(j/nr)*nr*kc + p*nr + j%nr]. `nr` is 6 or 8.
const double* pack_b(bool trans, la::ConstMatrixView b, la::index_t pc,
                     la::index_t jc, la::index_t kc, la::index_t nc,
                     la::index_t nr, PackBuffer& buf);

}  // namespace lamb::blas
