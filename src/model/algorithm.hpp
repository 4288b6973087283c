// An algorithm is a named sequence of kernel calls with explicit data flow
// (paper, Sec. 1: "sequences of kernel calls, which might include bits
// between calls to transform data structures, is what we will henceforth
// refer to as algorithms").
//
// Operands form a table: external inputs first, then one temporary per step.
// The builder API (add_gemm/add_syrk/...) derives the call shapes from the
// operand shapes and validates conformance, so an Algorithm is correct by
// construction and can be executed generically (model/executor.hpp).
//
// One built algorithm serves every instance of its expression: rebind()
// gives the externals new shapes. Every size of a step is a size of an
// external (a temporary's sizes are the sizes of the step that made it), so
// the builder records, per step, which external's rows or cols each of the
// call's m, n and k copies, and which pairs of them its conformance rules
// compare. rebind() checks those pairs and copies the sizes by index; the
// rules that depend on no size (lower-only inputs) held when the step was
// built and hold at every shape.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/kernel_call.hpp"
#include "support/hash.hpp"

namespace lamb::model {

struct Operand {
  la::index_t rows = 0;
  la::index_t cols = 0;
  bool external = false;
  /// True when only the lower triangle holds valid data (SYRK output).
  bool lower_only = false;
  std::string name;
};

/// Rows x cols of an external operand, for Algorithm::rebind.
struct Shape {
  la::index_t rows = 0;
  la::index_t cols = 0;
};

/// A size that rebind() copies: the rows or the cols of an external
/// operand, or the constant 0 (a tricopy's k).
struct SizeSource {
  static constexpr std::uint16_t kCols = 2;
  static constexpr std::uint16_t kZero = 1;
  /// External ids a source can name.
  static constexpr int kMaxExternals = 1 << 14;

  /// 4 * external id, plus kCols for its cols; kZero alone for the
  /// constant 0.
  std::uint16_t code = kZero;

  friend bool operator==(SizeSource, SizeSource) = default;
};

struct Step {
  KernelCall call;
  /// Operand ids consumed; a one-input kernel (SYRK, tricopy) leaves the
  /// second at -1. Held inline, so copying a step allocates nothing.
  std::array<int, 2> inputs = {-1, -1};
  int output = -1;  ///< operand id produced
  /// The step's shape table, filled by the builder: the sources of call.m,
  /// call.n and call.k (the output operand is m x n), ...
  std::array<SizeSource, 3> sizes;
  /// ... and the pairs of sizes its conformance rules require equal:
  /// GEMM's inner sizes; the rows and cols of a tricopy's input or of
  /// SYMM's A; SYMM's B rows and A rows. Only pairs of two different
  /// sources are kept, first; a pair of two constant zeros fills the rest.
  std::array<std::array<SizeSource, 2>, 2> equal_sizes;
};

class Algorithm {
 public:
  explicit Algorithm(std::string name = {});

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Register an external input operand; returns its id.
  int add_external(la::index_t rows, la::index_t cols, std::string name);

  /// Append C := op(a) * op(b); returns the id of the product operand.
  int add_gemm(int a, int b, bool trans_a = false, bool trans_b = false,
               std::string name = {});

  /// Append lower(C) := a * a^T; result operand is marked lower-only.
  int add_syrk(int a, std::string name = {});

  /// Append a triangle copy: full(C) := symmetrize(lower(a)).
  int add_tricopy(int a, std::string name = {});

  /// Append C := a_sym * b where a_sym is symmetric (lower triangle read).
  int add_symm(int a_sym, int b, std::string name = {});

  /// Give external i the shape `external_shapes[i]`, and every temporary
  /// and every KernelCall the sizes that the shape table copies from them.
  /// Throws CheckError, naming the step and its kind, when the new shapes
  /// break a conformance rule. Names, structure and signature_hash() do not
  /// change, and nothing is allocated.
  void rebind(std::span<const Shape> external_shapes);

  const std::vector<Operand>& operands() const { return operands_; }
  const std::vector<Step>& steps() const { return steps_; }
  int num_externals() const { return num_externals_; }

  /// Operand id of the final result (output of the last step).
  int result_id() const;

  /// Total FLOP count (paper conventions).
  long long flops() const;

  /// Human-readable one-liner, e.g. "M1:=A*B; M2:=M1*C; X:=M2*D".
  std::string signature() const;

  /// support::hash_string(signature()), kept up to date by the builder, so
  /// hashing an algorithm (e.g. to seed simulated jitter) renders nothing.
  std::uint64_t signature_hash() const;

 private:
  int add_operand(la::index_t rows, la::index_t cols, bool external,
                  bool lower_only, std::string name);
  const Operand& operand(int id) const;
  std::string temp_name(const std::string& hint);
  /// The call a step of `kind` makes on `inputs`, with the builder's shape
  /// rules and conformance checks.
  KernelCall derive_call(KernelKind kind, const std::array<int, 2>& inputs,
                         bool trans_a, bool trans_b) const;
  /// The sources of operand `id`'s rows and cols.
  std::array<SizeSource, 2> shape_sources(int id) const;
  /// Fills `step`'s shape table by derive_call()'s rules.
  void fill_shape_table(Step& step) const;
  /// The size `source` names, at the externals' current shapes.
  la::index_t size_of(SizeSource source) const;
  /// Appends the step and its output operand, and feeds its rendering to
  /// the signature hash.
  int append_step(KernelKind kind, std::array<int, 2> inputs, bool trans_a,
                  bool trans_b, std::string name);
  /// The step's part of signature(), e.g. "M2:=M1*C".
  std::string step_text(const Step& step) const;

  std::string name_;
  std::vector<Operand> operands_;
  std::vector<Step> steps_;
  int num_externals_ = 0;
  /// Running FNV-1a state over the bytes of signature().
  std::uint64_t signature_state_ = support::kFnvOffset;
};

}  // namespace lamb::model
