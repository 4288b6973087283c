// An algorithm is a named sequence of kernel calls with explicit data flow
// (paper, Sec. 1: "sequences of kernel calls, which might include bits
// between calls to transform data structures, is what we will henceforth
// refer to as algorithms").
//
// Operands form a table: external inputs first, then one temporary per step.
// The builder API (add_gemm/add_syrk/...) derives the call shapes from the
// operand shapes and validates conformance, so an Algorithm is correct by
// construction and can be executed generically (model/executor.hpp).
// rebind() re-derives every shape from new external shapes by the same
// rules, so one built algorithm serves every instance of its expression.
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

struct Step {
  KernelCall call;
  /// Operand ids consumed; a one-input kernel (SYRK, tricopy) leaves the
  /// second at -1. Held inline, so copying a step allocates nothing.
  std::array<int, 2> inputs = {-1, -1};
  int output = -1;  ///< operand id produced
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

  /// Give external i the shape `external_shapes[i]` and re-derive every
  /// temporary's shape and every KernelCall from them, with the builder's
  /// shape rules and conformance checks (CheckError when the new shapes do
  /// not conform). Names, structure and signature_hash() do not change.
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
  /// The call a step of `kind` makes on `inputs`: the shape rules and
  /// conformance checks shared by the add_* builders and rebind().
  KernelCall derive_call(KernelKind kind, const std::array<int, 2>& inputs,
                         bool trans_a, bool trans_b) const;
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
