#include "model/algorithm.hpp"

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace lamb::model {

namespace {

constexpr std::string_view kStepSeparator = "; ";

}  // namespace

Algorithm::Algorithm(std::string name) : name_(std::move(name)) {}

int Algorithm::add_operand(la::index_t rows, la::index_t cols, bool external,
                           bool lower_only, std::string name) {
  LAMB_CHECK(rows >= 0 && cols >= 0, "operand dims must be non-negative");
  operands_.push_back(Operand{rows, cols, external, lower_only,
                              std::move(name)});
  return static_cast<int>(operands_.size()) - 1;
}

const Operand& Algorithm::operand(int id) const {
  LAMB_CHECK(id >= 0 && id < static_cast<int>(operands_.size()),
             "operand id out of range");
  return operands_[static_cast<std::size_t>(id)];
}

std::string Algorithm::temp_name(const std::string& hint) {
  if (!hint.empty()) {
    return hint;
  }
  return support::strf("M%d", static_cast<int>(steps_.size()) + 1);
}

int Algorithm::add_external(la::index_t rows, la::index_t cols,
                            std::string name) {
  LAMB_CHECK(steps_.empty(), "externals must be added before any step");
  ++num_externals_;
  return add_operand(rows, cols, /*external=*/true, /*lower_only=*/false,
                     std::move(name));
}

KernelCall Algorithm::derive_call(KernelKind kind,
                                  const std::array<int, 2>& inputs,
                                  bool trans_a, bool trans_b) const {
  const Operand& oa = operand(inputs[0]);
  switch (kind) {
    case KernelKind::kGemm: {
      const Operand& ob = operand(inputs[1]);
      LAMB_CHECK(!oa.lower_only && !ob.lower_only,
                 "gemm reads full matrices; insert a tricopy after syrk");
      const la::index_t m = trans_a ? oa.cols : oa.rows;
      const la::index_t ka = trans_a ? oa.rows : oa.cols;
      const la::index_t kb = trans_b ? ob.cols : ob.rows;
      const la::index_t n = trans_b ? ob.rows : ob.cols;
      LAMB_CHECK(ka == kb, "gemm: inner dimensions do not conform");
      return make_gemm(m, n, ka, trans_a, trans_b);
    }
    case KernelKind::kSyrk:
      LAMB_CHECK(!oa.lower_only, "syrk input must be a full matrix");
      return make_syrk(oa.rows, oa.cols);
    case KernelKind::kTriCopy:
      LAMB_CHECK(oa.rows == oa.cols, "tricopy input must be square");
      LAMB_CHECK(oa.lower_only, "tricopy expects a lower-only operand");
      return make_tricopy(oa.rows);
    case KernelKind::kSymm: {
      const Operand& ob = operand(inputs[1]);
      LAMB_CHECK(oa.rows == oa.cols, "symm: A must be square");
      LAMB_CHECK(ob.rows == oa.rows, "symm: B rows must match A");
      LAMB_CHECK(!ob.lower_only, "symm: B must be a full matrix");
      return make_symm(oa.rows, ob.cols);
    }
  }
  LAMB_CHECK(false, "unknown kernel kind");
  return {};
}

int Algorithm::append_step(KernelKind kind, std::array<int, 2> inputs,
                           bool trans_a, bool trans_b, std::string name) {
  const KernelCall call = derive_call(kind, inputs, trans_a, trans_b);
  // Every kind's output is m x n (SYRK and tricopy store m in n).
  const int out = add_operand(call.m, call.n, false,
                              /*lower_only=*/kind == KernelKind::kSyrk,
                              temp_name(name));
  steps_.push_back(Step{call, inputs, out});
  if (steps_.size() > 1) {
    signature_state_ = support::fnv1a64(kStepSeparator, signature_state_);
  }
  signature_state_ = support::fnv1a64(step_text(steps_.back()),
                                      signature_state_);
  return out;
}

int Algorithm::add_gemm(int a, int b, bool trans_a, bool trans_b,
                        std::string name) {
  return append_step(KernelKind::kGemm, {a, b}, trans_a, trans_b,
                     std::move(name));
}

int Algorithm::add_syrk(int a, std::string name) {
  return append_step(KernelKind::kSyrk, {a, -1}, false, false,
                     std::move(name));
}

int Algorithm::add_tricopy(int a, std::string name) {
  return append_step(KernelKind::kTriCopy, {a, -1}, false, false,
                     std::move(name));
}

int Algorithm::add_symm(int a_sym, int b, std::string name) {
  return append_step(KernelKind::kSymm, {a_sym, b}, false, false,
                     std::move(name));
}

void Algorithm::rebind(std::span<const Shape> external_shapes) {
  LAMB_CHECK(external_shapes.size() ==
                 static_cast<std::size_t>(num_externals_),
             "rebind needs one shape per external");
  for (std::size_t i = 0; i < external_shapes.size(); ++i) {
    const Shape& s = external_shapes[i];
    LAMB_CHECK(s.rows >= 0 && s.cols >= 0, "operand dims must be non-negative");
    operands_[i].rows = s.rows;
    operands_[i].cols = s.cols;
  }
  // Steps only consume operands produced before them, so one forward pass
  // sees every input already re-shaped.
  for (Step& step : steps_) {
    step.call = derive_call(step.call.kind, step.inputs, step.call.trans_a,
                            step.call.trans_b);
    Operand& out = operands_[static_cast<std::size_t>(step.output)];
    out.rows = step.call.m;
    out.cols = step.call.n;
  }
}

int Algorithm::result_id() const {
  LAMB_CHECK(!steps_.empty(), "algorithm has no steps");
  return steps_.back().output;
}

long long Algorithm::flops() const {
  long long total = 0;
  for (const Step& s : steps_) {
    total += s.call.flops();
  }
  return total;
}

std::string Algorithm::step_text(const Step& step) const {
  const auto name_of = [&](std::size_t input) {
    return operands_[static_cast<std::size_t>(step.inputs[input])].name.c_str();
  };
  std::string rhs;
  switch (step.call.kind) {
    case KernelKind::kGemm:
      rhs = support::strf("%s%s*%s%s", name_of(0),
                          step.call.trans_a ? "'" : "", name_of(1),
                          step.call.trans_b ? "'" : "");
      break;
    case KernelKind::kSyrk:
      rhs = support::strf("syrk(%s*%s')", name_of(0), name_of(0));
      break;
    case KernelKind::kSymm:
      rhs = support::strf("symm(%s*%s)", name_of(0), name_of(1));
      break;
    case KernelKind::kTriCopy:
      rhs = support::strf("full(%s)", name_of(0));
      break;
  }
  return operands_[static_cast<std::size_t>(step.output)].name + ":=" + rhs;
}

std::string Algorithm::signature() const {
  std::vector<std::string> parts;
  parts.reserve(steps_.size());
  for (const Step& s : steps_) {
    parts.push_back(step_text(s));
  }
  return support::join(parts, std::string(kStepSeparator));
}

std::uint64_t Algorithm::signature_hash() const {
  return support::mix64(signature_state_);
}

}  // namespace lamb::model
