// Family registry: name lookup, the dynamic chainN fallback, and the
// round-trip guarantee — every registered family enumerates at least two
// algorithms that agree numerically through the generic executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "expr/registry.hpp"
#include "la/norms.hpp"
#include "model/executor.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;

TEST(FamilyRegistry, BuiltinsAreRegistered) {
  const auto names = expr::registry().names();
  for (const char* expected :
       {"chain3", "chain4", "chain5", "chain6", "aatb", "gram", "aatbc"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) !=
                names.end())
        << expected;
  }
}

TEST(FamilyRegistry, MakeReturnsFamilyWithMatchingName) {
  for (const std::string& name : expr::registry().names()) {
    const auto family = expr::make_family(name);
    ASSERT_NE(family, nullptr) << name;
    EXPECT_EQ(family->name(), name);
    EXPECT_GE(family->dimension_count(), 2) << name;
  }
}

TEST(FamilyRegistry, ChainNamesResolveDynamically) {
  // chain7 is not registered explicitly but follows the chainN pattern.
  EXPECT_FALSE(expr::registry().contains("chain7"));
  const auto family = expr::make_family("chain7");
  EXPECT_EQ(family->name(), "chain7");
  EXPECT_EQ(family->dimension_count(), 8);
}

TEST(FamilyRegistry, ChainLengthIsBounded) {
  // A family compiles its algorithm set when built: (n-1)! schedules for a
  // chain of n, so any chainN a caller names must stay within the bound.
  EXPECT_EQ(expr::make_family("chain8")->dimension_count(), 9);
  EXPECT_THROW(expr::make_family("chain9"), support::CheckError);
  EXPECT_THROW(expr::make_family("chain1009"), support::CheckError);
}

TEST(FamilyRegistry, UnknownNameThrowsWithListing) {
  try {
    expr::make_family("no-such-family");
    FAIL() << "expected CheckError";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("aatb"), std::string::npos);
  }
}

TEST(FamilyRegistry, DuplicateRegistrationRejected) {
  expr::FamilyRegistry local;
  local.add("f", "a family", [] { return expr::make_family("aatb"); });
  EXPECT_THROW(
      local.add("f", "again", [] { return expr::make_family("aatb"); }),
      support::CheckError);
}

TEST(FamilyRegistry, NamesAreBoundedForInlineKeys) {
  // The serving layer holds a family name inline, so no registry hands out
  // a family under a longer name.
  expr::FamilyRegistry local;
  const auto factory = [] { return expr::make_family("aatb"); };
  EXPECT_NO_THROW(
      local.add(std::string(expr::kMaxFamilyName, 'f'), "fits", factory));
  EXPECT_THROW(
      local.add(std::string(expr::kMaxFamilyName + 1, 'f'), "long", factory),
      support::CheckError);
  // A zero-padded chainN name resolves only while it fits.
  const auto padded = [](std::size_t zeros) {
    return "chain" + std::string(zeros, '0') + "4";
  };
  const std::size_t fill = expr::kMaxFamilyName - 6;
  ASSERT_EQ(padded(fill).size(), expr::kMaxFamilyName);
  EXPECT_EQ(expr::make_family(padded(fill))->name(), "chain4");
  EXPECT_THROW(expr::make_family(padded(fill + 1)), support::CheckError);
}

TEST(FamilyRegistry, DescriptionsAndListingAvailable) {
  EXPECT_FALSE(expr::registry().description("aatb").empty());
  const std::string listing = expr::registry().to_string();
  EXPECT_NE(listing.find("aatb"), std::string::npos);
  EXPECT_NE(listing.find("gram"), std::string::npos);
}

// The registry round-trip of the acceptance criteria: every registered
// family must enumerate >= 2 algorithms for a small instance, and all of
// them must compute the same matrix through model::execute.
TEST(FamilyRegistry, EveryFamilyEnumeratesAgreeingAlgorithms) {
  for (const std::string& name : expr::registry().names()) {
    const auto family = expr::make_family(name);
    expr::Instance dims(static_cast<std::size_t>(family->dimension_count()));
    for (std::size_t i = 0; i < dims.size(); ++i) {
      dims[i] = static_cast<int>(5 + 2 * i);  // small, distinct, non-square
    }
    const auto algorithms = family->algorithms(dims);
    EXPECT_GE(algorithms.size(), 2u) << name;

    support::Rng rng(11);
    const auto externals = family->make_externals(dims, rng);
    const la::Matrix reference = model::execute(algorithms[0], externals);
    for (std::size_t i = 1; i < algorithms.size(); ++i) {
      const la::Matrix other = model::execute(algorithms[i], externals);
      ASSERT_EQ(other.rows(), reference.rows()) << name << " alg " << i;
      ASSERT_EQ(other.cols(), reference.cols()) << name << " alg " << i;
      const double scale = std::max(1.0, la::max_abs(reference.view()));
      EXPECT_LT(la::max_abs_diff(reference.view(), other.view()),
                1e-10 * scale)
          << name << " algorithm " << i << " (" << algorithms[i].signature()
          << ") disagrees with " << algorithms[0].signature();
    }
  }
}

TEST(FamilyRegistry, AatbcIsARealNewFamily) {
  const auto family = expr::make_family("aatbc");
  EXPECT_EQ(family->dimension_count(), 4);
  // 4 factors -> 6 schedules; those forming A*A' branch into kernel
  // variants, so the family is strictly richer than a plain 4-chain.
  const auto algorithms = family->algorithms({6, 7, 8, 9});
  EXPECT_GT(algorithms.size(), 6u);
}

}  // namespace
