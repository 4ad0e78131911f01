#include "src/aging/stress.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "tests/stress_oracle.hpp"

namespace agingsim {
namespace {

TEST(StressTest, ProbabilitiesAreWellFormed) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  nb.netlist().mark_output(nb.and2(a, b), "y");
  const StressProfile p = estimate_stress(nb.netlist(), 1, 2000);
  ASSERT_EQ(p.net_p_one.size(), nb.netlist().num_nets());
  ASSERT_EQ(p.pmos_stress.size(), nb.netlist().num_gates());
  for (double v : p.net_p_one) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (GateId g = 0; g < nb.netlist().num_gates(); ++g) {
    EXPECT_NEAR(p.pmos_stress[g] + p.nmos_stress[g], 1.0, 1e-12);
  }
}

TEST(StressTest, GateProbabilitiesMatchTheory) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId y_and = nb.and2(a, b);   // P(1) = 1/4
  const NetId y_or = nb.or2(a, b);     // P(1) = 3/4
  const NetId y_xor = nb.xor2(a, b);   // P(1) = 1/2
  const NetId y_inv = nb.inv(a);       // P(1) = 1/2
  nb.netlist().mark_output(y_and, "and");
  nb.netlist().mark_output(y_or, "or");
  nb.netlist().mark_output(y_xor, "xor");
  nb.netlist().mark_output(y_inv, "inv");
  const StressProfile p = estimate_stress(nb.netlist(), 2, 8000);
  EXPECT_NEAR(p.net_p_one[y_and], 0.25, 0.02);
  EXPECT_NEAR(p.net_p_one[y_or], 0.75, 0.02);
  EXPECT_NEAR(p.net_p_one[y_xor], 0.50, 0.02);
  EXPECT_NEAR(p.net_p_one[y_inv], 0.50, 0.02);
}

TEST(StressTest, TieNetsAreDeterministic) {
  NetlistBuilder nb;
  const NetId z = nb.zero();
  const NetId o = nb.one();
  nb.input("a");
  nb.netlist().mark_output(z, "z");
  nb.netlist().mark_output(o, "o");
  const StressProfile p = estimate_stress(nb.netlist(), 3, 100);
  EXPECT_DOUBLE_EQ(p.net_p_one[z], 0.0);
  EXPECT_DOUBLE_EQ(p.net_p_one[o], 1.0);
}

TEST(StressTest, RejectsZeroPatterns) {
  NetlistBuilder nb;
  nb.input("a");
  EXPECT_THROW(estimate_stress(nb.netlist(), 1, 0), std::invalid_argument);
}

/// Pattern counts around the 64-lane word edges plus a production size.
constexpr std::size_t kPatternCounts[] = {1, 63, 64, 65, 1000};

void expect_matches_scalar_oracle(MultiplierArch arch) {
  for (const int width : {4, 8, 16, 32}) {
    const MultiplierNetlist m = build_multiplier(arch, width);
    for (const std::size_t n : kPatternCounts) {
      for (const std::uint64_t seed : {0x5eedULL, 7ULL}) {
        EXPECT_TRUE(testing_oracle::identical_profiles(
            estimate_stress(m.netlist, seed, n),
            testing_oracle::scalar_stress(m.netlist, seed, n)))
            << arch_name(arch) << width << " patterns " << n << " seed "
            << seed;
      }
    }
  }
}

TEST(StressTest, ArrayMatchesScalarOracle) {
  expect_matches_scalar_oracle(MultiplierArch::kArray);
}

TEST(StressTest, ColumnBypassMatchesScalarOracle) {
  expect_matches_scalar_oracle(MultiplierArch::kColumnBypass);
}

TEST(StressTest, RowBypassMatchesScalarOracle) {
  expect_matches_scalar_oracle(MultiplierArch::kRowBypass);
}

TEST(StressTest, WallaceTreeMatchesScalarOracle) {
  expect_matches_scalar_oracle(MultiplierArch::kWallaceTree);
}

TEST(StressTest, KeeperStateCarriesAcrossWords) {
  // A tri-state enabled on about 1 pattern in 128 holds its value across
  // long runs of lanes and across word edges; it is X until first enabled,
  // and a second tri-state and a mux are fed by that power-up X.
  NetlistBuilder nb;
  Netlist& nl = nb.netlist();
  std::vector<NetId> a;
  for (int i = 0; i < 8; ++i) a.push_back(nb.input("a" + std::to_string(i)));
  const NetId lo = nl.add_gate(CellKind::kAnd3, {a[0], a[1], a[2]});
  const NetId hi = nl.add_gate(CellKind::kAnd3, {a[3], a[4], a[5]});
  const NetId rare = nl.add_gate(CellKind::kAnd3, {lo, hi, a[6]});
  const NetId kept = nb.tbuf(a[7], rare);
  const NetId chained = nb.tbuf(kept, a[0]);
  nl.mark_output(nb.xor2(chained, a[1]), "y");
  nl.mark_output(nb.mux2(kept, a[2], a[3]), "m");
  for (const std::size_t n : {1, 63, 64, 65, 127, 128, 129, 1000}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      EXPECT_TRUE(testing_oracle::identical_profiles(
          estimate_stress(nl, seed, n),
          testing_oracle::scalar_stress(nl, seed, n)))
          << "patterns " << n << " seed " << seed;
    }
  }
  // Not vacuous: the rare enable fires within 1000 patterns, so the keeper
  // leaves X and holds a driven value for the runs in between.
  EXPECT_GT(estimate_stress(nl, 1, 1000).net_p_one[kept], 0.0);
}

}  // namespace
}  // namespace agingsim
