#include "src/netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/aging/variation.hpp"

namespace agingsim {
namespace {

TEST(NetlistTest, InputsHaveNoDriver) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_EQ(nl.driver_of(a), -1);
  EXPECT_EQ(nl.driver_of(b), -1);
  EXPECT_EQ(nl.input_name(0), "a");
  EXPECT_EQ(nl.input_name(1), "b");
}

TEST(NetlistTest, GateCreatesDrivenOutputNet) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_gate(CellKind::kAnd2, {a, b});
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.num_nets(), 3u);
  EXPECT_EQ(nl.driver_of(y), 0);
  EXPECT_EQ(nl.gate(0).kind, CellKind::kAnd2);
  const auto ins = nl.gate_inputs(0);
  ASSERT_EQ(ins.size(), 2u);
  EXPECT_EQ(ins[0], a);
  EXPECT_EQ(ins[1], b);
}

TEST(NetlistTest, RejectsWrongPinCount) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::kAnd2, {a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(CellKind::kInv, {a, a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(CellKind::kMux2, {a, a}), std::invalid_argument);
}

TEST(NetlistTest, RejectsForwardReference) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(CellKind::kAnd2, {a, NetId{57}}),
               std::invalid_argument);
}

TEST(NetlistTest, MarkOutputValidatesNet) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.mark_output(a, "y");
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.output_name(0), "y");
  EXPECT_THROW(nl.mark_output(NetId{9}, "bad"), std::invalid_argument);
}

TEST(NetlistTest, TransistorCountSumsTraits) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_gate(CellKind::kNand2, {a, b});  // 4T
  nl.add_gate(CellKind::kInv, {y});                       // 2T
  EXPECT_EQ(nl.transistor_count(), 6);
  const auto counts = nl.gate_count_by_kind();
  EXPECT_EQ(counts[static_cast<std::size_t>(CellKind::kNand2)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(CellKind::kInv)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(CellKind::kAnd2)], 0u);
}

// Topological levels are the coordinate of the correlated-variation grid
// (src/aging/variation.hpp); these two cases pin their semantics.
TEST(NetlistTest, LevelsAreLongestPathFromInputs) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_gate(CellKind::kAnd2, {a, b});  // level 0
  const NetId z = nl.add_gate(CellKind::kInv, {y});      // level 1
  nl.add_gate(CellKind::kXor2, {a, z});                  // level 2 (via z)
  nl.add_gate(CellKind::kTie1, {});                      // level 0, no fanin
  EXPECT_EQ(topological_levels(nl), (std::vector<int>{0, 1, 2, 0}));
  // With only the grid term and one level per node, a gate's scale is its
  // level's node: equal levels share it, distinct levels do not.
  const VariationModel grid_only{.sigma_random = 0.0,
                                 .sigma_grid = 0.5,
                                 .grid_levels = 1,
                                 .sigma_die = 0.0};
  const std::vector<double> s = correlated_variation_scales(nl, grid_only, 7);
  EXPECT_EQ(s[0], s[3]);
  EXPECT_NE(s[0], s[1]);
  EXPECT_NE(s[1], s[2]);
  EXPECT_NE(s[0], s[2]);
}

TEST(NetlistTest, EmptyNetlistHasZeroDepth) {
  Netlist nl;
  EXPECT_TRUE(topological_levels(nl).empty());
  nl.add_input("a");
  EXPECT_TRUE(topological_levels(nl).empty());  // inputs add no levels
  EXPECT_TRUE(correlated_variation_scales(nl, VariationModel{}, 1).empty());
}

TEST(NetlistTest, ValidatePassesOnWellFormedNetlist) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_gate(CellKind::kXor2, {a, b});
  nl.mark_output(y, "y");
  EXPECT_NO_THROW(nl.validate());
}

}  // namespace
}  // namespace agingsim
