// The values-only 64-lane sweep (src/sim/value_sweep.hpp) and the word
// logic it shares with the batch timing kernel (src/sim/word_logic.hpp).

#include "src/sim/value_sweep.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/netlist/builder.hpp"
#include "src/netlist/cell.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

Logic lane_of(const LogicWord& w, int lane) {
  return static_cast<Logic>(((w.p0 >> lane) & 1u) |
                            (((w.p1 >> lane) & 1u) << 1));
}

TEST(ValueSweepTest, WordLogicMatchesEvalCellInEveryLane) {
  // Every kind over random four-valued input lanes and keeper values;
  // the tri-state keeper chain runs lane by lane through eval_cell.
  Rng rng(0x3A1E);
  for (int k = 0; k < static_cast<int>(CellKind::kCount); ++k) {
    const auto kind = static_cast<CellKind>(k);
    const int nin = cell_traits(kind).num_inputs;
    for (int trial = 0; trial < 200; ++trial) {
      std::uint64_t ip0[3] = {}, ip1[3] = {};
      for (int i = 0; i < nin; ++i) {
        ip0[i] = rng.next();
        // Mostly known lanes, so keeper runs and driven lanes interleave.
        ip1[i] = rng.next() & rng.next() & rng.next();
      }
      const auto keeper = static_cast<Logic>(rng.next_below(4));
      const LogicWord out = detail::eval_cell_word(kind, ip0, ip1, keeper);
      Logic prev = keeper;
      for (int l = 0; l < 64; ++l) {
        std::array<Logic, 3> in{};
        for (int i = 0; i < nin; ++i) {
          in[i] = lane_of(LogicWord{ip0[i], ip1[i]}, l);
        }
        const Logic want = eval_cell(
            kind, {in.data(), static_cast<std::size_t>(nin)}, prev);
        ASSERT_EQ(lane_of(out, l), want)
            << "kind " << k << " trial " << trial << " lane " << l;
        prev = want;
      }
    }
  }
}

TEST(ValueSweepTest, KeeperCarriesAcrossWordsAndPartialWords) {
  NetlistBuilder nb;
  const NetId d = nb.input("d");
  const NetId en = nb.input("en");
  const NetId q = nb.tbuf(d, en);
  nb.netlist().mark_output(q, "q");
  ValueSweep sweep(nb.netlist());

  // Word 1: enabled only on lane 62, driving 1. Lanes 0-61 keep power-up X.
  const std::uint64_t lane62 = std::uint64_t{1} << 62;
  sweep.step_word(std::vector<std::uint64_t>{lane62, lane62});
  LogicWord w = sweep.word(q);
  for (int l = 0; l < 62; ++l) EXPECT_EQ(lane_of(w, l), Logic::kX) << l;
  EXPECT_EQ(lane_of(w, 62), Logic::kOne);
  EXPECT_EQ(lane_of(w, 63), Logic::kOne);

  // Word 2, partial (5 lanes), never enabled: lane 63 of word 1 is kept.
  sweep.step_word(std::vector<std::uint64_t>{0, 0}, 5);
  EXPECT_EQ(sweep.lane_mask(), 0x1Fu);
  w = sweep.word(q);
  EXPECT_EQ(w.p0, 0x1Fu);
  EXPECT_EQ(w.p1, 0u);

  // Word 3: keeper comes from lane 4 of the partial word; lane 2 drives 0.
  sweep.step_word(std::vector<std::uint64_t>{0, 0x4}, 6);
  w = sweep.word(q);
  EXPECT_EQ(w.p0, 0x3u);  // lanes 0-1 keep 1, lanes 2-5 hold the driven 0
  EXPECT_EQ(w.p1, 0u);
}

TEST(ValueSweepTest, RejectsBadWords) {
  NetlistBuilder nb;
  nb.netlist().mark_output(nb.inv(nb.input("a")), "y");
  ValueSweep sweep(nb.netlist());
  EXPECT_THROW(sweep.step_word(std::vector<std::uint64_t>{}),
               std::invalid_argument);
  EXPECT_THROW(sweep.step_word(std::vector<std::uint64_t>{0}, 0),
               std::invalid_argument);
  EXPECT_THROW(sweep.step_word(std::vector<std::uint64_t>{0}, 65),
               std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
