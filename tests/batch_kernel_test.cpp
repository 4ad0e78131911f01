// Differential tests of the 64-lane batch kernel (src/sim/batch_sim.hpp)
// against the dense scalar TimingSim, its oracle: every StepResult field
// and every net value must be exactly `==` between a batch word and the 64
// scalar steps it packs — across power-up, aging overlays, all fault kinds
// (including transient strikes on word boundaries), mid-run overlay/aging
// swaps, partial tail words, and K aging corners per sweep (the
// MultiCorner* cases). tests/fuzz_test.cpp runs the same differential on
// random netlists.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/aging/scenario.hpp"
#include "src/aging/variation.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

const TechLibrary& test_tech() {
  static const TechLibrary t = calibrated_tech_library(1880.0);
  return t;
}

/// Scoped setenv/unsetenv that restores the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Drives a batch simulator word-by-word and the scalar oracle
/// pattern-by-pattern over `ops` random operand pairs and requires
/// bit-identical observable state after every lane: every StepResult
/// field, the packed product, and every net value.
void expect_batch_identical(const MultiplierNetlist& m, std::size_t ops,
                            const FaultOverlay* overlay = nullptr,
                            std::span<const double> aging = {},
                            std::uint64_t seed = 0xD1FF) {
  MultiplierSim scalar(m, test_tech(), aging);
  BatchTimingSim batch(m.netlist, test_tech(), aging);
  if (overlay != nullptr) {
    scalar.set_fault_overlay(overlay);
    batch.set_fault_overlay(overlay);
  }

  Rng rng(seed);
  std::vector<std::uint64_t> a_ops(ops), b_ops(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    a_ops[i] = rng.next_bits(m.width);
    b_ops[i] = rng.next_bits(m.width);
  }

  const std::size_t num_nets = m.netlist.num_nets();
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  for (std::size_t chunk = 0; chunk < ops;
       chunk += static_cast<std::size_t>(kBatchLanes)) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(kBatchLanes, ops - chunk));
    std::fill(words.begin(), words.end(), 0);
    for (int l = 0; l < lanes; ++l) {
      batch.load_bus_lane(words, a_ops[chunk + static_cast<std::size_t>(l)],
                          m.width, m.a_first_input, l);
      batch.load_bus_lane(words, b_ops[chunk + static_cast<std::size_t>(l)],
                          m.width, m.b_first_input, l);
    }
    const std::span<const StepResult> res = batch.step_word(words, lanes);

    for (int l = 0; l < lanes; ++l) {
      const std::size_t i = chunk + static_cast<std::size_t>(l);
      const StepResult s = scalar.apply(a_ops[i], b_ops[i]);
      const StepResult& b = res[static_cast<std::size_t>(l)];
      // Exact equality on purpose: the kernels promise identity, not
      // closeness.
      ASSERT_EQ(s.output_settle_ps, b.output_settle_ps)
          << "op " << i << " lane " << l;
      ASSERT_EQ(s.settle_ps, b.settle_ps) << "op " << i << " lane " << l;
      ASSERT_EQ(s.toggles, b.toggles) << "op " << i << " lane " << l;
      ASSERT_EQ(s.switched_cap_ff, b.switched_cap_ff)
          << "op " << i << " lane " << l;
      ASSERT_EQ(scalar.product(), batch.output_bits(l))
          << "op " << i << " lane " << l;

      for (std::size_t n = 0; n < num_nets; ++n) {
        const NetId net = static_cast<NetId>(n);
        if (scalar.timing_sim().value(net) != batch.lane_value(net, l)) {
          ADD_FAILURE() << "net " << n << " diverged at op " << i << " (lane "
                        << l << ")";
          return;
        }
      }
    }
  }
  EXPECT_EQ(batch.stats().lanes, ops);
}

TEST(BatchKernelTest, MatchesScalarOnRandomPatterns) {
  for (const auto arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree}) {
    SCOPED_TRACE(arch_name(arch));
    const MultiplierNetlist m = build_multiplier(arch, 16);
    expect_batch_identical(m, 256);
  }
}

TEST(BatchKernelTest, SkipsWordIdleGates) {
  // On a column-bypassing multiplier a run of low-weight operands freezes
  // whole columns for all 64 lanes at once, so the batch sweep must
  // evaluate strictly fewer gate-words than gates x words.
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  BatchTimingSim batch(m.netlist, test_tech());
  Rng rng(0xF00D);
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  for (int word = 0; word < 8; ++word) {
    std::fill(words.begin(), words.end(), 0);
    for (int l = 0; l < kBatchLanes; ++l) {
      // Sparse multiplicand: most bypass selects stay 0 across the word.
      batch.load_bus_lane(words, rng.next_bits(4), m.width, m.a_first_input,
                          l);
      batch.load_bus_lane(words, rng.next_bits(16), m.width, m.b_first_input,
                          l);
    }
    batch.step_word(words);
  }
  const std::uint64_t dense_equiv =
      batch.stats().words * m.netlist.num_gates();
  EXPECT_LT(batch.stats().gates_evaluated, dense_equiv);
  EXPECT_GT(batch.stats().gates_evaluated, 0u);
}

TEST(BatchKernelTest, MatchesScalarUnderAgingOverlay) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  const auto scales = scenario.delay_scales_at(5.0);
  expect_batch_identical(m, 192, nullptr, scales);
}

TEST(BatchKernelTest, MatchesScalarUnderStuckAtFaults) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const std::size_t g = m.netlist.num_gates();
  FaultOverlay overlay(g);
  overlay.add(
      {.kind = FaultKind::kStuckAt0, .gate = static_cast<GateId>(g / 3)});
  overlay.add(
      {.kind = FaultKind::kStuckAt1, .gate = static_cast<GateId>(2 * g / 3)});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, MatchesScalarAcrossTransientWindows) {
  const MultiplierNetlist m = build_row_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  // Strikes covering every word-relative position that has its own code
  // path: lane 0 of the first word, the last lane of a word (the un-flip
  // happens in the *next* word's sweep: the forced-gates spill), lane 0 of
  // the following word (strike and cleanup collide), and a mid-word lane.
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 2),
               .cycle = 0});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 4),
               .cycle = 63});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 5),
               .cycle = 64});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 3),
               .cycle = 100});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, MatchesScalarWithBackToBackStrikesOnOneGate) {
  // Same gate struck on the last lane of word 0 and the first lane of word
  // 1: the cleanup un-flip and the new flip land in the same sweep.
  const MultiplierNetlist m = build_array_multiplier(8);
  FaultOverlay overlay(m.netlist.num_gates());
  const GateId victim = static_cast<GateId>(m.netlist.num_gates() / 2);
  overlay.add({.kind = FaultKind::kTransient, .gate = victim, .cycle = 63});
  overlay.add({.kind = FaultKind::kTransient, .gate = victim, .cycle = 64});
  expect_batch_identical(m, 160, &overlay);
}

TEST(BatchKernelTest, MatchesScalarWhenStruckKeepersHoldTheFlip) {
  // A strike on a tri-state followed by lanes that disable it: the keeper
  // holds the flipped value, exactly as the scalar kernel's does. Strike
  // every tri-state of a column-bypassing multiplier, each mid-word.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  FaultOverlay overlay(m.netlist.num_gates());
  std::int64_t cycle = 5;
  for (GateId g = 0; g < m.netlist.num_gates(); ++g) {
    if (m.netlist.gate(g).kind != CellKind::kTbuf) continue;
    overlay.add({.kind = FaultKind::kTransient, .gate = g, .cycle = cycle});
    cycle = 5 + (cycle + 7) % 110;
  }
  ASSERT_GT(overlay.num_faults(), 0u);
  expect_batch_identical(m, 128, &overlay);
}

TEST(BatchKernelTest, MatchesScalarUnderDelayOutliers) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kDelayOutlier,
               .gate = static_cast<GateId>(m.netlist.num_gates() - 10),
               .delay_factor = 4.0});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, PartialTailWordMatchesScalar) {
  // 100 ops = one full word + a 36-lane tail; the tail word's inactive
  // lanes must not disturb state or counters.
  const MultiplierNetlist m = build_row_bypass_multiplier(12);
  expect_batch_identical(m, 100);
}

TEST(BatchKernelTest, OverlayAndAgingSwapsMidRunStayIdentical) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kStuckAt1,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 2)});
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  const auto aged = scenario.delay_scales_at(7.0);

  MultiplierSim scalar(m, test_tech());
  BatchTimingSim batch(m.netlist, test_tech());
  Rng rng(0xABCD);
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  const auto run_both = [&](int num_words) {
    for (int w = 0; w < num_words; ++w) {
      std::fill(words.begin(), words.end(), 0);
      std::vector<std::uint64_t> a_ops(kBatchLanes), b_ops(kBatchLanes);
      for (int l = 0; l < kBatchLanes; ++l) {
        a_ops[static_cast<std::size_t>(l)] = rng.next_bits(m.width);
        b_ops[static_cast<std::size_t>(l)] = rng.next_bits(m.width);
        batch.load_bus_lane(words, a_ops[static_cast<std::size_t>(l)],
                            m.width, m.a_first_input, l);
        batch.load_bus_lane(words, b_ops[static_cast<std::size_t>(l)],
                            m.width, m.b_first_input, l);
      }
      const std::span<const StepResult> res = batch.step_word(words);
      for (int l = 0; l < kBatchLanes; ++l) {
        const StepResult s = scalar.apply(a_ops[static_cast<std::size_t>(l)],
                                          b_ops[static_cast<std::size_t>(l)]);
        ASSERT_EQ(s.switched_cap_ff,
                  res[static_cast<std::size_t>(l)].switched_cap_ff);
        ASSERT_EQ(s.settle_ps, res[static_cast<std::size_t>(l)].settle_ps);
      }
      for (std::size_t n = 0; n < m.netlist.num_nets(); ++n) {
        const NetId net = static_cast<NetId>(n);
        ASSERT_EQ(scalar.timing_sim().value(net),
                  batch.lane_value(net, kBatchLanes - 1));
      }
    }
  };
  run_both(2);
  scalar.set_fault_overlay(&overlay);  // install mid-run...
  batch.set_fault_overlay(&overlay);
  run_both(2);
  scalar.set_aging(aged);  // ...age the circuit under the fault...
  batch.set_aging(aged);
  run_both(2);
  scalar.set_fault_overlay(nullptr);  // ...and release the overlay
  batch.set_fault_overlay(nullptr);
  run_both(2);
}

TEST(BatchKernelTest, AgingAndOutlierInstalledMidRunMatchScalar) {
  // An aging table and a delay-outlier overlay installed after the first
  // word of a partial-width multiplier: every following word times with
  // the new delays, exactly like the scalar kernel.
  const MultiplierNetlist m = build_row_bypass_multiplier(12);
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  const auto aged = scenario.delay_scales_at(4.0);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kDelayOutlier,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 2),
               .delay_factor = 3.0});

  MultiplierSim scalar(m, test_tech());
  BatchTimingSim batch(m.netlist, test_tech());
  Rng rng(0xA0D1);
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  for (int w = 0; w < 6; ++w) {
    if (w == 1) {
      scalar.set_aging(aged);
      batch.set_aging(aged);
      scalar.set_fault_overlay(&overlay);
      batch.set_fault_overlay(&overlay);
    }
    std::vector<std::uint64_t> a_ops(kBatchLanes), b_ops(kBatchLanes);
    for (int l = 0; l < kBatchLanes; ++l) {
      a_ops[static_cast<std::size_t>(l)] = rng.next_bits(m.width);
      b_ops[static_cast<std::size_t>(l)] = rng.next_bits(m.width);
      batch.load_bus_lane(words, a_ops[static_cast<std::size_t>(l)], m.width,
                          m.a_first_input, l);
      batch.load_bus_lane(words, b_ops[static_cast<std::size_t>(l)], m.width,
                          m.b_first_input, l);
    }
    const std::span<const StepResult> res = batch.step_word(words);
    for (int l = 0; l < kBatchLanes; ++l) {
      const StepResult s = scalar.apply(a_ops[static_cast<std::size_t>(l)],
                                        b_ops[static_cast<std::size_t>(l)]);
      const StepResult& b = res[static_cast<std::size_t>(l)];
      ASSERT_EQ(s.output_settle_ps, b.output_settle_ps) << "word " << w;
      ASSERT_EQ(s.switched_cap_ff, b.switched_cap_ff) << "word " << w;
      ASSERT_EQ(scalar.product(), batch.output_bits(l)) << "word " << w;
    }
  }
}

TEST(BatchKernelTest, RepeatedOperandsEvaluateNothing) {
  // A word whose every lane repeats the operands the previous word ended
  // on moves no input, so no gate is evaluated and every lane is silent.
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  BatchTimingSim batch(m.netlist, test_tech());
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  for (int l = 0; l < kBatchLanes; ++l) {
    batch.load_bus_lane(words, 0x1234u + static_cast<unsigned>(l), m.width,
                        m.a_first_input, l);
    batch.load_bus_lane(words, 0xABCDu, m.width, m.b_first_input, l);
  }
  batch.step_word(words);  // power-up word: every gate
  for (int l = 0; l < kBatchLanes; ++l) {
    batch.load_bus_lane(words, 0x1234u + kBatchLanes - 1, m.width,
                        m.a_first_input, l);
  }
  const std::uint64_t before = batch.stats().gates_evaluated;
  for (const StepResult& r : batch.step_word(words)) {
    EXPECT_EQ(r.toggles, 0u);
    EXPECT_EQ(r.switched_cap_ff, 0.0);
    EXPECT_EQ(r.output_settle_ps, 0.0);
  }
  EXPECT_EQ(batch.stats().gates_evaluated, before);
}

TEST(BatchKernelTest, LaneStateIsSizedByLiveRange) {
  // Lane arrays are shared by nets with disjoint live ranges: on CB32 the
  // whole simulator state stays below 1 MiB, where one float[64] density
  // and one double[64] arrival array per net alone would take 7.3 MiB.
  const MultiplierNetlist m = build_column_bypass_multiplier(32);
  const BatchTimingSim batch(m.netlist, test_tech());
  const std::size_t per_net_lanes =
      m.netlist.num_nets() * kBatchLanes * (sizeof(float) + sizeof(double));
  EXPECT_LT(batch.state_bytes(), std::size_t{1} << 20);
  EXPECT_LT(8 * batch.state_bytes(), per_net_lanes);
}

TEST(BatchKernelTest, InstallStateReproducesUninterruptedScalarStream) {
  // install_state() + one step must be bit-identical to the same step of an
  // uninterrupted scalar run.
  const MultiplierNetlist m = build_row_bypass_multiplier(12);
  MultiplierSim reference(m, test_tech());
  Rng rng(0xBEEF);
  std::vector<std::uint64_t> a_ops(40), b_ops(40);
  for (std::size_t i = 0; i < a_ops.size(); ++i) {
    a_ops[i] = rng.next_bits(m.width);
    b_ops[i] = rng.next_bits(m.width);
    if (i + 1 < a_ops.size()) reference.apply(a_ops[i], b_ops[i]);
  }
  // Capture the state after 39 ops, install it into a fresh sim, and run
  // op 40 on both.
  std::vector<Logic> state(m.netlist.num_nets());
  for (std::size_t n = 0; n < state.size(); ++n) {
    state[n] = reference.timing_sim().value(static_cast<NetId>(n));
  }
  TimingSim resumed(m.netlist, test_tech());
  resumed.install_state(state, reference.timing_sim().steps());

  std::vector<Logic> inputs(m.netlist.input_nets().size());
  resumed.load_bus(inputs, a_ops.back(), m.width, m.a_first_input);
  resumed.load_bus(inputs, b_ops.back(), m.width, m.b_first_input);
  const StepResult r = resumed.step(inputs);
  const StepResult s = reference.apply(a_ops.back(), b_ops.back());
  EXPECT_EQ(s.output_settle_ps, r.output_settle_ps);
  EXPECT_EQ(s.settle_ps, r.settle_ps);
  EXPECT_EQ(s.toggles, r.toggles);
  EXPECT_EQ(s.switched_cap_ff, r.switched_cap_ff);
  for (std::size_t n = 0; n < state.size(); ++n) {
    const NetId net = static_cast<NetId>(n);
    ASSERT_EQ(reference.timing_sim().value(net), resumed.value(net));
  }
}

/// The op trace the dense scalar oracle produces: compute_op_trace's
/// contract, one TimingSim step per pattern.
std::vector<OpTrace> dense_trace(const MultiplierNetlist& m,
                                 std::span<const OperandPattern> patterns,
                                 std::span<const double> aging,
                                 const FaultOverlay* faults) {
  MultiplierSim sim(m, test_tech(), aging);
  sim.set_fault_overlay(faults);
  std::vector<OpTrace> trace;
  for (const OperandPattern& pat : patterns) {
    const std::int64_t cycle = sim.timing_sim().steps();
    const StepResult step = sim.apply(pat.a, pat.b);
    OpTrace op;
    op.a = pat.a;
    op.b = pat.b;
    op.product = sim.product();
    op.golden = reference_multiply(pat.a, pat.b, m.width);
    op.correct = op.product == op.golden;
    op.fault_active = faults != nullptr && faults->active_at(cycle);
    op.delay_ps = step.output_settle_ps;
    op.switched_cap_ff = step.switched_cap_ff;
    if (!trace.empty()) {
      op.in_toggles = std::popcount(pat.a ^ trace.back().a) +
                      std::popcount(pat.b ^ trace.back().b);
      op.out_toggles = std::popcount(op.product ^ trace.back().product);
    }
    trace.push_back(op);
  }
  return trace;
}

TEST(BatchKernelTest, TraceEqualityAcrossKernels) {
  // The layer above: compute_op_trace (batch words) must emit the exact
  // OpTrace vector the dense oracle steps out — plain, aged, and faulted.
  const std::size_t ops = 200;
  const BtiModel model = BtiModel::calibrated(test_tech());
  for (const auto arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree}) {
    SCOPED_TRACE(arch_name(arch));
    const MultiplierNetlist m = build_multiplier(arch, 16);
    Rng pattern_rng(0x7EA7);
    const auto patterns = uniform_patterns(pattern_rng, m.width, ops);
    const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
    const auto aged = scenario.delay_scales_at(3.0);
    FaultOverlay overlay(m.netlist.num_gates());
    overlay.add({.kind = FaultKind::kStuckAt0,
                 .gate = static_cast<GateId>(m.netlist.num_gates() / 2)});
    overlay.add({.kind = FaultKind::kTransient,
                 .gate = static_cast<GateId>(m.netlist.num_gates() / 3),
                 .cycle = 70});

    const FaultOverlay* overlay_cases[] = {nullptr, &overlay};
    for (const FaultOverlay* faults : overlay_cases) {
      for (const std::span<const double> aging :
           {std::span<const double>{}, std::span<const double>(aged)}) {
        BatchStats stats;
        const TraceOptions opts{.gate_delay_scale = aging,
                                .faults = faults,
                                .batch_stats = &stats};
        const auto batch_trace =
            compute_op_trace(m, test_tech(), patterns, opts);
        ASSERT_EQ(dense_trace(m, patterns, aging, faults), batch_trace);
        EXPECT_EQ(stats.lanes, ops);
        EXPECT_EQ(stats.words, (ops + kBatchLanes - 1) / kBatchLanes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// K aging corners per sweep: corner c of a K-corner trace must be `==` to a
// one-corner trace under corner c, and so to the dense scalar oracle, for
// every K — including K past kMaxSweepCorners, which compute_op_trace
// splits into several sweeps.
// ---------------------------------------------------------------------------

/// Distinct corner tables of `m`: fresh, two BTI years and a process-
/// variation die.
std::vector<std::vector<double>> corner_pool(const MultiplierNetlist& m) {
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  return {{},
          scenario.delay_scales_at(3.0),
          scenario.delay_scales_at(7.0),
          process_variation_scales(m.netlist, 0.08, 0xC0)};
}

/// Overlays for the multi-corner differential: none, stuck-ats, transient
/// strikes (every tri-state, so struck keepers hold their flip, plus word
/// boundary lanes) and a delay outlier.
std::vector<FaultOverlay> corner_overlays(const MultiplierNetlist& m) {
  const std::size_t g = m.netlist.num_gates();
  std::vector<FaultOverlay> overlays(4, FaultOverlay(g));
  overlays[1].add(
      {.kind = FaultKind::kStuckAt0, .gate = static_cast<GateId>(g / 3)});
  overlays[1].add(
      {.kind = FaultKind::kStuckAt1, .gate = static_cast<GateId>(2 * g / 3)});
  std::int64_t cycle = 5;
  for (GateId gate = 0; gate < g; ++gate) {
    if (m.netlist.gate(gate).kind != CellKind::kTbuf) continue;
    overlays[2].add(
        {.kind = FaultKind::kTransient, .gate = gate, .cycle = cycle});
    cycle = 5 + (cycle + 7) % 110;
  }
  for (const std::int64_t c : {0, 63, 64, 100}) {
    overlays[2].add({.kind = FaultKind::kTransient,
                     .gate = static_cast<GateId>(g / 2 + c % (g / 4)),
                     .cycle = c});
  }
  overlays[3].add({.kind = FaultKind::kDelayOutlier,
                   .gate = static_cast<GateId>(g - 10),
                   .delay_factor = 4.0});
  return overlays;
}

/// For each K, three corner lists over `pool` — all fresh, all aged, and
/// mixed fresh/aged — traced in one call each; corner c must equal the
/// one-corner trace of its table, which must equal the dense oracle's.
void expect_multi_corner_identical(const MultiplierNetlist& m,
                                   const FaultOverlay* faults) {
  const std::size_t ops = 130;  // two full words and a 2-lane tail
  Rng pattern_rng(0x3C0E);
  const auto patterns = uniform_patterns(pattern_rng, m.width, ops);
  const std::vector<std::vector<double>> pool = corner_pool(m);
  std::vector<std::vector<OpTrace>> single;
  for (const std::vector<double>& table : pool) {
    single.push_back(compute_op_trace(
        m, test_tech(), patterns,
        TraceOptions{.gate_delay_scale = table, .faults = faults}));
    ASSERT_EQ(single.back(), dense_trace(m, patterns, table, faults));
  }
  const std::size_t words = (ops + kBatchLanes - 1) / kBatchLanes;
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{16},
        static_cast<std::size_t>(kMaxSweepCorners) + 1}) {
    for (const char* mix : {"fresh", "aged", "mixed"}) {
      SCOPED_TRACE(testing::Message() << "K " << k << ", " << mix);
      std::vector<std::size_t> table_of(k);
      for (std::size_t c = 0; c < k; ++c) {
        table_of[c] = mix[0] == 'f'   ? 0
                      : mix[0] == 'a' ? 1 + c % (pool.size() - 1)
                                      : (c * 3 + 1) % pool.size();
      }
      std::vector<std::span<const double>> corners;
      for (const std::size_t t : table_of) corners.emplace_back(pool[t]);
      BatchStats stats;
      const auto traces = compute_op_trace(
          m, test_tech(), patterns, corners,
          TraceOptions{.faults = faults, .batch_stats = &stats});
      ASSERT_EQ(traces.size(), k);
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_EQ(traces[c], single[table_of[c]]) << "corner " << c;
      }
      const std::size_t sweeps =
          (k + kMaxSweepCorners - 1) / kMaxSweepCorners;
      EXPECT_EQ(stats.words, sweeps * words);
      EXPECT_EQ(stats.corner_words, k * words);
      EXPECT_EQ(stats.lanes, sweeps * ops);
    }
  }
}

TEST(BatchKernelTest, MultiCornerTracesMatchSingleCornerAndDense) {
  for (const auto arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree}) {
    for (const int width : {8, 16}) {
      SCOPED_TRACE(testing::Message() << arch_name(arch) << width);
      expect_multi_corner_identical(build_multiplier(arch, width), nullptr);
    }
  }
}

TEST(BatchKernelTest, MultiCornerTracesMatchDenseUnderFaults) {
  for (const auto arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree}) {
    for (const int width : {8, 16}) {
      const MultiplierNetlist m = build_multiplier(arch, width);
      const std::vector<FaultOverlay> overlays = corner_overlays(m);
      for (std::size_t o = 1; o < overlays.size(); ++o) {
        SCOPED_TRACE(testing::Message()
                     << arch_name(arch) << width << ", overlay " << o);
        expect_multi_corner_identical(m, &overlays[o]);
      }
    }
  }
}

TEST(BatchKernelTest, MultiCornerWordsMatchOneSimPerCorner) {
  // Word level, with the corner set swapped mid-run (K = 3, then 1, then
  // kMaxSweepCorners): every corner's lanes equal a one-corner simulator's,
  // and the shared values equal every one of them.
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const std::vector<std::vector<double>> pool = corner_pool(m);
  BatchTimingSim multi(m.netlist, test_tech());
  std::vector<BatchTimingSim> singles;
  for (std::size_t t = 0; t < pool.size(); ++t) {
    singles.emplace_back(m.netlist, test_tech(), pool[t]);
  }
  Rng rng(0x0C0E);
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  std::uint64_t corner_words = 0;
  for (const std::size_t k :
       {std::size_t{3}, std::size_t{1},
        static_cast<std::size_t>(kMaxSweepCorners)}) {
    std::vector<std::span<const double>> corners;
    for (std::size_t c = 0; c < k; ++c) {
      corners.emplace_back(pool[(c + 1) % pool.size()]);
    }
    multi.set_corners(corners);
    ASSERT_EQ(multi.num_corners(), k);
    for (int w = 0; w < 2; ++w) {
      const int lanes = w == 0 ? kBatchLanes : 37;
      for (int l = 0; l < lanes; ++l) {
        multi.load_bus_lane(words, rng.next_bits(m.width), m.width,
                            m.a_first_input, l);
        multi.load_bus_lane(words, rng.next_bits(m.width), m.width,
                            m.b_first_input, l);
      }
      multi.step_word(words, lanes);
      corner_words += k;
      for (BatchTimingSim& single : singles) single.step_word(words, lanes);
      for (std::size_t c = 0; c < k; ++c) {
        const std::span<const StepResult> got = multi.results(c);
        const std::span<const StepResult> want =
            singles[(c + 1) % pool.size()].results(0);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
          const StepResult& g = got[static_cast<std::size_t>(l)];
          const StepResult& s = want[static_cast<std::size_t>(l)];
          ASSERT_EQ(g.output_settle_ps, s.output_settle_ps)
              << "K " << k << " corner " << c << " lane " << l;
          ASSERT_EQ(g.settle_ps, s.settle_ps);
          ASSERT_EQ(g.toggles, s.toggles);
          ASSERT_EQ(g.switched_cap_ff, s.switched_cap_ff);
        }
      }
      for (NetId n = 0; n < m.netlist.num_nets(); ++n) {
        ASSERT_EQ(multi.lane_value(n, lanes - 1),
                  singles[0].lane_value(n, lanes - 1));
      }
    }
  }
  EXPECT_EQ(multi.stats().corner_words, corner_words);
  EXPECT_EQ(multi.stats().words, 6u);
}

TEST(BatchKernelTest, MultiCornerRejectsMalformedCorners) {
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  Rng rng(0xBAD);
  const auto patterns = uniform_patterns(rng, m.width, 70);
  const std::vector<double> good(m.netlist.num_gates(), 1.1);
  const std::vector<double> wrong(m.netlist.num_gates() - 1, 1.1);
  const std::vector<std::span<const double>> corners = {
      std::span<const double>{}, good, wrong};
  EXPECT_THROW(compute_op_trace(m, test_tech(), patterns, corners),
               std::invalid_argument);
  // Past the cap the wrong table sits in the second sweep; still rejected.
  std::vector<std::span<const double>> long_list(
      static_cast<std::size_t>(kMaxSweepCorners), good);
  long_list.emplace_back(wrong);
  EXPECT_THROW(compute_op_trace(m, test_tech(), patterns, long_list),
               std::invalid_argument);
  // The corners replace TraceOptions' one aging table.
  EXPECT_THROW(compute_op_trace(m, test_tech(), patterns,
                                std::span(corners).first(2),
                                TraceOptions{.gate_delay_scale = good}),
               std::invalid_argument);
  EXPECT_TRUE(compute_op_trace(m, test_tech(), patterns,
                               std::span<const std::span<const double>>{})
                  .empty());

  BatchTimingSim sim(m.netlist, test_tech());
  EXPECT_THROW(sim.set_corners({}), std::invalid_argument);
  std::vector<std::span<const double>> too_many(
      static_cast<std::size_t>(kMaxSweepCorners) + 1);
  EXPECT_THROW(sim.set_corners(too_many), std::invalid_argument);
  EXPECT_THROW(sim.set_corners(std::span(corners).subspan(2)),
               std::invalid_argument);
  EXPECT_EQ(sim.num_corners(), 1u);
  EXPECT_THROW((void)sim.results(1), std::out_of_range);
}

TEST(BatchKernelTest, KernelEnvResolution) {
  // One production kernel: the default resolves to the batch kernel, and
  // the environment no longer selects anything.
  EXPECT_EQ(resolve_kernel(SimKernel::kAuto), SimKernel::kBatch);
  EXPECT_EQ(resolve_kernel(SimKernel::kBatch), SimKernel::kBatch);
  EXPECT_STREQ(kernel_name(resolve_kernel(SimKernel::kAuto)), "batch");
  ScopedEnv scoped("AGINGSIM_KERNEL", "dense");
  EXPECT_EQ(resolve_kernel(SimKernel::kAuto), SimKernel::kBatch);
}

TEST(BatchKernelTest, LaneBackendReportsAName) {
  const std::string backend = BatchTimingSim::lane_backend();
  EXPECT_TRUE(backend == "avx2" || backend == "generic") << backend;
}

}  // namespace
}  // namespace agingsim
