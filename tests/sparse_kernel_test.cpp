// Differential tests of the production trace path against the dense scalar
// TimingSim, its oracle. The suite name dates from the event-driven kernel
// `compute_op_trace` used to run; the contract is the same for the batch
// kernel that replaced it: every OpTrace record (product, golden check,
// delay, switched capacitance, toggles, fault_active) must be exactly `==`
// to what stepping the dense kernel one pattern at a time yields — across
// operand streams of every activity level, aging overlays, all fault kinds
// and overlay swaps that land in the middle of the pattern stream.
// tests/batch_kernel_test.cpp drives BatchTimingSim word by word instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

const TechLibrary& test_tech() {
  static const TechLibrary t = calibrated_tech_library(1880.0);
  return t;
}

/// The OpTrace the dense scalar kernel yields for `patterns`, built field
/// by field with the semantics `compute_op_trace` documents.
std::vector<OpTrace> dense_trace(const MultiplierNetlist& m,
                                 std::span<const OperandPattern> patterns,
                                 const FaultOverlay* overlay,
                                 std::span<const double> aging) {
  MultiplierSim sim(m, test_tech(), aging);
  sim.set_mode(TimingSim::Mode::kDense);
  if (overlay != nullptr) sim.set_fault_overlay(overlay);
  std::vector<OpTrace> trace;
  trace.reserve(patterns.size());
  for (const OperandPattern& pat : patterns) {
    const StepResult step = sim.apply(pat.a, pat.b);
    OpTrace op;
    op.a = pat.a;
    op.b = pat.b;
    op.product = sim.product();
    op.golden = reference_multiply(pat.a, pat.b, m.width);
    op.correct = (op.product == op.golden);
    op.fault_active =
        overlay != nullptr &&
        overlay->active_at(static_cast<std::int64_t>(trace.size()));
    op.delay_ps = step.output_settle_ps;
    op.switched_cap_ff = step.switched_cap_ff;
    if (!trace.empty()) {
      const OpTrace& prev = trace.back();
      op.in_toggles =
          std::popcount(pat.a ^ prev.a) + std::popcount(pat.b ^ prev.b);
      op.out_toggles = std::popcount(op.product ^ prev.product);
    }
    trace.push_back(op);
  }
  return trace;
}

/// Runs `compute_op_trace` with `options` and requires it to equal the
/// dense oracle's trace record for record. Returns the batch counters.
BatchStats expect_trace_matches_dense(const MultiplierNetlist& m,
                                      std::span<const OperandPattern> patterns,
                                      TraceOptions options = {}) {
  BatchStats stats;
  options.batch_stats = &stats;
  const std::vector<OpTrace> got =
      compute_op_trace(m, test_tech(), patterns, options);
  const std::vector<OpTrace> want =
      dense_trace(m, patterns, options.faults, options.gate_delay_scale);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    // Exact equality on purpose: the kernels promise identity, not
    // closeness.
    if (got[i] == want[i]) continue;
    ADD_FAILURE() << "op " << i << " diverged: product " << got[i].product
                  << " vs " << want[i].product << ", delay "
                  << got[i].delay_ps << " vs " << want[i].delay_ps
                  << ", cap " << got[i].switched_cap_ff << " vs "
                  << want[i].switched_cap_ff << ", fault_active "
                  << got[i].fault_active << " vs " << want[i].fault_active;
    break;
  }
  EXPECT_EQ(stats.lanes, patterns.size());
  return stats;
}

TEST(SparseKernelTest, MatchesDenseOnRandomPatterns) {
  for (const auto arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass}) {
    SCOPED_TRACE(arch_name(arch));
    const MultiplierNetlist m = build_multiplier(arch, 16);
    Rng rng(0xD1FF);
    // Uniform operands, a correlated DSP stream and a low-activity FIR tap
    // stream, concatenated so the activity level changes mid-word.
    std::vector<OperandPattern> patterns = uniform_patterns(rng, m.width, 150);
    const std::vector<OperandPattern> dsp = dsp_patterns(rng, m.width, 150);
    const std::vector<OperandPattern> fir = fir_tap_patterns(rng, m.width, 150);
    patterns.insert(patterns.end(), dsp.begin(), dsp.end());
    patterns.insert(patterns.end(), fir.begin(), fir.end());
    expect_trace_matches_dense(m, patterns);

    // On the FIR stream alone whole cones stay idle for a word at a time,
    // so the production kernel evaluates strictly fewer gate-words than a
    // full sweep would.
    const BatchStats fir_stats = expect_trace_matches_dense(m, fir);
    EXPECT_LT(fir_stats.gates_evaluated,
              fir_stats.words * m.netlist.num_gates());
    EXPECT_GT(fir_stats.gates_evaluated, 0u);
  }
}

TEST(SparseKernelTest, MatchesDenseUnderAgingOverlay) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  const auto scales = scenario.delay_scales_at(5.0);
  Rng rng(0xA6ED);
  const auto patterns = uniform_patterns(rng, m.width, 300);
  expect_trace_matches_dense(m, patterns,
                             TraceOptions{.gate_delay_scale = scales});
}

TEST(SparseKernelTest, MatchesDenseUnderStuckAtFaults) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const std::size_t g = m.netlist.num_gates();
  FaultOverlay overlay(g);
  overlay.add(
      {.kind = FaultKind::kStuckAt0, .gate = static_cast<GateId>(g / 3)});
  overlay.add(
      {.kind = FaultKind::kStuckAt1, .gate = static_cast<GateId>(2 * g / 3)});
  Rng rng(0x57A0);
  const auto patterns = uniform_patterns(rng, m.width, 300);
  expect_trace_matches_dense(m, patterns, TraceOptions{.faults = &overlay});
}

TEST(SparseKernelTest, MatchesDenseAcrossTransientWindows) {
  const MultiplierNetlist m = build_row_bypass_multiplier(16);
  const std::size_t g = m.netlist.num_gates();
  FaultOverlay overlay(g);
  // Strikes scattered through the run: the very first op, back-to-back
  // cycles in mid-word (the flip and un-flip sweeps overlap), the last
  // lane of a word and the first lane of the next, and the last op of the
  // trace, which sits in a partial tail word.
  for (const std::int64_t cycle : {0, 57, 58, 127, 128, 299}) {
    overlay.add({.kind = FaultKind::kTransient,
                 .gate = static_cast<GateId>(
                     g / 2 + static_cast<std::size_t>(cycle) % (g / 3)),
                 .cycle = cycle});
  }
  Rng rng(0x7EA5);
  const auto patterns = uniform_patterns(rng, m.width, 300);
  expect_trace_matches_dense(m, patterns, TraceOptions{.faults = &overlay});
}

TEST(SparseKernelTest, MatchesDenseUnderDelayOutliers) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kDelayOutlier,
               .gate = static_cast<GateId>(m.netlist.num_gates() - 10),
               .delay_factor = 4.0});
  Rng rng(0x0D1E);
  const auto patterns = uniform_patterns(rng, m.width, 300);
  expect_trace_matches_dense(m, patterns, TraceOptions{.faults = &overlay});
}

TEST(SparseKernelTest, OverlaySwapMidRunForcesConsistentState) {
  // Overlay and aging swaps that land after a partial word: the batch
  // kernel must carry the dense kernel's state across the swap even when
  // the next word does not start on a 64-pattern boundary.
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kStuckAt1,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 2)});
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  const auto aged = scenario.delay_scales_at(7.0);

  MultiplierSim dense(m, test_tech());
  dense.set_mode(TimingSim::Mode::kDense);
  BatchTimingSim batch(m.netlist, test_tech());
  Rng rng(0xABCD);
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  std::vector<std::uint64_t> a_ops(kBatchLanes), b_ops(kBatchLanes);
  const auto run_both = [&](std::initializer_list<int> word_lanes) {
    for (const int lanes : word_lanes) {
      std::fill(words.begin(), words.end(), 0);
      for (int l = 0; l < lanes; ++l) {
        const auto i = static_cast<std::size_t>(l);
        a_ops[i] = rng.next_bits(m.width);
        b_ops[i] = rng.next_bits(m.width);
        batch.load_bus_lane(words, a_ops[i], m.width, m.a_first_input, l);
        batch.load_bus_lane(words, b_ops[i], m.width, m.b_first_input, l);
      }
      const std::span<const StepResult> res = batch.step_word(words, lanes);
      for (int l = 0; l < lanes; ++l) {
        const auto i = static_cast<std::size_t>(l);
        const StepResult d = dense.apply(a_ops[i], b_ops[i]);
        ASSERT_EQ(d.output_settle_ps, res[i].output_settle_ps) << "lane " << l;
        ASSERT_EQ(d.settle_ps, res[i].settle_ps) << "lane " << l;
        ASSERT_EQ(d.toggles, res[i].toggles) << "lane " << l;
        ASSERT_EQ(d.switched_cap_ff, res[i].switched_cap_ff) << "lane " << l;
      }
      for (std::size_t n = 0; n < m.netlist.num_nets(); ++n) {
        const NetId net = static_cast<NetId>(n);
        ASSERT_EQ(dense.timing_sim().value(net),
                  batch.lane_value(net, lanes - 1))
            << "net " << n;
      }
    }
  };
  run_both({64, 36});
  dense.set_fault_overlay(&overlay);  // install mid-run...
  batch.set_fault_overlay(&overlay);
  run_both({17, 64});
  dense.set_aging(aged);  // ...age the circuit under the fault...
  batch.set_aging(aged);
  run_both({1, 50});
  dense.set_fault_overlay(nullptr);  // ...and release mid-run
  batch.set_fault_overlay(nullptr);
  run_both({63, 64});
  EXPECT_EQ(batch.steps(), 64 + 36 + 17 + 64 + 1 + 50 + 63 + 64);
}

}  // namespace
}  // namespace agingsim
