#include "src/core/vl_multiplier.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "src/sim/sta.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

// Per-bit energy of the AHL zero-counter + comparator per judged pattern.
// The AHL is a popcount tree over the judging operand: its activity scales
// with the operand width.
constexpr double kAhlEnergyPerBitFj = 0.5;

std::string to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), digits[v & 0xF]);
    v >>= 4;
  } while (v != 0);
  return out;
}

// Without injected faults a mismatch is a netlist or simulator bug; carry
// everything needed to reproduce it in the message.
[[noreturn]] void throw_product_mismatch(std::size_t index, std::uint64_t a,
                                         std::uint64_t b, std::uint64_t golden,
                                         std::uint64_t product) {
  throw std::logic_error(
      "compute_op_trace: netlist product mismatch at pattern index " +
      std::to_string(index) + ": " + std::to_string(a) + " * " +
      std::to_string(b) + ": expected " + std::to_string(golden) + " (0x" +
      to_hex(golden) + "), netlist says " + std::to_string(product) + " (0x" +
      to_hex(product) + ")");
}

}  // namespace

std::vector<std::vector<OpTrace>> compute_op_trace(
    const MultiplierNetlist& mult, const TechLibrary& tech,
    std::span<const OperandPattern> patterns,
    std::span<const std::span<const double>> corners,
    const TraceOptions& options) {
  if (!options.gate_delay_scale.empty()) {
    throw std::invalid_argument(
        "compute_op_trace: pass aging as corners, not gate_delay_scale");
  }
  std::vector<std::vector<OpTrace>> traces(corners.size());
  for (std::vector<OpTrace>& trace : traces) trace.reserve(patterns.size());
  BatchStats total;
  std::vector<std::uint64_t> words(mult.netlist.input_nets().size());
  for (std::size_t first = 0; first < corners.size();
       first += static_cast<std::size_t>(kMaxSweepCorners)) {
    const std::size_t k = std::min<std::size_t>(
        kMaxSweepCorners, corners.size() - first);
    BatchTimingSim sim(mult.netlist, tech);
    sim.set_corners(corners.subspan(first, k));
    if (options.faults != nullptr) sim.set_fault_overlay(options.faults);

    OpTrace prev;
    for (std::size_t chunk = 0; chunk < patterns.size();
         chunk += static_cast<std::size_t>(kBatchLanes)) {
      const int lanes = static_cast<int>(
          std::min<std::size_t>(kBatchLanes, patterns.size() - chunk));
      std::fill(words.begin(), words.end(), 0);
      for (int l = 0; l < lanes; ++l) {
        const OperandPattern& pat =
            patterns[chunk + static_cast<std::size_t>(l)];
        sim.load_bus_lane(words, pat.a, mult.width, mult.a_first_input, l);
        sim.load_bus_lane(words, pat.b, mult.width, mult.b_first_input, l);
      }
      const std::int64_t base = sim.steps();
      const std::span<const StepResult> results = sim.step_word(words, lanes);
      for (int l = 0; l < lanes; ++l) {
        const std::size_t index = chunk + static_cast<std::size_t>(l);
        const OperandPattern& pat = patterns[index];
        const StepResult& step = results[static_cast<std::size_t>(l)];
        OpTrace op;
        op.a = pat.a;
        op.b = pat.b;
        op.product = sim.output_bits(l);
        op.golden = reference_multiply(pat.a, pat.b, mult.width);
        op.correct = (op.product == op.golden);
        op.fault_active =
            options.faults != nullptr && options.faults->active_at(base + l);
        op.switched_cap_ff = step.switched_cap_ff;
        if (index > 0) {
          op.in_toggles = std::popcount(pat.a ^ prev.a) +
                          std::popcount(pat.b ^ prev.b);
          op.out_toggles = std::popcount(op.product ^ prev.product);
        }
        if (!op.correct && options.faults == nullptr) {
          throw_product_mismatch(index, pat.a, pat.b, op.golden, op.product);
        }
        for (std::size_t c = 0; c < k; ++c) {
          op.delay_ps = sim.results(c)[static_cast<std::size_t>(l)]
                            .output_settle_ps;
          traces[first + c].push_back(op);
        }
        prev = op;
      }
    }
    total.words += sim.stats().words;
    total.corner_words += sim.stats().corner_words;
    total.lanes += sim.stats().lanes;
    total.gates_evaluated += sim.stats().gates_evaluated;
  }
  if (options.batch_stats != nullptr) *options.batch_stats = total;
  return traces;
}

std::vector<OpTrace> compute_op_trace(const MultiplierNetlist& mult,
                                      const TechLibrary& tech,
                                      std::span<const OperandPattern> patterns,
                                      const TraceOptions& options) {
  TraceOptions rest = options;
  rest.gate_delay_scale = {};
  return std::move(compute_op_trace(mult, tech, patterns,
                                    {&options.gate_delay_scale, 1}, rest)[0]);
}

std::vector<OpTrace> compute_op_trace(
    const MultiplierNetlist& mult, const TechLibrary& tech,
    std::span<const OperandPattern> patterns,
    std::span<const double> gate_delay_scale) {
  return compute_op_trace(mult, tech, patterns,
                          TraceOptions{.gate_delay_scale = gate_delay_scale});
}

double critical_path_ps(const MultiplierNetlist& mult, const TechLibrary& tech,
                        std::span<const double> gate_delay_scale) {
  const StaCorner corner{
      "", {gate_delay_scale.begin(), gate_delay_scale.end()}};
  return StaEngine(mult.netlist, tech).run({&corner, 1})[0].critical_path_ps;
}

VariableLatencySystem::VariableLatencySystem(const MultiplierNetlist& mult,
                                             const TechLibrary& tech,
                                             VlSystemConfig config)
    : mult_(&mult), tech_(&tech), config_(config), power_(tech) {
  if (!(config.period_ps > 0.0)) {
    throw std::invalid_argument("VariableLatencySystem: period must be > 0");
  }
  if (config.ahl.width != mult.width) {
    throw std::invalid_argument(
        "VariableLatencySystem: AHL width must match the multiplier width");
  }
}

RunStats VariableLatencySystem::run(std::span<const OpTrace> trace,
                                    double mean_dvth_v) {
  AdaptiveHoldLogic ahl(config_.ahl);
  RazorBank razor(config_.razor);
  const double period = config_.period_ps;
  const bool judge_on_a = judges_on_multiplicand(mult_->arch);
  const int width = mult_->width;
  const int ff_bits = 2 * width;  // per bank: two operands in, 2m product out

  Rng escape_rng(config_.razor_seed);
  RunStats s;
  s.period_ps = period;
  for (const OpTrace& op : trace) {
    const std::uint64_t judging = judge_on_a ? op.a : op.b;
    if (ahl.storm_active()) ++s.storm_ops;
    const int decided = ahl.decide_cycles(judging);
    bool error = false;
    // Whether the word the architecture finally commits equals a*b. Razor
    // re-execution recovers *timing* faults (the settled product), never
    // functional ones — a stuck-at that corrupts the settled value escapes
    // to SDC even when a violation happened to be flagged on the same op.
    bool committed_correct;
    std::uint64_t cycles;
    if (decided == 1) {
      ++s.one_cycle_ops;
      if (RazorBank::violation(op.delay_ps, period)) {
        const double p_detect = razor.detection_probability(op.delay_ps,
                                                            period);
        const bool detected =
            p_detect > 0.0 && escape_rng.next_double() < p_detect;
        if (detected) {
          error = true;
          ++s.errors;
          cycles = 1 + static_cast<std::uint64_t>(razor.reexec_penalty_cycles());
          committed_correct = op.correct;  // re-exec commits the settled word
        } else if (razor.detectable(op.delay_ps, period)) {
          // In-window violation the comparator missed (metastability): the
          // main flip-flop's marginal capture is committed unchallenged.
          ++s.razor_escapes;
          cycles = 1;
          committed_correct = false;
        } else {
          // Outside the shadow window: silently wrong result. The fault-free
          // variable-latency contract (T >= crit/2) makes this impossible;
          // tracked so tests and benches can assert it stays zero — and so
          // fault campaigns can measure when injected delay outliers break
          // the contract.
          ++s.undetected;
          cycles = 1;
          committed_correct = false;
        }
      } else {
        cycles = 1;
        committed_correct = op.correct;
      }
    } else {
      ++s.two_cycle_ops;
      cycles = 2;
      committed_correct = op.correct;
      if (op.delay_ps > 2.0 * period) {
        ++s.undetected;
        committed_correct = false;
      }
    }
    if (!committed_correct) {
      ++s.sdc_ops;
    } else if (op.fault_active && !error) {
      ++s.masked_faults;
    }
    ahl.record_outcome(error);

    s.total_cycles += cycles;
    ++s.ops;

    // Energy. Combinational switching is policy-independent; registers and
    // AHL depend on the cycle structure:
    //  - input flip-flops latch new operands once per op; hold cycles are
    //    clock-gated (the paper's !(gating) signal), so they contribute no
    //    further clock energy;
    //  - Razor flip-flops sample every cycle (they cannot be gated — they
    //    are the error detector).
    s.comb_energy_fj += power_.dynamic_energy_fj(op.switched_cap_ff);
    s.register_energy_fj += power_.dff_bank_energy_fj(ff_bits, op.in_toggles);
    s.register_energy_fj +=
        static_cast<double>(cycles) *
        power_.razor_bank_energy_fj(ff_bits, 0) +
        power_.razor_bank_energy_fj(0, op.out_toggles);
    s.ahl_energy_fj += kAhlEnergyPerBitFj * static_cast<double>(width);
  }
  s.switched_to_second_block = ahl.using_second_block();
  s.storm_engagements = ahl.storm_engagements();
  s.storm_recoveries = ahl.storm_recoveries();

  const double total_time_ps =
      static_cast<double>(s.total_cycles) * period;
  const double leak_nw =
      power_.leakage_power_nw(mult_->netlist, mean_dvth_v);
  // nW * ps = 1e-9 W * 1e-12 s = 1e-21 J = 1e-6 fJ.
  s.leakage_energy_fj = leak_nw * total_time_ps * 1e-6;
  s.total_energy_fj = s.comb_energy_fj + s.register_energy_fj +
                      s.ahl_energy_fj + s.leakage_energy_fj;

  if (s.ops > 0) {
    s.avg_cycles = static_cast<double>(s.total_cycles) /
                   static_cast<double>(s.ops);
    s.avg_latency_ps = s.avg_cycles * period;
    s.one_cycle_ratio = static_cast<double>(s.one_cycle_ops) /
                        static_cast<double>(s.ops);
    s.errors_per_10k_ops = static_cast<double>(s.errors) * 10000.0 /
                           static_cast<double>(s.ops);
    s.sdc_per_10k_ops = static_cast<double>(s.sdc_ops) * 10000.0 /
                        static_cast<double>(s.ops);
    // fJ / ps = mW.
    s.avg_power_mw = s.total_energy_fj / total_time_ps;
    s.edp_mw_ns2 = energy_delay_product(s.avg_power_mw,
                                        s.avg_latency_ps * 1e-3);
  }
  return s;
}

FixedLatencySystem::FixedLatencySystem(const MultiplierNetlist& mult,
                                       const TechLibrary& tech)
    : mult_(&mult), tech_(&tech), power_(tech) {}

RunStats FixedLatencySystem::run(std::span<const OpTrace> trace,
                                 double period_ps, double mean_dvth_v) {
  if (!(period_ps > 0.0)) {
    throw std::invalid_argument("FixedLatencySystem: period must be > 0");
  }
  const int ff_bits = 2 * mult_->width;
  RunStats s;
  s.period_ps = period_ps;
  for (const OpTrace& op : trace) {
    if (op.delay_ps > period_ps) {
      // A fixed-latency design clocked faster than its critical path is
      // simply broken; callers must pass the (aged) critical path.
      ++s.undetected;
    }
    // No Razor here: every late settle or corrupted settle commits.
    if (!op.correct || op.delay_ps > period_ps) {
      ++s.sdc_ops;
    } else if (op.fault_active) {
      ++s.masked_faults;
    }
    ++s.ops;
    s.total_cycles += 1;
    s.comb_energy_fj += power_.dynamic_energy_fj(op.switched_cap_ff);
    // Plain D flip-flop banks at input and output (paper's fairness note in
    // Section IV-E: baseline power includes both register banks).
    s.register_energy_fj += power_.dff_bank_energy_fj(ff_bits, op.in_toggles);
    s.register_energy_fj += power_.dff_bank_energy_fj(ff_bits, op.out_toggles);
  }
  const double total_time_ps =
      static_cast<double>(s.total_cycles) * period_ps;
  const double leak_nw = power_.leakage_power_nw(mult_->netlist, mean_dvth_v);
  s.leakage_energy_fj = leak_nw * total_time_ps * 1e-6;
  s.total_energy_fj =
      s.comb_energy_fj + s.register_energy_fj + s.leakage_energy_fj;
  if (s.ops > 0) {
    s.avg_cycles = 1.0;
    s.avg_latency_ps = period_ps;
    s.one_cycle_ratio = 1.0;
    s.sdc_per_10k_ops = static_cast<double>(s.sdc_ops) * 10000.0 /
                        static_cast<double>(s.ops);
    s.avg_power_mw = s.total_energy_fj / total_time_ps;
    s.edp_mw_ns2 =
        energy_delay_product(s.avg_power_mw, s.avg_latency_ps * 1e-3);
  }
  return s;
}

}  // namespace agingsim
