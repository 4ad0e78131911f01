#include "src/sim/batch_sim.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/netlist/cell.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/batch_sweep.hpp"
#include "src/sim/density_model.hpp"

namespace agingsim {
namespace detail {

#define AGINGSIM_SWEEP_FN run_sweep_generic
#include "src/sim/batch_sweep.inl"
#undef AGINGSIM_SWEEP_FN

}  // namespace detail

namespace {

// Accumulated per word, never per gate (same discipline as the scalar
// kernel's SimMetrics).
struct BatchMetrics {
  const obs::Counter& words = obs::counter("sim.batch.words");
  const obs::Counter& corner_words = obs::counter("sim.batch.corner_words");
  const obs::Counter& lanes = obs::counter("sim.batch.lanes");
  const obs::Counter& gates = obs::counter("sim.batch.gates_evaluated");
};

const BatchMetrics& batch_metrics() {
  static const BatchMetrics m;
  return m;
}

/// A stack of free lane slots plus the high-water mark.
struct SlotPool {
  std::vector<std::uint32_t> free;
  std::uint32_t count = 0;

  std::uint32_t acquire() {
    if (free.empty()) return count++;
    const std::uint32_t slot = free.back();
    free.pop_back();
    return slot;
  }
};

/// Assigns every net a density slot and, unless its arrival is a constant,
/// an arrival slot, such that nets whose live ranges overlap never share
/// one. A live range runs from the driver's evaluation (primary inputs:
/// before the first gate) to the last reader; primary outputs stay live to
/// the end of the sweep, where their arrivals feed output_settle_ps. A
/// gate's output is assigned before its inputs are released, so no gate
/// reads and writes one slot. Returns the two pool sizes.
std::pair<std::uint32_t, std::uint32_t> assign_lane_slots(
    const Netlist& nl, std::vector<std::uint32_t>& density_slot,
    std::vector<std::uint32_t>& arrival_slot) {
  constexpr std::int64_t kUnread = -1;
  const auto num_gates = static_cast<std::int64_t>(nl.num_gates());
  std::vector<std::int64_t> last_read(nl.num_nets(), kUnread);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (const NetId n : nl.gate_inputs(g)) last_read[n] = g;
  }
  for (const NetId n : nl.output_nets()) last_read[n] = num_gates;

  density_slot.assign(nl.num_nets(), 0);
  arrival_slot.assign(nl.num_nets(), detail::kNoArrivalSlot);
  SlotPool dens, arr;
  std::vector<char> released(nl.num_nets(), 0);
  const auto release = [&](NetId n) {
    if (released[n] != 0) return;  // a gate may read one net twice
    released[n] = 1;
    dens.free.push_back(density_slot[n]);
    if (arrival_slot[n] != detail::kNoArrivalSlot) {
      arr.free.push_back(arrival_slot[n]);
    }
  };
  for (const NetId n : nl.input_nets()) {
    density_slot[n] = dens.acquire();
    if (last_read[n] == kUnread) release(n);
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const NetId out = nl.gate(g).out;
    const auto ins = nl.gate_inputs(g);
    density_slot[out] = dens.acquire();
    const bool reads_only_inputs = std::all_of(
        ins.begin(), ins.end(), [&](NetId n) { return nl.driver_of(n) < 0; });
    if (!reads_only_inputs) arrival_slot[out] = arr.acquire();
    for (const NetId n : ins) {
      if (last_read[n] == static_cast<std::int64_t>(g)) release(n);
    }
    if (last_read[out] == kUnread) release(out);
  }
  return {dens.count, arr.count};
}

bool use_avx2_sweep() {
  static const bool enabled = [] {
    if (!detail::avx2_sweep_available()) return false;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return enabled;
}

}  // namespace

BatchTimingSim::BatchTimingSim(const Netlist& netlist, const TechLibrary& tech,
                               std::span<const double> gate_delay_scale)
    : netlist_(&netlist), tech_(&tech) {
  const std::size_t nets = netlist.num_nets();
  plane0_.assign(nets, 0);
  plane1_.assign(nets, 0);
  word_epoch_.assign(nets, 0);
  last_value_.assign(nets, Logic::kX);  // power-up: nothing driven yet
  const auto [density_slots, arrival_slots] =
      assign_lane_slots(netlist, density_slot_, arrival_slot_);
  arrival_slots_ = arrival_slots;
  changed_.assign(density_slots, 0);
  active_.assign(density_slots, 0);
  density_.assign(std::size_t(density_slots) * kBatchLanes, 0.0f);
  set_aging(gate_delay_scale);
}

void BatchTimingSim::set_aging(std::span<const double> gate_delay_scale) {
  set_corners({&gate_delay_scale, 1});
}

void BatchTimingSim::set_corners(
    std::span<const std::span<const double>> corners) {
  if (corners.empty() ||
      corners.size() > static_cast<std::size_t>(kMaxSweepCorners)) {
    throw std::invalid_argument(
        "BatchTimingSim::set_corners: need 1 to kMaxSweepCorners corners");
  }
  for (const std::span<const double> scale : corners) {
    if (!scale.empty() && scale.size() != netlist_->num_gates()) {
      throw std::invalid_argument(
          "BatchTimingSim::set_corners: need one multiplier per gate");
    }
  }
  corner_scales_.resize(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    corner_scales_[c].assign(corners[c].begin(), corners[c].end());
  }
  arrival_.assign(std::size_t(arrival_slots_) * corners.size() * kBatchLanes,
                  0.0);
  results_.assign(corners.size() * kBatchLanes, StepResult{});
  force_all_ = true;
}

void BatchTimingSim::set_fault_overlay(const FaultOverlay* overlay) {
  if (overlay != nullptr && overlay->num_gates() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "BatchTimingSim::set_fault_overlay: overlay sized for a different "
        "netlist");
  }
  overlay_ = overlay;
  // Installing or removing stuck-ats changes gate outputs without any fanin
  // edge; the next word sweeps every gate.
  force_all_ = true;
}

std::size_t BatchTimingSim::state_bytes() const noexcept {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  std::size_t scales = 0;
  for (const std::vector<double>& s : corner_scales_) scales += bytes(s);
  return scales + bytes(plane0_) + bytes(plane1_) + bytes(word_epoch_) +
         bytes(last_value_) + bytes(density_slot_) + bytes(arrival_slot_) +
         bytes(changed_) + bytes(active_) + bytes(density_) +
         bytes(arrival_);
}

std::span<const StepResult> BatchTimingSim::step_word(
    std::span<const std::uint64_t> input_bits, int lanes) {
  const Netlist& nl = *netlist_;
  if (input_bits.size() != nl.num_inputs()) {
    throw std::invalid_argument("BatchTimingSim::step_word: wrong input count");
  }
  if (lanes < 1 || lanes > kBatchLanes) {
    throw std::invalid_argument(
        "BatchTimingSim::step_word: lanes must be in [1, 64]");
  }
  ++epoch_;
  const int corners = static_cast<int>(corner_scales_.size());
  for (int c = 0; c < corners; ++c) {
    for (int l = 0; l < lanes; ++l) {
      results_[std::size_t(c) * kBatchLanes + std::size_t(l)] = StepResult{};
    }
  }

  // Pre-scan transient strikes: lanes of this word they land in, plus the
  // cleanup spill — a strike on the last lane of the previous word must be
  // un-flipped by lane 0 even if the gate's fanin is stone stable.
  std::vector<std::pair<GateId, std::uint64_t>> transient_masks;
  std::vector<GateId> forced_gates;
  if (overlay_ != nullptr && overlay_->has_transients()) {
    for (const FaultSite& site : overlay_->faults()) {
      if (site.kind != FaultKind::kTransient) continue;
      if (site.cycle >= step_base_ && site.cycle < step_base_ + lanes) {
        const auto lane = static_cast<int>(site.cycle - step_base_);
        transient_masks.emplace_back(site.gate, std::uint64_t{1} << lane);
      }
      if (site.cycle == step_base_ - 1) forced_gates.push_back(site.gate);
    }
    std::sort(transient_masks.begin(), transient_masks.end());
    // Merge lanes of multiple strikes on the same gate.
    std::size_t w = 0;
    for (std::size_t r = 0; r < transient_masks.size(); ++r) {
      if (w > 0 && transient_masks[w - 1].first == transient_masks[r].first) {
        transient_masks[w - 1].second |= transient_masks[r].second;
      } else {
        transient_masks[w++] = transient_masks[r];
      }
    }
    transient_masks.resize(w);
    std::sort(forced_gates.begin(), forced_gates.end());
    forced_gates.erase(std::unique(forced_gates.begin(), forced_gates.end()),
                       forced_gates.end());
  }

  detail::SweepContext ctx;
  ctx.netlist = netlist_;
  ctx.tech = tech_;
  std::array<const double*, kMaxSweepCorners> aging{};
  for (int c = 0; c < corners; ++c) {
    if (!corner_scales_[c].empty()) aging[c] = corner_scales_[c].data();
  }
  ctx.aging = aging.data();
  ctx.corners = corners;
  ctx.overlay = overlay_;
  ctx.epoch = epoch_;
  ctx.plane0 = plane0_.data();
  ctx.plane1 = plane1_.data();
  ctx.word_epoch = word_epoch_.data();
  ctx.last_value = last_value_.data();
  ctx.density_slot = density_slot_.data();
  ctx.arrival_slot = arrival_slot_.data();
  ctx.changed = changed_.data();
  ctx.active = active_.data();
  ctx.density = density_.data();
  ctx.arrival = arrival_.data();
  ctx.results = results_.data();
  ctx.input_bits = input_bits.data();
  ctx.lanes = lanes;
  ctx.lane_mask = lanes == kBatchLanes
                      ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << lanes) - 1);
  ctx.force_all = force_all_;
  ctx.transient_masks = transient_masks;
  ctx.forced_gates = forced_gates;

  if (use_avx2_sweep()) {
    detail::run_sweep_avx2(ctx);
  } else {
    detail::run_sweep_generic(ctx);
  }
  force_all_ = false;
  last_lanes_ = lanes;

  // Output settle: max changed-output arrival per lane and corner.
  // Outputs stay live to the end of the sweep, so their slots still hold
  // this word's lanes; a slotless output arrives at 0.0 (primary input) or
  // at its driver's delay (driver reads only primary inputs) in every lane.
  for (NetId out : nl.output_nets()) {
    if (word_epoch_[out] != epoch_) continue;
    const std::uint64_t ch = changed_[density_slot_[out]];
    if (ch == 0) continue;
    const std::uint32_t aslot = arrival_slot_[out];
    const std::int32_t driver = nl.driver_of(out);
    for (int c = 0; c < corners; ++c) {
      const double constant =
          aslot != detail::kNoArrivalSlot || driver < 0
              ? 0.0
              : 0.0 + detail::gate_delay_ps(ctx, c,
                                            static_cast<GateId>(driver));
      const double* arr = aslot == detail::kNoArrivalSlot
                              ? nullptr
                              : detail::arrival_lanes(ctx, aslot, c);
      StepResult* const res = results_.data() + std::size_t(c) * kBatchLanes;
      for (int l = 0; l < lanes; ++l) {
        const double a = arr != nullptr ? arr[l] : constant;
        if (((ch >> l) & 1u) != 0 && a > res[l].output_settle_ps) {
          res[l].output_settle_ps = a;
        }
      }
    }
  }

  const auto k = static_cast<std::uint64_t>(corners);
  stats_.words += 1;
  stats_.corner_words += k;
  stats_.lanes += static_cast<std::uint64_t>(lanes);
  stats_.gates_evaluated += ctx.gates_processed;

  step_base_ += lanes;
  if (obs::metrics_enabled()) {
    const BatchMetrics& m = batch_metrics();
    m.words.add();
    m.corner_words.add(k);
    m.lanes.add(static_cast<std::uint64_t>(lanes));
    m.gates.add(ctx.gates_processed);
  }
  return {results_.data(), static_cast<std::size_t>(lanes)};
}

std::span<const StepResult> BatchTimingSim::results(std::size_t corner) const {
  if (corner >= corner_scales_.size()) {
    throw std::out_of_range("BatchTimingSim::results: corner out of range");
  }
  return {results_.data() + corner * kBatchLanes,
          static_cast<std::size_t>(last_lanes_)};
}

Logic BatchTimingSim::lane_value(NetId net, int lane) const {
  if (lane < 0 || lane >= last_lanes_) {
    throw std::out_of_range("BatchTimingSim::lane_value: lane out of range");
  }
  if (word_epoch_[net] != epoch_) return last_value_[net];
  return static_cast<Logic>(((plane0_[net] >> lane) & 1u) |
                            (((plane1_[net] >> lane) & 1u) << 1));
}

std::uint64_t BatchTimingSim::output_bits(int lane) const {
  const auto outs = netlist_->output_nets();
  if (outs.size() > 64) {
    throw std::logic_error(
        "BatchTimingSim::output_bits: more than 64 outputs");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic v = lane_value(outs[i], lane);
    if (!is_known(v)) {
      throw std::logic_error("BatchTimingSim::output_bits: output " +
                             netlist_->output_name(i) + " is unknown");
    }
    if (logic_to_bool(v)) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

void BatchTimingSim::load_bus_lane(std::span<std::uint64_t> input_bits,
                                   std::uint64_t value, int width,
                                   int first_input, int lane) const {
  if (first_input + width > static_cast<int>(netlist_->num_inputs()) ||
      static_cast<std::size_t>(first_input + width) > input_bits.size()) {
    throw std::invalid_argument(
        "BatchTimingSim::load_bus_lane: bus out of range");
  }
  const std::uint64_t lane_bit = std::uint64_t{1} << lane;
  for (int i = 0; i < width; ++i) {
    if (((value >> i) & 1u) != 0) {
      input_bits[static_cast<std::size_t>(first_input + i)] |= lane_bit;
    } else {
      input_bits[static_cast<std::size_t>(first_input + i)] &= ~lane_bit;
    }
  }
}

const char* BatchTimingSim::lane_backend() noexcept {
  return use_avx2_sweep() ? "avx2" : "generic";
}

}  // namespace agingsim
