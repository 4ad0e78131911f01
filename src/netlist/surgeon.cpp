#include "src/netlist/surgeon.hpp"

#include <stdexcept>

namespace agingsim {

void NetlistSurgeon::set_gate_kind(GateId gate, CellKind kind) {
  if (gate >= nl_.num_gates()) {
    throw std::invalid_argument("NetlistSurgeon: gate does not exist");
  }
  nl_.gates_[gate].kind = kind;
}

void NetlistSurgeon::set_gate_pin_count(GateId gate, std::uint16_t count) {
  if (gate >= nl_.num_gates()) {
    throw std::invalid_argument("NetlistSurgeon: gate does not exist");
  }
  nl_.gates_[gate].in_count = count;
}

void NetlistSurgeon::set_gate_pin_begin(GateId gate, std::uint32_t begin) {
  if (gate >= nl_.num_gates()) {
    throw std::invalid_argument("NetlistSurgeon: gate does not exist");
  }
  nl_.gates_[gate].in_begin = begin;
}

void NetlistSurgeon::set_pin(std::size_t pin_index, NetId net) {
  if (pin_index >= nl_.pins_.size()) {
    throw std::invalid_argument("NetlistSurgeon: pin index out of range");
  }
  nl_.pins_[pin_index] = net;
}

void NetlistSurgeon::set_driver(NetId net, std::int32_t driver) {
  if (net >= nl_.num_nets()) {
    throw std::invalid_argument("NetlistSurgeon: net does not exist");
  }
  nl_.driver_[net] = driver;
}

void NetlistSurgeon::set_gate_out(GateId gate, NetId net) {
  if (gate >= nl_.num_gates()) {
    throw std::invalid_argument("NetlistSurgeon: gate does not exist");
  }
  nl_.gates_[gate].out = net;
}

void NetlistSurgeon::set_output_net(std::size_t output_index, NetId net) {
  if (output_index >= nl_.num_outputs()) {
    throw std::invalid_argument("NetlistSurgeon: output index out of range");
  }
  nl_.output_nets_[output_index] = net;
}

NetId NetlistSurgeon::insert_buffer(NetId net, GateId sink, int count) {
  if (count < 1) {
    throw std::invalid_argument("NetlistSurgeon::insert_buffer: count < 1");
  }
  if (sink >= nl_.num_gates()) {
    throw std::invalid_argument(
        "NetlistSurgeon::insert_buffer: sink gate does not exist");
  }
  if (net >= nl_.num_nets()) {
    throw std::invalid_argument(
        "NetlistSurgeon::insert_buffer: net does not exist");
  }
  const Gate sink_gate = nl_.gates_[sink];
  if (sink_gate.in_begin > nl_.pins_.size() ||
      sink_gate.in_begin + sink_gate.in_count > nl_.pins_.size()) {
    throw std::invalid_argument(
        "NetlistSurgeon::insert_buffer: sink pin window out of bounds");
  }
  bool reads = false;
  for (std::uint32_t p = sink_gate.in_begin;
       p < sink_gate.in_begin + sink_gate.in_count; ++p) {
    reads |= nl_.pins_[p] == net;
  }
  if (!reads) {
    throw std::invalid_argument(
        "NetlistSurgeon::insert_buffer: sink does not read net");
  }

  // The chain takes gate ids [pos_g, pos_g+count) and net ids
  // [pos_n, pos_n+count). `net` is read by `sink`, so net < pos_n and its id
  // survives the renumbering unchanged.
  const GateId pos_g = sink;
  const NetId pos_n = sink_gate.out;
  const auto shift = static_cast<NetId>(count);

  for (NetId& pin : nl_.pins_) {
    if (pin >= pos_n && pin != kInvalidNet) pin += shift;
  }
  for (std::int32_t& drv : nl_.driver_) {
    if (drv >= static_cast<std::int32_t>(pos_g)) drv += count;
  }
  for (NetId& in : nl_.input_nets_) {
    if (in >= pos_n) in += shift;
  }
  for (NetId& out : nl_.output_nets_) {
    if (out >= pos_n && out != kInvalidNet) out += shift;
  }
  for (Gate& g : nl_.gates_) {
    if (g.out >= pos_n) g.out += shift;
  }

  // Splice the chain in: buffer j (gate pos_g+j) drives net pos_n+j and
  // reads the previous link (or `net` for the head). Its pin lives at the
  // end of the flat pin array — pin windows need not follow gate order.
  nl_.gates_.insert(nl_.gates_.begin() + pos_g, static_cast<std::size_t>(count),
                    Gate{});
  nl_.driver_.insert(nl_.driver_.begin() + pos_n,
                     static_cast<std::size_t>(count), -1);
  for (int j = 0; j < count; ++j) {
    const auto pin_index = static_cast<std::uint32_t>(nl_.pins_.size());
    nl_.pins_.push_back(j == 0 ? net : pos_n + static_cast<NetId>(j) - 1);
    nl_.gates_[pos_g + static_cast<GateId>(j)] =
        Gate{CellKind::kBuf, pos_n + static_cast<NetId>(j), pin_index, 1};
    nl_.driver_[pos_n + static_cast<NetId>(j)] =
        static_cast<std::int32_t>(pos_g) + j;
  }

  // Rewire every sink pin that read `net` to the chain's output. The sink
  // now sits at pos_g + count; its pin window positions are unchanged.
  const NetId tail = pos_n + shift - 1;
  const Gate& moved_sink = nl_.gates_[pos_g + static_cast<GateId>(count)];
  for (std::uint32_t p = moved_sink.in_begin;
       p < moved_sink.in_begin + moved_sink.in_count; ++p) {
    if (nl_.pins_[p] == net) nl_.pins_[p] = tail;
  }
  return tail;
}

NetId NetlistSurgeon::insert_output_buffer(std::size_t output_index,
                                           int count) {
  if (count < 1) {
    throw std::invalid_argument(
        "NetlistSurgeon::insert_output_buffer: count < 1");
  }
  if (output_index >= nl_.num_outputs()) {
    throw std::invalid_argument(
        "NetlistSurgeon::insert_output_buffer: output index out of range");
  }
  NetId prev = nl_.output_nets_[output_index];
  if (prev >= nl_.num_nets()) {
    throw std::invalid_argument(
        "NetlistSurgeon::insert_output_buffer: output net does not exist");
  }
  for (int j = 0; j < count; ++j) {
    const auto out = static_cast<NetId>(nl_.driver_.size());
    const auto pin_index = static_cast<std::uint32_t>(nl_.pins_.size());
    nl_.pins_.push_back(prev);
    nl_.driver_.push_back(static_cast<std::int32_t>(nl_.gates_.size()));
    nl_.gates_.push_back(Gate{CellKind::kBuf, out, pin_index, 1});
    prev = out;
  }
  nl_.output_nets_[output_index] = prev;
  return prev;
}

}  // namespace agingsim
