#include "machine/machine.hpp"

#include <cmath>

#include "util/error.hpp"

namespace banger::machine {

std::string_view to_string(Routing routing) noexcept {
  switch (routing) {
    case Routing::StoreAndForward: return "store-and-forward";
    case Routing::CutThrough: return "cut-through";
  }
  return "unknown";
}

void MachineParams::validate() const {
  for (const double v : {processor_speed, process_startup, message_startup,
                         bytes_per_second, per_hop_latency}) {
    if (!std::isfinite(v)) {
      fail(ErrorCode::Machine, "machine parameters must be finite numbers");
    }
  }
  if (processor_speed <= 0) {
    fail(ErrorCode::Machine, "processor speed must be positive");
  }
  if (process_startup < 0 || message_startup < 0 || per_hop_latency < 0) {
    fail(ErrorCode::Machine, "startup/latency times must be non-negative");
  }
}

Machine::Machine(Topology topology, MachineParams params, std::string name)
    : name_(std::move(name)),
      topology_(std::move(topology)),
      params_(params),
      speed_factor_(static_cast<std::size_t>(topology_.num_procs()), 1.0) {
  params_.validate();
  if (name_.empty()) name_ = topology_.name();
}

void Machine::set_speed_factor(ProcId p, double factor) {
  BANGER_ASSERT(p >= 0 && p < num_procs(), "processor id out of range");
  if (!(factor > 0) || !std::isfinite(factor)) {
    fail(ErrorCode::Machine, "speed factor must be positive and finite");
  }
  speed_factor_[static_cast<std::size_t>(p)] = factor;
}

double Machine::speed_factor(ProcId p) const {
  BANGER_ASSERT(p >= 0 && p < num_procs(), "processor id out of range");
  return speed_factor_[static_cast<std::size_t>(p)];
}

bool Machine::homogeneous() const noexcept {
  for (double f : speed_factor_)
    if (f != 1.0) return false;
  return true;
}

double Machine::task_time(double work, ProcId p) const {
  return params_.process_startup +
         work / (params_.processor_speed * speed_factor(p));
}

double Machine::comm_time(double bytes, ProcId from, ProcId to) const {
  if (from == to) return 0.0;
  return comm_time_hops(bytes, topology_.hops(from, to));
}

double Machine::comm_time_hops(double bytes, int hops) const {
  if (hops <= 0) return 0.0;
  const double wire =
      params_.bytes_per_second > 0 ? bytes / params_.bytes_per_second : 0.0;
  switch (params_.routing) {
    case Routing::StoreAndForward:
      return hops * (params_.message_startup + wire);
    case Routing::CutThrough:
      return params_.message_startup + wire +
             (hops - 1) * params_.per_hop_latency;
  }
  return 0.0;
}

double Machine::ccr(double bytes) const {
  const double compute = 1.0 / params_.processor_speed;
  const double comm = comm_time_hops(bytes, 1);
  return compute > 0 ? comm / compute : 0.0;
}

namespace presets {

Machine hypercube(int dim, double ccr) {
  MachineParams p;
  p.processor_speed = 1.0;
  p.process_startup = 0.0;
  // Choose startup/bandwidth so a default 8-byte message across one hop
  // costs `ccr` seconds, split evenly between startup and wire time.
  p.message_startup = ccr / 2.0;
  p.bytes_per_second = ccr > 0 ? 8.0 / (ccr / 2.0) : 0.0;
  return Machine(Topology::hypercube(dim), p,
                 "ipsc-hypercube" + std::to_string(1 << dim));
}

Machine shared_memory(int num_procs) {
  MachineParams p;
  p.processor_speed = 1.0;
  p.message_startup = 0.001;
  p.bytes_per_second = 1e9;
  return Machine(Topology::fully_connected(num_procs), p,
                 "shared-bus" + std::to_string(num_procs));
}

Machine lan(int num_procs) {
  MachineParams p;
  p.processor_speed = 1.0;
  p.process_startup = 0.05;
  p.message_startup = 2.0;  // LAN round-trips dwarf computation
  p.bytes_per_second = 1e4;
  return Machine(Topology::star(num_procs), p,
                 "lan" + std::to_string(num_procs));
}

}  // namespace presets

}  // namespace banger::machine
