// perfbench/lib/inputs.hpp
//
// Seeded input generation for the end-to-end benchmark. Everything the
// library under test sees is produced here from the run's seed: the
// heat-diffusion design text (with one PITS constant per stencil task),
// the machine descriptions, and the rod temperatures. Nothing here calls
// into the library, so the same seed gives byte-identical inputs no
// matter what the library does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast and fully specified, so inputs never depend
/// on a standard-library distribution's implementation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n must be > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Mixes a seed with a stream label so independent generators (clients,
/// workloads) draw unrelated sequences from one run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The explicit 1-D heat rod design: `segments` chains of `steps`
/// stencil tasks over `cells` cells each, with halo exchange between
/// neighbouring segments, zero boundaries, a slicing task per segment
/// and one gather task. Each stencil task carries its own diffusion
/// constant as a PITS literal, so an edit can change one routine.
struct HeatDesign {
  int segments = 16;
  int steps = 16;
  int cells = 4;
  /// PITS literal of every stencil task, index (t - 1) * segments + s.
  std::vector<std::string> alpha;

  HeatDesign(int segments, int steps, int cells, const std::string& alpha0);
  [[nodiscard]] std::size_t tasks() const {
    return static_cast<std::size_t>(segments) * (steps + 1) + 1;
  }
  [[nodiscard]] std::size_t rod_size() const {
    return static_cast<std::size_t>(segments) * cells;
  }
  [[nodiscard]] std::string& at(int t, int s) {
    return alpha[static_cast<std::size_t>((t - 1) * segments + s)];
  }
  [[nodiscard]] const std::string& at(int t, int s) const {
    return alpha[static_cast<std::size_t>((t - 1) * segments + s)];
  }
};

/// `.pitl` text of a HeatDesign. Task blocks are kept rendered, so an
/// edit re-renders only the task it touches.
class HeatText {
 public:
  explicit HeatText(HeatDesign design);

  [[nodiscard]] const HeatDesign& design() const { return design_; }
  void set_alpha(int t, int s, const std::string& alpha);
  void set_all(const std::string& alpha);
  [[nodiscard]] std::string text() const;

 private:
  [[nodiscard]] std::string stencil_block(int t, int s) const;

  HeatDesign design_;
  std::string head_;
  std::vector<std::string> blocks_;  ///< stencil tasks, same index as alpha
  std::string tail_;
};

/// Seeded rod: `n` whole-number temperatures in [0, 100].
std::vector<double> make_rod(Rng& rng, std::size_t n);

/// PITS expression text of a rod ("[12,0,...]").
std::string rod_expr(const std::vector<double>& rod);

/// A seeded diffusion constant with three decimals in [0.050, 0.450].
std::string edit_alpha(Rng& rng);

/// A diffusion constant no edit_alpha() value and no other `index` can
/// produce: `family` picks a disjoint range for each user of it.
std::string unique_alpha(int family, std::uint64_t index);

/// Three processors, fully connected: small enough that a scheduled
/// run's one thread per processor plus the main thread fits in four
/// cores.
std::string tri3_machine_text();

/// An 8-processor hypercube, the serve workload's target machine.
std::string cube8_machine_text();

}  // namespace perfbench
