// perfbench/lib/inputs.cpp
#include "lib/inputs.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ull));
  return rng.next();
}

HeatDesign::HeatDesign(int segments_, int steps_, int cells_,
                       const std::string& alpha0)
    : segments(segments_), steps(steps_), cells(cells_) {
  if (segments < 1 || steps < 1 || cells < 2) {
    throw std::invalid_argument(
        "heat design needs segments,steps >= 1, cells >= 2");
  }
  alpha.assign(static_cast<std::size_t>(segments) * steps, alpha0);
}

namespace {

std::string u(int t, int s) {
  return "u" + std::to_string(t) + "_" + std::to_string(s);
}
std::string el(int t, int s) {
  return "el" + std::to_string(t) + "_" + std::to_string(s);
}
std::string er(int t, int s) {
  return "er" + std::to_string(t) + "_" + std::to_string(s);
}
std::string st(int t, int s) {
  return t == 0 ? "init" + std::to_string(s)
                : "st" + std::to_string(t) + "_" + std::to_string(s);
}

}  // namespace

HeatText::HeatText(HeatDesign design) : design_(std::move(design)) {
  const int S = design_.segments;
  const int T = design_.steps;
  const int C = design_.cells;
  const std::string chunk = std::to_string(8 * C);
  const std::string rod = std::to_string(8 * C * S);

  head_ = "design heat1d\ngraph heat1d\n";
  head_ += "  store rod bytes=" + rod + "\n";
  head_ += "  store result bytes=" + rod + "\n";
  for (int s = 0; s < S; ++s) {
    head_ += "  task " + st(0, s) + " work=1 in=rod out=" + u(0, s) + "," +
             el(0, s) + "," + er(0, s) + "\n  pits {\n";
    head_ += "    " + u(0, s) + " := slice(rod, " + std::to_string(s * C) +
             ", " + std::to_string((s + 1) * C) + ")\n";
    head_ += "    " + el(0, s) + " := " + u(0, s) + "[0]\n";
    head_ += "    " + er(0, s) + " := " + u(0, s) + "[" +
             std::to_string(C - 1) + "]\n  }\n";
  }
  for (int t = 1; t <= T; ++t) {
    for (int s = 0; s < S; ++s) blocks_.push_back(stencil_block(t, s));
  }

  tail_ = "  task gather work=1 in=";
  for (int s = 0; s < S; ++s) tail_ += (s ? "," : "") + u(T, s);
  tail_ += " out=result\n  pits {\n    result := " + u(T, 0) + "\n";
  for (int s = 1; s < S; ++s) {
    tail_ += "    result := concat(result, " + u(T, s) + ")\n";
  }
  tail_ += "  }\n";
  for (int s = 0; s < S; ++s) {
    tail_ += "  arc rod -> " + st(0, s) + " var=rod bytes=" + rod + "\n";
  }
  for (int t = 1; t <= T; ++t) {
    for (int s = 0; s < S; ++s) {
      tail_ += "  arc " + st(t - 1, s) + " -> " + st(t, s) + " var=" +
               u(t - 1, s) + " bytes=" + chunk + "\n";
      if (s > 0) {
        tail_ += "  arc " + st(t - 1, s - 1) + " -> " + st(t, s) + " var=" +
                 er(t - 1, s - 1) + " bytes=8\n";
      }
      if (s + 1 < S) {
        tail_ += "  arc " + st(t - 1, s + 1) + " -> " + st(t, s) + " var=" +
                 el(t - 1, s + 1) + " bytes=8\n";
      }
    }
  }
  for (int s = 0; s < S; ++s) {
    tail_ += "  arc " + st(T, s) + " -> gather var=" + u(T, s) +
             " bytes=" + chunk + "\n";
  }
  tail_ += "  arc gather -> result var=result bytes=" + rod + "\n";
}

std::string HeatText::stencil_block(int t, int s) const {
  const int S = design_.segments;
  const std::string prev = u(t - 1, s);
  const std::string left = s > 0 ? er(t - 1, s - 1) : "0";
  const std::string right = s + 1 < S ? el(t - 1, s + 1) : "0";
  std::string in = prev;
  if (s > 0) in += "," + left;
  if (s + 1 < S) in += "," + right;
  char work[32];
  std::snprintf(work, sizeof work, "%g", design_.cells / 4.0);
  std::string b = "  task " + st(t, s) + " work=" + work + " in=" + in +
                  " out=" + u(t, s) + "," + el(t, s) + "," + er(t, s) +
                  "\n  pits {\n";
  b += "    n := len(" + prev + ")\n";
  b += "    un := zeros(n)\n";
  b += "    i := 0\n";
  b += "    while i < n do\n";
  b += "      lft := when(i > 0, " + prev + "[i - 1], " + left + ")\n";
  b += "      rgt := when(i < n - 1, " + prev + "[i + 1], " + right + ")\n";
  b += "      un[i] := " + prev + "[i] + " + design_.at(t, s) +
       " * (lft - 2 * " + prev + "[i] + rgt)\n";
  b += "      i := i + 1\n";
  b += "    end\n";
  b += "    " + u(t, s) + " := un\n";
  b += "    " + el(t, s) + " := un[0]\n";
  b += "    " + er(t, s) + " := un[n - 1]\n  }\n";
  return b;
}

void HeatText::set_alpha(int t, int s, const std::string& alpha) {
  design_.at(t, s) = alpha;
  blocks_[static_cast<std::size_t>((t - 1) * design_.segments + s)] =
      stencil_block(t, s);
}

void HeatText::set_all(const std::string& alpha) {
  for (int t = 1; t <= design_.steps; ++t) {
    for (int s = 0; s < design_.segments; ++s) set_alpha(t, s, alpha);
  }
}

std::string HeatText::text() const {
  std::size_t size = head_.size() + tail_.size();
  for (const auto& b : blocks_) size += b.size();
  std::string out;
  out.reserve(size);
  out += head_;
  for (const auto& b : blocks_) out += b;
  out += tail_;
  return out;
}

std::vector<double> make_rod(Rng& rng, std::size_t n) {
  std::vector<double> rod(n);
  for (auto& v : rod) v = static_cast<double>(rng.below(101));
  return rod;
}

std::string rod_expr(const std::vector<double>& rod) {
  std::string out = "[";
  for (std::size_t i = 0; i < rod.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(static_cast<long long>(rod[i]));
  }
  return out + "]";
}

std::string edit_alpha(Rng& rng) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0.%03llu",
                static_cast<unsigned long long>(50 + rng.below(401)));
  return buf;
}

std::string unique_alpha(int family, std::uint64_t index) {
  // Nine decimals: never equal to a three-decimal edit_alpha() literal.
  char buf[32];
  std::snprintf(buf, sizeof buf, "0.%d%08llu", 1 + family % 4,
                static_cast<unsigned long long>(index % 100000000ull));
  return buf;
}

std::string tri3_machine_text() {
  return "machine tri3\n"
         "topology full procs=3\n"
         "speed 1\n"
         "message_startup 0.01\n"
         "bandwidth 1e6\n";
}

std::string cube8_machine_text() {
  return "machine cube8\n"
         "topology hypercube dim=3\n"
         "speed 1\n"
         "message_startup 0.1\n"
         "bandwidth 1000\n";
}

}  // namespace perfbench
