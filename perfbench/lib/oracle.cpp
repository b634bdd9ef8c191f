// perfbench/lib/oracle.cpp
#include "lib/oracle.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::vector<double> heat_reference(const HeatDesign& design,
                                   const std::vector<double>& rod) {
  const int S = design.segments;
  const int C = design.cells;
  std::vector<double> alpha(design.alpha.size());
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha[i] = std::strtod(design.alpha[i].c_str(), nullptr);
  }
  std::vector<double> cur(rod.begin(), rod.begin() + S * C);
  std::vector<double> next(cur.size());
  for (int t = 1; t <= design.steps; ++t) {
    for (int s = 0; s < S; ++s) {
      const double a = alpha[static_cast<std::size_t>((t - 1) * S + s)];
      const double* seg = &cur[static_cast<std::size_t>(s * C)];
      const double ghost_left = s > 0 ? seg[-1] : 0.0;
      const double ghost_right = s + 1 < S ? seg[C] : 0.0;
      for (int i = 0; i < C; ++i) {
        const double lft = i > 0 ? seg[i - 1] : ghost_left;
        const double rgt = i < C - 1 ? seg[i + 1] : ghost_right;
        next[static_cast<std::size_t>(s * C + i)] =
            seg[i] + a * (lft - 2 * seg[i] + rgt);
      }
    }
    cur.swap(next);
  }
  return cur;
}

std::string trial_output(const HeatDesign& design,
                         const std::vector<double>& result) {
  std::string out = "result = [";
  char buf[64];
  for (std::size_t i = 0; i < result.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof buf, "%.12g", result[i]);
    out += buf;
  }
  out += "]\n(" + std::to_string(design.tasks()) + " task executions)\n";
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + s.size() / 16);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
