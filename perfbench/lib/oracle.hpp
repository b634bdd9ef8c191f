// perfbench/lib/oracle.hpp
//
// The benchmark's independent output oracle: explicit 1-D heat diffusion
// written directly in C++, plus the text the service renders for a heat
// run. It shares no code with the library under test; it only mirrors
// the arithmetic the generated PITS routines spell out.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lib/inputs.hpp"

namespace perfbench {

/// Final rod temperatures after `design.steps` explicit updates:
///   u'[i] = u[i] + alpha * (left - 2 * u[i] + right)
/// with ghost cells from the neighbouring segments' previous step and a
/// fixed zero boundary at both rod ends.
std::vector<double> heat_reference(const HeatDesign& design,
                                   const std::vector<double>& rod);

/// The service's rendering of a heat trial:
///   "result = [v0, v1, ...]\n(N task executions)\n" with %.12g values.
std::string trial_output(const HeatDesign& design,
                         const std::vector<double>& result);

/// JSON string escaping (RFC 8259 short escapes, \u00XX otherwise).
std::string json_escape(std::string_view s);

}  // namespace perfbench
