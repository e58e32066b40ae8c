//===- perfbench/src/Kernels.h - The run workload's kernels -----*- C++ -*-===//
///
/// \file
/// fib, tak, the accumulation loop, the paper's testfn and the three
/// examples/gc programs, each with seeded arguments and the value a closed
/// form computed in C++ gives for them.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_PERFBENCH_KERNELS_H
#define S1LISP_PERFBENCH_KERNELS_H

#include "sexpr/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Kernel {
  std::string Name;
  std::string Source;
  std::string Entry;
  std::vector<s1lisp::sexpr::Value> Args; ///< immediates only
  /// Live-heap budget for the VM collector; 0 leaves it off.
  uint64_t GcBudgetBytes = 0;
  /// The closed-form value, printed.
  std::string Expected;

  /// Whether \p Result is the closed-form value (floats to 1e-12).
  bool check(s1lisp::sexpr::Value Result) const;
};

std::vector<Kernel> runKernels(uint64_t Seed);

/// Whether printed number \p Printed equals \p Expected to 1e-12 relative.
bool sameNumber(const std::string &Printed, const std::string &Expected);

} // namespace perfbench

#endif // S1LISP_PERFBENCH_KERNELS_H
