//===- perfbench/src/Workloads.h - The four workloads -----------*- C++ -*-===//
///
/// \file
/// compile, run, service and oracle (see perfbench/README.md for why each
/// exists), plus the traced per-layer pass behind `--trace 1`.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_PERFBENCH_WORKLOADS_H
#define S1LISP_PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string BinDir; ///< where s1lispc, s1lispd and s1lisp-fuzz were built
};

RunResult runCompile(const Options &O);
RunResult runRun(const Options &O);
RunResult runService(const Options &O);
RunResult runOracle(const Options &O);

/// fuzz::OracleOptions::Jobs of the oracle workload and the traced run.
unsigned oracleJobs();

/// The traced run: times calls into every layer's public functions on the
/// seed's inputs, once untraced and once traced, and reports the per-layer
/// metrics plus the tracing overhead. Writes the Chrome trace and the
/// span summary under \p OutDir.
RunResult runLayers(const Options &O, const std::string &OutDir);

} // namespace perfbench

#endif // S1LISP_PERFBENCH_WORKLOADS_H
