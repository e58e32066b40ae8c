//===- perfbench/src/main.cpp - s1bench entry point -----------------------===//
//
// s1bench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR
//         [--out-dir DIR]
//
// Runs one workload of the S1LISP benchmark from the repository root and
// prints the result as one JSON object on the last line of stdout. With
// --trace 1 it runs the traced per-layer pass instead and writes the
// Chrome trace and span summary into --out-dir. Exits non-zero without a
// result when the benchmark cannot run or an exact count does not repeat.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

int main(int Argc, char **Argv) {
  Options O;
  int Trace = -1;
  std::string OutDir = ".";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      Trace = V == "1" ? 1 : V == "0" ? 0 : -1;
    else if (K == "--bin-dir")
      O.BinDir = V;
    else if (K == "--out-dir")
      OutDir = V;
    else
      fatal("unknown argument " + K);
    if (End && *End)
      fatal("bad value for " + K + ": " + V);
  }
  if (Argc % 2 == 0 || Trace < 0 || O.BinDir.empty() || O.Seconds <= 0)
    fatal("usage: s1bench --workload NAME --seed N --seconds S --trace 0|1 "
          "--bin-dir DIR [--out-dir DIR]");

  RunResult R;
  if (Trace == 1)
    R = runLayers(O, OutDir);
  else if (O.Workload == "compile")
    R = runCompile(O);
  else if (O.Workload == "run")
    R = runRun(O);
  else if (O.Workload == "service")
    R = runService(O);
  else if (O.Workload == "oracle")
    R = runOracle(O);
  else
    fatal("unknown workload '" + O.Workload + "'");
  printf("%s\n", R.json().c_str());
  return 0;
}
