//===- perfbench/src/WorkloadRun.cpp - The run workload -------------------===//
//
// Execution on the native engine: the kernels are compiled and
// pre-decoded once in set-up, then called in a fixed order. One operation
// is one call. The three examples/gc programs run under a heap
// budget so the VM's collector runs.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Kernels.h"
#include "Workloads.h"

#include "sexpr/Printer.h"
#include "vm/Jit.h"

#include <cstdio>
#include <memory>

using namespace s1lisp;

namespace perfbench {

namespace {

/// Heap-held parts, so a Loaded can move while its machine keeps
/// references to the module's tables and the program.
struct Loaded {
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<s1::Program> Program;
  std::shared_ptr<const vm::DecodedProgram> Decoded;
  std::unique_ptr<vm::Machine> VM;
};

/// The set-up a user of the native engine pays per kernel: compile,
/// pre-decode, build the machine and JIT-compile the decoded program.
/// vm::Machine takes no outside JitProgram and compiles its own on its
/// first call, which also runs the kernel; so the set-up times an equal
/// vm::compileJit of the same decoded program as a stand-in and frees it
/// at once, and the machine's own compile happens in the untimed first
/// call.
Loaded load(const Kernel &K) {
  Loaded L;
  L.M = std::make_unique<ir::Module>();
  auto Out = driver::compileSource(*L.M, K.Source);
  if (!Out.Ok)
    fatal("kernel " + K.Name + " does not compile: " + Out.Error);
  L.Program = std::make_unique<s1::Program>(std::move(Out.Program));
  L.Decoded = vm::predecode(*L.Program);
  L.VM = std::make_unique<vm::Machine>(*L.Program, L.M->Syms, L.M->DataHeap);
  L.VM->setEngine(vm::Engine::Native);
  if (K.GcBudgetBytes)
    L.VM->setGcBudget(K.GcBudgetBytes);
  L.VM->setDecodedProgram(L.Decoded);
  if (!vm::compileJit(L.Decoded, {true, L.VM->gcEnabled()}, *L.VM) &&
      vm::jitAvailable())
    fatal("JIT compilation of kernel " + K.Name + " failed");
  return L;
}

} // namespace

RunResult runRun(const Options &O) {
  PinnedToOneCpu Pin; // one machine runs at a time
  RunResult Res;
  const std::vector<Kernel> Kernels = runKernels(O.Seed);

  std::vector<Loaded> Machines;
  const std::vector<double> Setups = setupTimes([&] {
    std::vector<Loaded> Fresh;
    auto T0 = Clock::now();
    for (const Kernel &K : Kernels)
      Fresh.push_back(load(K));
    const double Seconds = msSince(T0) / 1000.0;
    Machines = std::move(Fresh);
    return Seconds;
  });

  // One untimed call per kernel: the machine compiles its own native
  // code on first use, and the call fixes the instruction count every
  // later call must reproduce.
  std::vector<uint64_t> Insns(Kernels.size());
  for (size_t I = 0; I < Kernels.size(); ++I) {
    vm::Machine &VM = *Machines[I].VM;
    VM.resetStats();
    auto R = VM.call(Kernels[I].Entry, Kernels[I].Args);
    if (!R.Ok)
      fatal("kernel " + Kernels[I].Name + " failed: " + R.Error);
    Insns[I] = VM.stats().Instructions;
  }

  OpLog Log;
  uint64_t RoundInsns = 0, Rounds = 0;
  const double Cpu0 = selfCpuSeconds();
  const auto Start = Clock::now();
  for (; keepGoing(Start, O.Seconds, Log.LatencyMs.size()); ++Rounds) {
    for (size_t I = 0; I < Kernels.size(); ++I) {
      const Kernel &K = Kernels[I];
      vm::Machine &VM = *Machines[I].VM;
      VM.resetStats();
      auto T0 = Clock::now();
      auto R = VM.call(K.Entry, K.Args);
      Log.LatencyMs.push_back(msSince(T0));
      ++Res.Attempted;
      if (!R.Ok) {
        fprintf(stderr, "s1bench: %s: %s\n", K.Name.c_str(), R.Error.c_str());
        ++Res.Failed;
        continue;
      }
      requireRepeat("sim_insns of " + K.Name, Insns[I], VM.stats().Instructions,
                    Rounds);
      if (!R.Result || !K.check(*R.Result)) {
        fprintf(stderr, "s1bench: %s returned %s, expected %s\n",
                K.Name.c_str(),
                R.Result ? sexpr::toString(*R.Result).c_str() : "?",
                K.Expected.c_str());
        Res.Correct = false;
      }
    }
  }
  Log.WallSeconds = msSince(Start) / 1000.0;
  Log.CpuSeconds = selfCpuSeconds() - Cpu0;
  for (size_t I = 0; I < Kernels.size(); ++I) {
    RoundInsns += Insns[I];
    std::vector<double> Mine;
    for (size_t J = I; J < Log.LatencyMs.size(); J += Kernels.size())
      Mine.push_back(Log.LatencyMs[J]);
    fprintf(stderr,
            "s1bench: run %-15s %10llu insns  %4llu gc  median %.3f ms\n",
            Kernels[I].Name.c_str(), static_cast<unsigned long long>(Insns[I]),
            static_cast<unsigned long long>(Machines[I].VM->stats().GcRuns),
            quantile(Mine, 0.5));
  }

  uint64_t Words = 0;
  for (const Loaded &L : Machines)
    Words += codeWords(*L.Program);
  addTimingMetrics(Res, Log);
  Res.add("peak_rss_mb", selfPeakRssMb(), "MiB");
  Res.add("sim_insns_per_op",
          static_cast<double>(RoundInsns) / static_cast<double>(Kernels.size()),
          "count");
  Res.add("code_words", static_cast<double>(Words), "count");
  addSetupMetric(Res, Setups);
  return Res;
}

} // namespace perfbench
