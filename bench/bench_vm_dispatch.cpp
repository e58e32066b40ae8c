//===- bench/bench_vm_dispatch.cpp - VM dispatch-engine wall clock --------===//
//
// Times the same compiled programs on all three dispatch engines: the
// legacy per-step switch over s1::Instruction, the pre-decoded threaded
// loop (fused operand handlers behind a computed goto where available),
// and the native block compiler over the same XInsn stream. The engines
// must agree on every architectural counter — Instructions, Movs,
// SpecialSearchSteps, the PerOpcode histogram — so the wall-clock deltas
// are pure dispatch cost, not a semantic change. An extra timing row runs
// the threaded engine with detailed per-opcode accounting off, measuring
// what the disabled-stats hot loop costs relative to the instrumented one.
//
// The "loop" kernel is the dispatch-bound gate: on x86-64 the native tier
// must beat the threaded loop by at least 5x on it or the binary exits
// nonzero (the block compiler's safepoint batching and virtual operand
// stack are what clear that bar; the one-template-per-XInsn translator
// managed ~4x). On hosts without the JIT the native rows are skipped
// loudly.
//
// Methodology (see EXPERIMENTS.md): per workload and engine, one warm-up
// call, then the minimum of five timed calls; ns/instruction divides that
// by the engine-reported retired-instruction count.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "vm/Jit.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <thread>

using namespace s1lisp;
using namespace s1lisp::bench;

namespace {

struct Workload {
  const char *Name;
  const char *Source;
  const char *Entry;
  std::vector<sexpr::Value> Args;
};

// Dispatch-bound kernels: a straight-line accumulation loop, call-heavy
// double recursion, and TAK (branchy, deeply recursive, argument
// shuffling) — together they exercise the MOV/ALU/branch/call handlers
// that dominate compiled LISP execution.
const Workload Workloads[] = {
    {"loop",
     "(defun kernel (n)"
     "  (let ((s 0)) (dotimes (i n) (setq s (+ s i))) s))",
     "kernel",
     {fx(60000)}},
    {"fib",
     "(defun kernel (n)"
     "  (if (< n 2) n (+ (kernel (- n 1)) (kernel (- n 2)))))",
     "kernel",
     {fx(22)}},
    {"tak",
     "(defun tak (x y z)"
     "  (if (< y x)"
     "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))"
     "      z))",
     "tak",
     {fx(18), fx(12), fx(6)}},
};

const char *hostArch() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "other";
#endif
}

struct Timed {
  double BestNs = 0;
  vm::MachineStats Stats;
};

/// One warm-up call, then the best of five timed calls on a fresh stats
/// window (counters are per-window, timing is per-call). The warm-up
/// also pays the native tier's one-time template compilation, so the
/// timed calls measure steady-state execution on every engine.
Timed timeEngine(const Workload &W, vm::Engine Eng, bool DetailedStats) {
  Compiled P = compileOrDie(W.Source);
  P.VM->setEngine(Eng);
  P.VM->setDetailedStats(DetailedStats);
  runOrDie(P, W.Entry, W.Args);
  Timed T;
  T.BestNs = 1e300;
  for (int Rep = 0; Rep < 5; ++Rep) {
    P.VM->resetStats();
    auto Start = std::chrono::steady_clock::now();
    runOrDie(P, W.Entry, W.Args);
    auto End = std::chrono::steady_clock::now();
    double Ns = std::chrono::duration<double, std::nano>(End - Start).count();
    if (Ns < T.BestNs) {
      T.BestNs = Ns;
      T.Stats = P.VM->stats();
    }
  }
  return T;
}

bool sameCounters(const vm::MachineStats &A, const vm::MachineStats &B) {
  return A.Instructions == B.Instructions && A.Movs == B.Movs &&
         A.Calls == B.Calls && A.TailCalls == B.TailCalls &&
         A.Syscalls == B.Syscalls && A.HeapObjects == B.HeapObjects &&
         A.HeapWordsUsed == B.HeapWordsUsed &&
         A.StackHighWater == B.StackHighWater &&
         A.SpecialSearches == B.SpecialSearches &&
         A.SpecialSearchSteps == B.SpecialSearchSteps &&
         A.PerOpcode == B.PerOpcode;
}

/// Retired instructions per second from a best-of-five wall time.
uint64_t ips(const Timed &T) {
  return static_cast<uint64_t>(T.Stats.Instructions / (T.BestNs / 1e9));
}

int printTable() {
  const bool HaveJit = vm::jitAvailable();
  tableHeader("VM dispatch: legacy switch vs threaded loop vs native JIT");
  if (!HaveJit)
    printf("NOTE: native tier unavailable on %s: native rows skipped, "
           "the 5x gate does not apply\n",
           hostArch());
  printf("%-8s %14s %12s %12s %12s %9s %9s\n", "kernel", "instructions",
         "legacy ns/i", "thread ns/i", "native ns/i", "t/l", "n/t");
  JsonReport Report("vm_dispatch");
  Report.add("host.arch", hostArch());
  Report.add("host.hardware_concurrency",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
  Report.add("host.jit_available", static_cast<uint64_t>(HaveJit));
  bool AllIdentical = true;
  double LoopNativeSpeedup = 0;
  double LegacyTotal = 0, ThreadedTotal = 0, NativeTotal = 0, NoStatsTotal = 0;
  uint64_t InsnTotal = 0;
  for (const Workload &W : Workloads) {
    Timed Legacy = timeEngine(W, vm::Engine::Legacy, /*DetailedStats=*/true);
    Timed Threaded = timeEngine(W, vm::Engine::Threaded, /*DetailedStats=*/true);
    Timed Native;
    if (HaveJit)
      Native = timeEngine(W, vm::Engine::Native, /*DetailedStats=*/true);
    Timed NoStats = timeEngine(W, vm::Engine::Threaded, /*DetailedStats=*/false);
    bool Identical = sameCounters(Legacy.Stats, Threaded.Stats) &&
                     (!HaveJit || sameCounters(Legacy.Stats, Native.Stats));
    AllIdentical = AllIdentical && Identical;
    // With detail off only the histogram and Movs go dark; everything
    // architectural must still match the instrumented run.
    AllIdentical = AllIdentical &&
                   NoStats.Stats.Instructions == Threaded.Stats.Instructions &&
                   NoStats.Stats.SpecialSearchSteps ==
                       Threaded.Stats.SpecialSearchSteps;
    uint64_t Insns = Legacy.Stats.Instructions;
    double NativeNsPerI = HaveJit ? Native.BestNs / Insns : 0;
    double NativeOverThreaded = HaveJit ? Threaded.BestNs / Native.BestNs : 0;
    printf("%-8s %14" PRIu64 " %12.2f %12.2f %12.2f %8.2fx %8.2fx%s\n", W.Name,
           Insns, Legacy.BestNs / Insns, Threaded.BestNs / Insns, NativeNsPerI,
           Legacy.BestNs / Threaded.BestNs, NativeOverThreaded,
           Identical ? "" : "  COUNTER MISMATCH");
    Report.add(std::string(W.Name) + ".instructions", Insns);
    Report.add(std::string(W.Name) + ".legacy_ns",
               static_cast<uint64_t>(Legacy.BestNs));
    Report.add(std::string(W.Name) + ".threaded_ns",
               static_cast<uint64_t>(Threaded.BestNs));
    Report.add(std::string(W.Name) + ".threaded_nostats_ns",
               static_cast<uint64_t>(NoStats.BestNs));
    Report.add(std::string(W.Name) + ".legacy_ips", ips(Legacy));
    Report.add(std::string(W.Name) + ".threaded_ips", ips(Threaded));
    Report.add(std::string(W.Name) + ".threaded_speedup_x100",
               static_cast<uint64_t>(Legacy.BestNs / Threaded.BestNs * 100));
    if (HaveJit) {
      Report.add(std::string(W.Name) + ".native_ns",
                 static_cast<uint64_t>(Native.BestNs));
      Report.add(std::string(W.Name) + ".native_ips", ips(Native));
      Report.add(std::string(W.Name) + ".native_speedup_x100",
                 static_cast<uint64_t>(NativeOverThreaded * 100));
    }
    Report.add(std::string(W.Name) + ".counters_identical", Identical);
    if (std::string(W.Name) == "loop")
      LoopNativeSpeedup = NativeOverThreaded;
    LegacyTotal += Legacy.BestNs;
    ThreadedTotal += Threaded.BestNs;
    NativeTotal += Native.BestNs;
    NoStatsTotal += NoStats.BestNs;
    InsnTotal += Insns;
  }
  double Speedup = LegacyTotal / ThreadedTotal;
  double NativeSpeedup = HaveJit ? ThreadedTotal / NativeTotal : 0;
  printf("overall: %.2fx threaded over legacy, %.2fx native over threaded "
         "(%.2f -> %.2f -> %.2f ns/instruction; %.2f with stats detail off), "
         "counters %s\n",
         Speedup, NativeSpeedup, LegacyTotal / InsnTotal,
         ThreadedTotal / InsnTotal, HaveJit ? NativeTotal / InsnTotal : 0.0,
         NoStatsTotal / InsnTotal, AllIdentical ? "identical" : "DIVERGED");
  Report.add("total.instructions", InsnTotal);
  Report.add("total.legacy_ns", static_cast<uint64_t>(LegacyTotal));
  Report.add("total.threaded_ns", static_cast<uint64_t>(ThreadedTotal));
  Report.add("total.threaded_nostats_ns", static_cast<uint64_t>(NoStatsTotal));
  Report.add("total.speedup_x100", static_cast<uint64_t>(Speedup * 100));
  if (HaveJit) {
    Report.add("total.native_ns", static_cast<uint64_t>(NativeTotal));
    Report.add("total.native_speedup_x100",
               static_cast<uint64_t>(NativeSpeedup * 100));
  }
  Report.add("total.counters_identical", AllIdentical);
  Report.write();
  if (!AllIdentical) {
    fprintf(stderr, "FATAL: engines disagree on architectural counters\n");
    return 1;
  }
  if (HaveJit && LoopNativeSpeedup < 5.0) {
    fprintf(stderr,
            "FATAL: native tier is only %.2fx over threaded on the "
            "dispatch-bound loop kernel (expected >= 5x)\n",
            LoopNativeSpeedup);
    return 1;
  }
  return 0;
}

/// The google-benchmark rows below reset stats every iteration to dodge
/// the fuel cap, which also discards the counters that would prove the
/// engines timed the same work. So the cross-engine agreement is
/// asserted here ONCE per run, on exactly the workload the timing loops
/// replay: if any engine retires a different instruction stream for it,
/// the binary fails before a single timing row is reported, and the
/// per-iteration resets can't silently compare different workloads.
int verifyTimedWorkloadAgreement() {
  const char *Src = Workloads[0].Source;
  std::vector<sexpr::Value> Args = {fx(50000)};
  Compiled Legacy = compileOrDie(Src);
  Legacy.VM->setEngine(vm::Engine::Legacy);
  runOrDie(Legacy, "kernel", Args);
  Compiled Threaded = compileOrDie(Src);
  Threaded.VM->setEngine(vm::Engine::Threaded);
  runOrDie(Threaded, "kernel", Args);
  bool Agree = sameCounters(Legacy.VM->stats(), Threaded.VM->stats());
  if (vm::jitAvailable()) {
    Compiled Native = compileOrDie(Src);
    Native.VM->setEngine(vm::Engine::Native);
    runOrDie(Native, "kernel", Args);
    Agree = Agree && sameCounters(Legacy.VM->stats(), Native.VM->stats());
  }
  if (!Agree) {
    fprintf(stderr, "FATAL: engines disagree on the retired instruction "
                    "stream of the timed kernel; the BM_* rows would "
                    "compare different workloads\n");
    return 1;
  }
  return 0;
}

// Each timing iteration gets a fresh stats window: the fuel budget is a
// cap on Stats.Instructions, and the faster engines retire enough
// instructions across google-benchmark's iteration count to exhaust it
// mid-run otherwise. Cross-engine counter agreement for this kernel is
// asserted once per run by verifyTimedWorkloadAgreement(), not per
// iteration.
void BM_LegacyDispatch(benchmark::State &State) {
  Compiled P = compileOrDie(Workloads[0].Source);
  P.VM->setEngine(vm::Engine::Legacy);
  for (auto _ : State) {
    P.VM->resetStats();
    runOrDie(P, "kernel", {fx(50000)});
  }
}
BENCHMARK(BM_LegacyDispatch);

void BM_ThreadedDispatch(benchmark::State &State) {
  Compiled P = compileOrDie(Workloads[0].Source);
  P.VM->setEngine(vm::Engine::Threaded);
  for (auto _ : State) {
    P.VM->resetStats();
    runOrDie(P, "kernel", {fx(50000)});
  }
}
BENCHMARK(BM_ThreadedDispatch);

void BM_ThreadedDispatchNoStats(benchmark::State &State) {
  Compiled P = compileOrDie(Workloads[0].Source);
  P.VM->setEngine(vm::Engine::Threaded);
  P.VM->setDetailedStats(false);
  for (auto _ : State) {
    P.VM->resetStats();
    runOrDie(P, "kernel", {fx(50000)});
  }
}
BENCHMARK(BM_ThreadedDispatchNoStats);

void BM_NativeDispatch(benchmark::State &State) {
  if (!vm::jitAvailable()) {
    State.SkipWithError("native tier unavailable on this host");
    return;
  }
  Compiled P = compileOrDie(Workloads[0].Source);
  P.VM->setEngine(vm::Engine::Native);
  for (auto _ : State) {
    P.VM->resetStats();
    runOrDie(P, "kernel", {fx(50000)});
  }
}
BENCHMARK(BM_NativeDispatch);

} // namespace

int main(int argc, char **argv) {
  int Status = printTable();
  Status |= verifyTimedWorkloadAgreement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
