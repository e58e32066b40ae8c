//===- bench/bench_compile_throughput.cpp - Compiler-side throughput ------===//
//
// Measures the compiler itself (optimize + CSE + codegen units + link)
// over one generated 100-function module, reporting forms per second:
//
//  * -O0 versus -O1+CSE at jobs=1 — the cost of the §5 optimizer;
//  * the per-function pipeline at jobs 1/2/4/hw — parallel scaling
//    (degenerate on a single-core host, where every parallel row is
//    serial throughput plus scheduling overhead);
//  * the analysis ablation at jobs=1 — full per-pass re-analysis (the
//    recompute-the-world baseline) against incremental re-analysis (the
//    default), both on arena-allocated nodes.
//
// The frontend runs once; every timed repetition deep-clones the
// converted module outside the timer, so the numbers isolate the
// middle- and back-end work the PR's throughput changes target.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fuzz/Generator.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <thread>
#include <vector>

using namespace s1lisp;
using namespace s1lisp::bench;

namespace {

constexpr uint32_t Seed = 7000;
constexpr unsigned Helpers = 99; ///< +1 entry defun = 100 functions
constexpr unsigned Reps = 12;
/// Minimum acceptable jobs=4 speedup over serial on a >= 4-thread host.
constexpr double ScalingFloor = 2.0;

std::string generateSource() {
  fuzz::GenOptions GO;
  GO.Helpers = Helpers;
  // Larger bodies than the fuzz default: the baseline optimizer's
  // per-query effect/complexity walks are linear in the body, so the
  // incremental-analysis delta only shows on non-trivial trees.
  GO.MaxDepth = 6;
  GO.SizeBudget = 400;
  fuzz::Generator G(Seed, GO);
  return G.generate().Source;
}

/// Converts once; the timed loop clones from this.
ir::Module &baseModule() {
  static ir::Module BaseM;
  static bool Done = false;
  if (!Done) {
    DiagEngine Diags;
    if (!frontend::convertSource(BaseM, generateSource(), Diags)) {
      fprintf(stderr, "bench module failed to convert: %s\n",
              Diags.str().c_str());
      abort();
    }
    Done = true;
  }
  return BaseM;
}

driver::CompilerOptions optConfig(unsigned Jobs, bool Incremental) {
  driver::CompilerOptions O;
  O.Cse = true;
  O.Jobs = Jobs;
  O.Opt.IncrementalAnalysis = Incremental;
  return O;
}

/// Best-of-Reps wall time for one full-module compile. The minimum is the
/// least noisy estimator here: every repetition does identical work, so
/// anything above the minimum is scheduler/cache interference.
double timeRowNs(const driver::CompilerOptions &Opts) {
  const ir::Module &BaseM = baseModule();
  double Best = 0;
  for (unsigned R = 0; R <= Reps; ++R) {
    ir::Module M;
    BaseM.clone(M);
    auto Start = std::chrono::steady_clock::now();
    driver::CompileOutcome Out = driver::compileModule(M, Opts);
    auto End = std::chrono::steady_clock::now();
    if (!Out.Ok) {
      fprintf(stderr, "bench compile failed: %s\n", Out.Error.c_str());
      abort();
    }
    double Ns = std::chrono::duration<double, std::nano>(End - Start).count();
    if (R > 0 && (Best == 0 || Ns < Best)) // first rep is warm-up
      Best = Ns;
  }
  return Best;
}

/// Best-of-Reps wall time for the source-level optimizer (meta-evaluation
/// + CSE) alone over every function of the module. The allocator/analysis
/// ablation only touches this phase — node allocation during rewrites and
/// the re-analysis after each rewrite — so timing it in isolation keeps
/// the codegen back end (identical across the ablation rows) from
/// drowning the delta in scheduling noise.
double timeOptNs(bool Incremental) {
  const ir::Module &BaseM = baseModule();
  opt::OptOptions OO;
  OO.IncrementalAnalysis = Incremental;
  opt::CseOptions CO;
  double Best = 0;
  for (unsigned R = 0; R <= Reps; ++R) {
    ir::Module M;
    BaseM.clone(M);
    auto Start = std::chrono::steady_clock::now();
    for (auto &F : M.functions()) {
      opt::metaEvaluate(*F, OO, nullptr);
      opt::eliminateCommonSubexpressions(*F, CO, nullptr);
    }
    auto End = std::chrono::steady_clock::now();
    double Ns = std::chrono::duration<double, std::nano>(End - Start).count();
    if (R > 0 && (Best == 0 || Ns < Best)) // first rep is warm-up
      Best = Ns;
  }
  return Best;
}

int printTable() {
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t Forms = baseModule().functions().size();
  tableHeader("Compiler throughput (100-function module, frontend excluded)");
  printf("hardware threads: %u; %zu forms per compile, best of %u reps\n", Hw,
         Forms, Reps);
  printf("%-18s %6s %12s %14s\n", "row", "jobs", "forms/s", "wall ms");

  JsonReport Report("compile_throughput");
  struct Row {
    std::string Name;
    driver::CompilerOptions Opts;
  };
  std::vector<Row> Rows;
  {
    driver::CompilerOptions O0;
    O0.Optimize = false;
    Rows.push_back({"o0_serial", O0});
  }
  Rows.push_back({"o1_jobs1", optConfig(1, true)});
  unsigned PrevJ = 1;
  for (unsigned J : {2u, 4u, Hw}) {
    if (J <= PrevJ)
      continue; // dedup when hardware_concurrency lands on a swept value
    Rows.push_back({"o1_jobs" + std::to_string(J), optConfig(J, true)});
    PrevJ = J;
  }
  int Status = 0;
  double Jobs1Ns = 0, Jobs4Ns = 0;
  for (const Row &R : Rows) {
    double Ns = timeRowNs(R.Opts);
    double PerSec = static_cast<double>(Forms) / (Ns / 1e9);
    printf("%-18s %6u %12.0f %14.1f\n", R.Name.c_str(), R.Opts.Jobs, PerSec,
           Ns / 1e6);
    Report.add(R.Name + ".jobs", R.Opts.Jobs);
    Report.add(R.Name + ".forms_per_sec", static_cast<uint64_t>(PerSec));
    Report.add(R.Name + ".wall_ns", static_cast<uint64_t>(Ns));
    if (R.Name == "o1_jobs1")
      Jobs1Ns = Ns;
    if (R.Name == "o1_jobs4")
      Jobs4Ns = Ns;
  }
  if (Jobs4Ns > 0) {
    double Scaling = Jobs1Ns / Jobs4Ns;
    printf("parallel scaling: %.2fx over serial at 4 jobs\n", Scaling);
    Report.add("parallel_scaling_x100", static_cast<uint64_t>(Scaling * 100));
    // Scaling floor: negative scaling is a bug, not a data point. Only a
    // host with >= 4 hardware threads can meaningfully run 4 jobs, so
    // single-core CI hosts skip (loudly) rather than fail.
    if (Hw >= 4) {
      Report.add("scaling_floor_checked", 1);
      if (Scaling < ScalingFloor) {
        fprintf(stderr,
                "FATAL: parallel scaling %.2fx at 4 jobs is below the %.1fx "
                "floor on a %u-thread host\n",
                Scaling, ScalingFloor, Hw);
        Status = 1;
      }
    } else {
      Report.add("scaling_floor_checked", 0);
      printf("scaling floor skipped: %u hardware thread(s) < 4\n", Hw);
    }
  }

  // Analysis ablation over the optimizer phase alone, jobs=1.
  printf("optimizer-phase ablation (meta-eval + CSE only):\n");
  struct AblRow {
    std::string Name;
    bool Incremental;
  };
  AblRow AblRows[] = {
      {"arena_full_j1", false},
      {"arena_incr_j1", true},
  };
  double FullNs = 0, ArenaIncrNs = 0;
  for (const AblRow &R : AblRows) {
    double Ns = timeOptNs(R.Incremental);
    double PerSec = static_cast<double>(Forms) / (Ns / 1e9);
    printf("%-18s %6u %12.0f %14.1f\n", R.Name.c_str(), 1u, PerSec, Ns / 1e6);
    Report.add(R.Name + ".jobs", 1);
    Report.add(R.Name + ".forms_per_sec", static_cast<uint64_t>(PerSec));
    Report.add(R.Name + ".wall_ns", static_cast<uint64_t>(Ns));
    if (R.Incremental)
      ArenaIncrNs = Ns;
    else
      FullNs = Ns;
  }
  if (ArenaIncrNs > 0) {
    double Speedup = FullNs / ArenaIncrNs;
    printf("incremental analysis: %.2fx over full re-analysis at 1 job\n",
           Speedup);
    Report.add("incremental_speedup_x100",
               static_cast<uint64_t>(Speedup * 100));
  }
  Report.write();
  return Status;
}

void BM_CompileSerial(benchmark::State &State) {
  const ir::Module &BaseM = baseModule();
  driver::CompilerOptions Opts = optConfig(1, true);
  for (auto _ : State) {
    ir::Module M;
    BaseM.clone(M);
    benchmark::DoNotOptimize(driver::compileModule(M, Opts).Ok);
  }
}
BENCHMARK(BM_CompileSerial);

void BM_CompileParallel(benchmark::State &State) {
  const ir::Module &BaseM = baseModule();
  driver::CompilerOptions Opts =
      optConfig(std::max(1u, std::thread::hardware_concurrency()), true);
  for (auto _ : State) {
    ir::Module M;
    BaseM.clone(M);
    benchmark::DoNotOptimize(driver::compileModule(M, Opts).Ok);
  }
}
BENCHMARK(BM_CompileParallel);

} // namespace

int main(int argc, char **argv) {
  int Status = printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
