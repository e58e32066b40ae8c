//===- perfbench/src/Layers.cpp - The traced per-layer run ----------------===//
//
// `--trace 1`: times calls into each layer's public functions on the
// seed's inputs of all four workloads and reports per-layer numbers. The
// pass alternates untraced and traced until the run's seconds are up; the
// ratio of their times is the tracing overhead. Per-layer numbers come
// from the traced passes' spans.
//
// Millisecond metrics are per operation of the workload the layer serves
// (per compiled module, per service request, per kernel call, per oracle
// program); counts are per pass.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "Inputs.h"
#include "Kernels.h"
#include "Workloads.h"

#include "codegen/Codegen.h"
#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "opt/Cse.h"
#include "opt/MetaEval.h"
#include "service/CompileCache.h"
#include "service/Server.h"
#include "sexpr/Reader.h"
#include "stats/Stats.h"
#include "support/Diag.h"
#include "vm/Jit.h"

#include <algorithm>
#include <cstdio>

using namespace s1lisp;

namespace perfbench {

namespace {

/// What the pass measures besides span times.
struct Counts {
  uint64_t Modules = 0, Rewrites = 0, Eliminated = 0;
  double AnnotateMs = 0, TnbindMs = 0, CodegenSelfMs = 0;
  uint64_t Requests = 0, MemoHits = 0, MemoMisses = 0;
  double ProbeMs = 0, MissWithMemoMs = 0, MissWithoutMemoMs = 0;
  uint64_t MissCompiles = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheEvictions = 0, CacheBytes = 0;
  uint64_t NativeCalls = 0, ThreadedCalls = 0;
  uint64_t NativeInsns = 0, ThreadedInsns = 0, VmGcRuns = 0;
  double VmGcPauseMaxMs = 0;
  uint64_t InterpRows = 0, GcMinor = 0, GcMajor = 0, Promoted = 0, Conses = 0;
  double GcPauseMaxMs = 0;
  uint64_t Checked = 0, RowsCompared = 0;
};

/// The -O2 --cse pipeline of driver::compileModule, decomposed into its
/// public per-layer calls so each gets its own span.
codegen::CompileResult pipeline(ir::Module &M, const CorpusItem &Item,
                                Counts &C) {
  const driver::CompilerOptions Opts = o2Cse();
  trace::Span Op("compile.module");
  DiagEngine Diags;
  std::vector<sexpr::Value> Forms;
  {
    trace::Span S("sexpr.read");
    Forms = sexpr::readAll(M.Syms, M.DataHeap, Item.P.Source, Diags);
  }
  {
    trace::Span S("frontend.convert");
    for (sexpr::Value F : Forms)
      frontend::convertTopLevel(M, F, Diags);
  }
  if (Diags.hasErrors())
    fatal(Item.Name + " does not convert: " + Diags.str());
  std::unordered_map<std::string, int> FuncIndex;
  for (const auto &F : M.functions())
    FuncIndex[F->name()] = static_cast<int>(FuncIndex.size());
  std::vector<codegen::CompiledUnit> Units;
  for (const auto &F : M.functions()) {
    {
      trace::Span S("opt.metaeval");
      C.Rewrites += opt::metaEvaluate(*F, Opts.Opt);
    }
    {
      trace::Span S("opt.cse");
      C.Eliminated += opt::eliminateCommonSubexpressions(*F, Opts.CseOpts);
    }
    trace::Span S("codegen.unit");
    Units.push_back(codegen::compileFunctionUnit(M, *F, Opts.Codegen, FuncIndex));
  }
  std::vector<const codegen::CompiledUnit *> Ptrs;
  for (const auto &U : Units)
    Ptrs.push_back(&U);
  trace::Span S("codegen.link");
  return codegen::linkUnits(M, Ptrs);
}

/// The compile corpus through pipeline(), each module checked against
/// compileSource, plus the program's own phase timers.
void tracedPipeline(const std::vector<CorpusItem> &Corpus, Counts &C) {
  stats::setTimingEnabled(true);
  stats::resetPhaseTimes();
  for (size_t I = 0; I < Corpus.size(); ++I) {
    trace::setRequest(I + 1);
    ir::Module M;
    codegen::CompileResult R = pipeline(M, Corpus[I], C);
    // The decomposition must build the program compileSource builds.
    stats::setTimingEnabled(false);
    ir::Module Whole;
    auto Out = driver::compileSource(Whole, Corpus[I].P.Source, o2Cse());
    stats::setTimingEnabled(true);
    if (!R.Ok || !Out.Ok ||
        driver::listing(R.Program) != driver::listing(Out.Program))
      fatal("the per-layer pipeline differs from compileSource on " +
            Corpus[I].Name);
    ++C.Modules;
  }
  // The program's own phase timers split codegen.unit (jobs 1, so they
  // run on this thread): annotate and TNBIND nest inside codegen.
  for (const stats::PhaseTime &P : stats::phaseTimes()) {
    if (P.Name == "annotate")
      C.AnnotateMs += P.WallSeconds * 1e3;
    else if (P.Name == "tnbind")
      C.TnbindMs += P.WallSeconds * 1e3;
    else if (P.Name == "codegen")
      C.CodegenSelfMs += P.SelfWallSeconds * 1e3;
  }
  stats::setTimingEnabled(false);
}

/// The corpus compiled whole at -O0 and at -O2 (no CSE), for the known
/// cost of an unoptimized compile being the slower one.
void tracedOptLevels(const std::vector<CorpusItem> &Corpus) {
  driver::CompilerOptions O0, O2;
  O0.Optimize = false;
  for (const CorpusItem &Item : Corpus) {
    for (bool Optimize : {false, true}) {
      ir::Module M;
      trace::Span S(Optimize ? "driver.compile.O2" : "driver.compile.O0");
      if (!driver::compileSource(M, Item.P.Source, Optimize ? O2 : O0).Ok)
        fatal(Item.Name + " does not compile");
    }
  }
}

/// A FunctionMemo that times every probe of the CompileCache it wraps.
class TimedMemo : public driver::FunctionMemo {
public:
  std::shared_ptr<const driver::MemoizedFunction> lookup(uint64_t Key) override {
    trace::Span S("driver.memo_probe");
    auto T0 = Clock::now();
    auto Hit = Cache.lookup(Key);
    ProbeMs += msSince(T0);
    return Hit;
  }
  void insert(uint64_t Key,
              std::shared_ptr<const driver::MemoizedFunction> Fn) override {
    Cache.insert(Key, std::move(Fn));
  }
  service::CompileCache Cache{CacheMb << 20};
  double ProbeMs = 0;
};

constexpr uint64_t LayerRounds = 8;

/// Client 0's service sequence compiled in process through a timed memo:
/// probe cost, hit ratio, the collection each request ends with, and what
/// a miss pays for going through a memo at all.
void tracedMemo(const ClientLibrary &L, Counts &C) {
  const driver::CompilerOptions Opts = o2Cse();
  TimedMemo Memo;
  auto compile = [&](const Request &Q, bool Count) {
    ir::Module M;
    stats::RemarkStream Remarks;
    auto Out = driver::compileSource(M, *Q.Msg.get("source"), Opts,
                                     Q.Msg.flag("remarks") ? &Remarks : nullptr,
                                     &Memo);
    if (!Out.Ok)
      fatal("memo compile failed: " + Out.Error);
    if (Count) {
      C.MemoHits += Out.MemoHits;
      C.MemoMisses += Out.MemoMisses;
      ++C.Requests;
    }
    trace::Span S("ir.module_gc");
    M.collectGarbage();
  };
  for (const Request &Q : L.priming())
    compile(Q, false);
  Memo.ProbeMs = 0;
  for (uint64_t R = 0; R < LayerRounds; ++R) {
    for (const Request &Q : L.round(R)) {
      trace::setRequest(1000 + C.Requests);
      trace::Span Op("memo.request");
      compile(Q, true);
    }
    // The same miss with a memo (all misses: a fresh cache) and without.
    std::string Src;
    for (const Request &Q : L.round(R + LayerRounds))
      if (Q.Kind == "new")
        Src = *Q.Msg.get("source");
    for (int Side = 0; Side < 2; ++Side) {
      TimedMemo Fresh;
      ir::Module M;
      auto T0 = Clock::now();
      auto Out = driver::compileSource(M, Src, Opts, nullptr,
                                       Side ? nullptr : &Fresh);
      (Side ? C.MissWithoutMemoMs : C.MissWithMemoMs) += msSince(T0);
      if (!Out.Ok)
        fatal("miss compile failed: " + Out.Error);
    }
    ++C.MissCompiles;
  }
  C.ProbeMs = Memo.ProbeMs;
}

/// The same sequence through the real daemon, through Server::handle in
/// process, and through the protocol's encoder and decoder alone.
void tracedService(const Options &O, const ClientLibrary &L, Counts &C) {
  Daemon D(O.BinDir, "trace");
  service::Client Conn;
  D.connect(Conn);
  service::ServerOptions SO;
  SO.CacheMaxBytes = static_cast<size_t>(CacheMb) << 20;
  service::Server InProcess(SO);
  service::Message A;
  for (const Request &Q : L.priming()) {
    if (!Conn.roundTrip(Q.Msg, A))
      fatal("lost the connection to s1lispd");
    InProcess.handle(Q.Msg);
  }
  uint64_t Id = 5000;
  for (uint64_t R = 0; R < LayerRounds; ++R)
    for (const Request &Q : L.round(R)) {
      trace::setRequest(++Id);
      {
        trace::Span S("service.roundtrip");
        if (!Conn.roundTrip(Q.Msg, A) || A.getOr("ok") != "1")
          fatal("traced service request failed");
      }
      service::Message B;
      {
        trace::Span S("service.handle");
        B = InProcess.handle(Q.Msg);
      }
      trace::Span S("service.protocol");
      service::Message Back;
      if (!service::decodeMessage(service::encodeMessage(Q.Msg), Back) ||
          !service::decodeMessage(service::encodeMessage(B), Back))
        fatal("protocol round trip failed");
    }
  service::Message StatsReq, Stats;
  StatsReq.set("cmd", "stats");
  if (!Conn.roundTrip(StatsReq, Stats))
    fatal("lost the connection to s1lispd");
  C.CacheHits = std::stoull(Stats.getOr("cache-hits", "0"));
  C.CacheMisses = std::stoull(Stats.getOr("cache-misses", "0"));
  C.CacheEvictions = std::stoull(Stats.getOr("cache-evictions", "0"));
  C.CacheBytes = std::stoull(Stats.getOr("cache-bytes", "0"));
  Conn.close();
  D.shutdown();
}

constexpr int KernelCalls = 3;

/// The run kernels: pre-decode and JIT set-up, then calls on the native
/// and the threaded engine.
void tracedVm(const std::vector<Kernel> &Kernels, Counts &C) {
  for (vm::Engine E : {vm::Engine::Native, vm::Engine::Threaded}) {
    const bool Native = E == vm::Engine::Native;
    for (const Kernel &K : Kernels) {
      ir::Module M;
      auto Out = driver::compileSource(M, K.Source);
      if (!Out.Ok)
        fatal("kernel does not compile: " + Out.Error);
      std::shared_ptr<const vm::DecodedProgram> DP;
      {
        trace::Span S("vm.predecode");
        DP = vm::predecode(Out.Program);
      }
      vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
      VM.setEngine(E);
      VM.setGcBudget(K.GcBudgetBytes);
      VM.setDecodedProgram(DP);
      if (Native) {
        // The machine takes no outside JitProgram and compiles its own in
        // the first call below; this times an equal compile of the same
        // decoded program, whose result is freed at once.
        trace::Span S("vm.jit_compile");
        vm::compileJit(DP, {true, VM.gcEnabled()}, VM);
      }
      VM.call(K.Entry, K.Args); // the machine's own lazy set-up
      VM.resetStats();
      for (int I = 0; I < KernelCalls; ++I) {
        trace::Span S(Native ? "vm.exec.native" : "vm.exec.threaded");
        auto R = VM.call(K.Entry, K.Args);
        if (!R.Ok || !R.Result || !K.check(*R.Result))
          fatal("kernel " + K.Name + " gave a wrong result in the traced run");
      }
      (Native ? C.NativeInsns : C.ThreadedInsns) += VM.stats().Instructions;
      (Native ? C.NativeCalls : C.ThreadedCalls) += KernelCalls;
      if (Native) {
        C.VmGcRuns += VM.stats().GcRuns;
        C.VmGcPauseMaxMs = std::max(C.VmGcPauseMaxMs, VM.gcPauseNsMax() / 1e6);
      }
    }
  }
}

constexpr size_t OraclePrograms = 24;

/// The interpreter on the oracle's programs (its reference side) and on
/// the examples/gc kernels under a heap budget (the oracle runs its
/// interpreter without a collection schedule), then full oracle checks.
void tracedInterpAndOracle(uint64_t Seed, const std::vector<Kernel> &Kernels,
                           Counts &C) {
  Rng R(Seed * 31 + 17);
  std::vector<GeneratedProgram> Programs;
  for (size_t I = 0; I < OraclePrograms; ++I)
    Programs.push_back(fuzz::Generator(static_cast<uint32_t>(R.range(1, 400))).generate());
  for (const GeneratedProgram &P : Programs) {
    ir::Module M;
    DiagEngine Diags;
    if (!frontend::convertSource(M, P.Source, Diags))
      fatal("oracle program does not convert");
    for (const auto &Row : P.ArgGrid) {
      interp::Interpreter I(M);
      I.setFuel(2'000'000);
      std::vector<interp::RtValue> Args;
      for (sexpr::Value V : Row)
        Args.push_back(interp::RtValue::data(V));
      trace::Span S("interp.eval");
      I.call(P.Entry, Args);
      ++C.InterpRows;
    }
  }
  for (const Kernel &K : Kernels) {
    if (!K.GcBudgetBytes)
      continue;
    ir::Module M;
    DiagEngine Diags;
    if (!frontend::convertSource(M, K.Source, Diags))
      fatal("kernel does not convert");
    interp::Interpreter I(M);
    I.setHeapBudget(K.GcBudgetBytes);
    std::vector<interp::RtValue> Args;
    for (sexpr::Value V : K.Args)
      Args.push_back(interp::RtValue::data(V));
    for (int Call = 0; Call < KernelCalls; ++Call) {
      trace::Span S("interp.gc_kernel");
      auto Res = I.call(K.Entry, Args);
      if (!Res.Ok || Res.Value.str() != K.Expected)
        fatal("interpreted kernel " + K.Name + " gave a wrong result");
    }
    const sexpr::GcStats &G = I.gcStats();
    C.GcMinor += G.Collections;
    C.GcMajor += G.MajorCollections;
    C.Promoted += G.CellsPromoted;
    C.Conses += I.heap().consCount();
    C.GcPauseMaxMs = std::max(C.GcPauseMaxMs, G.PauseNsMax / 1e6);
  }
  fuzz::OracleOptions OO;
  OO.Jobs = oracleJobs();
  for (const GeneratedProgram &P : Programs) {
    fuzz::CheckResult Res;
    {
      trace::Span S("fuzz.check");
      Res = fuzz::checkProgram(P, OO);
    }
    if (Res.St != fuzz::CheckResult::Status::Agree)
      fatal("oracle program diverged in the traced run");
    C.RowsCompared += Res.RowsCompared;
    ++C.Checked;
  }
}

/// One pass over every layer; returns its wall time in seconds.
double pass(const Options &O, Counts &C) {
  const std::vector<CorpusItem> Corpus = compileCorpus(O.Seed);
  const ClientLibrary Library(O.Seed, 0);
  const std::vector<Kernel> Kernels = runKernels(O.Seed);
  auto T0 = Clock::now();
  tracedPipeline(Corpus, C);
  tracedOptLevels(Corpus);
  tracedMemo(Library, C);
  tracedService(O, Library, C);
  tracedVm(Kernels, C);
  tracedInterpAndOracle(O.Seed, Kernels, C);
  return msSince(T0) / 1000.0;
}

} // namespace

RunResult runLayers(const Options &O, const std::string &OutDir) {
  Counts Untraced, C;
  double Plain = 0, Traced = 0;
  uint64_t Passes = 0;
  pass(O, Untraced); // warm-up: page cache, allocator, first daemon start
  const auto Start = Clock::now();
  while (Passes == 0 || msSince(Start) < O.Seconds * 1000.0) {
    // Alternate which kind goes first, so drift favours neither.
    for (bool On : {Passes % 2 == 1, Passes % 2 == 0}) {
      trace::setEnabled(On);
      (On ? Traced : Plain) += pass(O, On ? C : Untraced);
    }
    trace::setEnabled(false);
    ++Passes;
  }

  const std::string Base =
      OutDir + "/trace-" + O.Workload + "-" + std::to_string(O.Seed);
  if (!trace::write(Base + ".json", Base + "-summary.json"))
    fatal("cannot write the trace under " + OutDir);
  fprintf(stderr, "s1bench: trace written to %s.json and %s-summary.json\n",
          Base.c_str(), Base.c_str());

  auto Sum = trace::summarize();
  auto Ms = [&](const char *Span) { return Sum[Span].TotalMs; };
  auto Per = [](double Total, uint64_t N) { return N ? Total / N : 0.0; };
  RunResult Res;
  Res.Attempted = C.Modules + C.Requests + C.NativeCalls + C.ThreadedCalls +
                  C.InterpRows + C.Checked;
  auto PerPass = [&](uint64_t N) { return static_cast<double>(N) / Passes; };
  Res.add("sexpr.read_ms", Per(Ms("sexpr.read"), C.Modules), "ms");
  Res.add("frontend.convert_ms", Per(Ms("frontend.convert"), C.Modules), "ms");
  Res.add("opt.metaeval_ms", Per(Ms("opt.metaeval"), C.Modules), "ms");
  Res.add("opt.metaeval_rewrites", PerPass(C.Rewrites), "count");
  Res.add("opt.cse_ms", Per(Ms("opt.cse"), C.Modules), "ms");
  Res.add("opt.cse_eliminated", PerPass(C.Eliminated), "count");
  Res.add("codegen.unit_ms", Per(Ms("codegen.unit"), C.Modules), "ms");
  Res.add("annotate.ms", Per(C.AnnotateMs, C.Modules), "ms");
  Res.add("tnbind.ms", Per(C.TnbindMs, C.Modules), "ms");
  Res.add("codegen.ms", Per(C.CodegenSelfMs, C.Modules), "ms");
  Res.add("codegen.link_ms", Per(Ms("codegen.link"), C.Modules), "ms");
  Res.add("driver.o0_compile_ms", Per(Ms("driver.compile.O0"), C.Modules), "ms");
  Res.add("driver.o2_compile_ms", Per(Ms("driver.compile.O2"), C.Modules), "ms");
  Res.add("driver.memo_probe_ms", Per(C.ProbeMs, C.Requests), "ms");
  Res.add("driver.memo_hit_ratio",
          Per(static_cast<double>(C.MemoHits), C.MemoHits + C.MemoMisses),
          "ratio");
  fprintf(stderr,
          "s1bench: a new-module miss takes %.3f ms through a memo, %.3f ms "
          "without\n",
          Per(C.MissWithMemoMs, C.MissCompiles),
          Per(C.MissWithoutMemoMs, C.MissCompiles));
  Res.add("driver.miss_overhead_ms",
          Per(C.MissWithMemoMs - C.MissWithoutMemoMs, C.MissCompiles), "ms");
  Res.add("ir.module_gc_ms", Per(Ms("ir.module_gc"), C.Requests), "ms");
  const uint64_t ServiceRequests = Sum["service.roundtrip"].Count;
  Res.add("service.roundtrip_ms", Per(Ms("service.roundtrip"), ServiceRequests), "ms");
  Res.add("service.handle_ms", Per(Ms("service.handle"), ServiceRequests), "ms");
  Res.add("service.protocol_ms", Per(Ms("service.protocol"), ServiceRequests), "ms");
  Res.add("service.cache_hits", C.CacheHits, "count");
  Res.add("service.cache_misses", C.CacheMisses, "count");
  Res.add("service.cache_evictions", C.CacheEvictions, "count");
  Res.add("service.cache_bytes", C.CacheBytes, "bytes");
  // Per set-up of the seven kernels (run/setup_s pays both).
  Res.add("vm.predecode_ms", Per(Ms("vm.predecode"), 2 * Passes), "ms");
  Res.add("vm.jit_compile_ms", Per(Ms("vm.jit_compile"), Passes), "ms");
  Res.add("vm.exec_ms.native", Per(Ms("vm.exec.native"), C.NativeCalls), "ms");
  Res.add("vm.insns_per_s.native", C.NativeInsns / (Ms("vm.exec.native") / 1e3), "1/s");
  Res.add("vm.gc_runs", PerPass(C.VmGcRuns), "count");
  Res.add("vm.gc_pause_max_ms", C.VmGcPauseMaxMs, "ms");
  Res.add("vm.exec_ms.threaded", Per(Ms("vm.exec.threaded"), C.ThreadedCalls), "ms");
  Res.add("vm.insns_per_s.threaded",
          C.ThreadedInsns / (Ms("vm.exec.threaded") / 1e3), "1/s");
  Res.add("interp.eval_ms", Per(Ms("interp.eval"), C.InterpRows), "ms");
  Res.add("sexpr.gc_minor", PerPass(C.GcMinor), "count");
  Res.add("sexpr.gc_major", PerPass(C.GcMajor), "count");
  Res.add("sexpr.gc_pause_max_ms", C.GcPauseMaxMs, "ms");
  Res.add("sexpr.promoted_per_cons",
          Per(static_cast<double>(C.Promoted), C.Conses), "ratio");
  Res.add("fuzz.check_ms", Per(Ms("fuzz.check"), C.Checked), "ms");
  Res.add("fuzz.rows_compared", PerPass(C.RowsCompared), "count");
  Res.add("trace.overhead_pct", (Traced / Plain - 1.0) * 100.0, "%");
  Res.add("trace.spans", PerPass(trace::spanCount()), "count");
  return Res;
}

} // namespace perfbench
