//===- tools/s1lisp-fuzz.cpp - Differential compiler fuzzer ---------------===//
//
// Generates seeded random programs over the whole accepted language, runs
// each on an argument grid through the interpreter and through the
// compiler at every point of the ablation matrix, and reports any
// divergence. With --reduce, a diverging program is shrunk by the
// delta-debugging reducer to a minimal failing form and written out as a
// runnable repro file.
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "interp/Interp.h"
#include "service/Client.h"
#include "sexpr/Printer.h"
#include "vm/Machine.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace s1lisp;

namespace {

const char *UsageText =
    "usage: s1lisp-fuzz [options]\n"
    "\n"
    "Differential fuzzing of the compiler against the interpreter: every\n"
    "generated program runs on its argument grid through the interpreter\n"
    "(the semantic reference) and through the compiled pipeline at every\n"
    "configuration of the ablation matrix. Printed values must match\n"
    "exactly; error outcomes must agree by class.\n"
    "\n"
    "Fuzzing:\n"
    "  --seed=N            first seed (default 1); seeds count up from here\n"
    "  --budget=N          number of seeded programs to run (default 100)\n"
    "  --weights=SPEC      grammar weight overrides, e.g. do=20,listops=0\n"
    "                      (names: arith if let let* cond case andor\n"
    "                      whenunless progn setq do listops float call)\n"
    "  --depth=N           expression nesting budget (default 4)\n"
    "  --size=N            compound-form budget per program (default 40)\n"
    "  --helpers=N         helper defuns per program (default 2)\n"
    "  --no-floats         fixnum-only programs\n"
    "\n"
    "Oracle:\n"
    "  --config=NAME       test one ablation configuration instead of all\n"
    "  --list-configs      print the ablation matrix names and exit\n"
    "  --stats             attach a src/stats counter delta to divergences\n"
    "                      (forces --jobs=1: deltas snapshot one registry)\n"
    "  --jobs=N            worker threads fanning out over the ablation\n"
    "                      matrix (default 1 = serial)\n"
    "  --engine=E          simulator dispatch engine for the compiled side:\n"
    "                      \"threaded\" (default), \"native\" (block compiler;\n"
    "                      x86-64 only, falls back to threaded elsewhere)\n"
    "                      or \"legacy\"\n"
    "  --gc-every=N        force both sides to collect their runtime heaps\n"
    "                      every N allocations (0 = never, the default);\n"
    "                      interpreter runs re-verify the heap after each\n"
    "                      collection, and results must not change\n"
    "  --server=SOCKET     client/soak mode: compile and run every grid\n"
    "                      point through a running s1lispd instead of\n"
    "                      in-process. Each request is sent twice, so the\n"
    "                      second answer comes from the daemon's compile\n"
    "                      cache; cached and fresh responses must be\n"
    "                      identical, and both must agree with the local\n"
    "                      interpreter reference by the usual tolerances.\n"
    "                      (--reduce/--fault/--stats don't apply here.)\n"
    "\n"
    "Reduction:\n"
    "  --reduce            shrink each diverging program to a minimal\n"
    "                      failing form and write a runnable repro file\n"
    "  --out=DIR           directory for repro files (default \".\")\n"
    "\n"
    "Self-test:\n"
    "  --fault=fold        deliberately mis-fold constant fixnum additions\n"
    "                      in every optimizing configuration, so the whole\n"
    "                      find-and-reduce path can be demonstrated\n"
    "\n"
    "  --help              this text\n"
    "\n"
    "Exit status: 0 when every program agreed, 1 on any divergence.\n";

struct CliOptions {
  uint32_t Seed = 1;
  unsigned Budget = 100;
  fuzz::GenOptions Gen;
  std::string Config;
  bool ListConfigs = false;
  bool Stats = false;
  unsigned Jobs = 1;
  vm::Engine Engine = vm::Engine::Threaded;
  unsigned GcEvery = 0;
  std::string Server; ///< unix-socket path; empty fuzzes in-process
  bool Reduce = false;
  std::string OutDir = ".";
  bool FaultFold = false;
};

bool startsWith(const char *Arg, const char *Prefix) {
  return std::strncmp(Arg, Prefix, std::strlen(Prefix)) == 0;
}

bool parseUnsigned(const char *S, unsigned &Out) {
  unsigned V = 0;
  if (!*S)
    return false;
  for (; *S; ++S) {
    if (*S < '0' || *S > '9')
      return false;
    V = V * 10 + static_cast<unsigned>(*S - '0');
  }
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    unsigned N = 0;
    if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      fputs(UsageText, stdout);
      std::exit(0);
    } else if (startsWith(A, "--seed=") && parseUnsigned(A + 7, N)) {
      O.Seed = N;
    } else if (startsWith(A, "--budget=") && parseUnsigned(A + 9, N)) {
      O.Budget = N;
    } else if (startsWith(A, "--weights=")) {
      if (!fuzz::applyWeightOverride(O.Gen.W, A + 10)) {
        fprintf(stderr, "s1lisp-fuzz: bad weight spec '%s'\n", A + 10);
        return false;
      }
    } else if (startsWith(A, "--depth=") && parseUnsigned(A + 8, N)) {
      O.Gen.MaxDepth = N;
    } else if (startsWith(A, "--size=") && parseUnsigned(A + 7, N)) {
      O.Gen.SizeBudget = N;
    } else if (startsWith(A, "--helpers=") && parseUnsigned(A + 10, N)) {
      O.Gen.Helpers = N;
    } else if (std::strcmp(A, "--no-floats") == 0) {
      O.Gen.Floats = false;
    } else if (startsWith(A, "--config=")) {
      O.Config = A + 9;
    } else if (std::strcmp(A, "--list-configs") == 0) {
      O.ListConfigs = true;
    } else if (std::strcmp(A, "--stats") == 0) {
      O.Stats = true;
    } else if (startsWith(A, "--jobs=") && parseUnsigned(A + 7, N)) {
      O.Jobs = N;
    } else if (startsWith(A, "--engine=")) {
      auto E = vm::engineByName(A + 9);
      if (!E) {
        fprintf(stderr,
                "s1lisp-fuzz: unknown engine '%s' (expected legacy, threaded, "
                "or native)\n",
                A + 9);
        return false;
      }
      O.Engine = *E;
    } else if (startsWith(A, "--gc-every=") && parseUnsigned(A + 11, N)) {
      O.GcEvery = N;
    } else if (startsWith(A, "--server=")) {
      O.Server = A + 9;
    } else if (std::strcmp(A, "--reduce") == 0) {
      O.Reduce = true;
    } else if (startsWith(A, "--out=")) {
      O.OutDir = A + 6;
    } else if (std::strcmp(A, "--fault=fold") == 0) {
      O.FaultFold = true;
    } else {
      fprintf(stderr, "s1lisp-fuzz: unknown option '%s'\n%s", A, UsageText);
      return false;
    }
  }
  return true;
}

const char *outcomeText(const fuzz::Outcome &Oc) {
  switch (Oc.K) {
  case fuzz::Outcome::Kind::Value:
    return "value";
  case fuzz::Outcome::Kind::Error:
    return "error";
  case fuzz::Outcome::Kind::CompileError:
    return "compile error";
  }
  return "?";
}

void printDivergence(uint32_t Seed, const fuzz::Divergence &D,
                     const fuzz::GeneratedProgram &P) {
  fprintf(stderr, "seed %u: DIVERGENCE against %s on args", Seed,
          D.Config.c_str());
  if (D.ArgIndex < P.ArgGrid.size())
    for (sexpr::Value A : P.ArgGrid[D.ArgIndex])
      fprintf(stderr, " %s", sexpr::toString(A).c_str());
  fprintf(stderr, "\n  reference: %s %s\n  actual:    %s %s\n",
          outcomeText(D.Reference), D.Reference.Text.c_str(),
          outcomeText(D.Actual), D.Actual.Text.c_str());
}

//===--- client/soak mode -------------------------------------------------===//

/// The s1lispc flag string for one ablation-matrix configuration: the
/// matrix names are the flag names with O2 the empty default.
std::string configFlags(const std::string &Name) {
  if (Name == "O2")
    return "";
  if (Name == "O0")
    return "-O0";
  if (Name == "O2+cse")
    return "--cse";
  return "--" + Name;
}

fuzz::Outcome outcomeOf(const service::Message &Resp) {
  if (Resp.getOr("ok") != "1")
    return fuzz::Outcome::compileError(Resp.getOr("error"));
  if (const std::string *E = Resp.get("run-error"))
    return fuzz::Outcome::error(*E);
  return fuzz::Outcome::value(Resp.getOr("value"));
}

/// The fixnum-width / fuel taint, as in the in-process oracle.
bool tainted(const fuzz::Outcome &O) {
  return O.EC == fuzz::ErrorClass::Overflow || O.EC == fuzz::ErrorClass::Fuel;
}

/// The observable surface of a run response; cached and fresh answers
/// must match on it byte for byte.
std::string responseKey(const service::Message &M) {
  std::string K;
  for (const char *F : {"ok", "error", "value", "run-error", "output"}) {
    K += M.getOr(F);
    K += '\x1f';
  }
  return K;
}

/// Fuzzes a running daemon: every grid point becomes a zero-argument
/// wrapper defun (so the argument row travels inside the source), sent
/// twice — the repeat answers from the compile cache — and both answers
/// are checked against the local interpreter reference.
int runServerMode(const CliOptions &Cli,
                  const std::vector<driver::AblationConfig> &Matrix) {
  service::Client C;
  std::string Err;
  if (!C.connectUnix(Cli.Server, &Err)) {
    fprintf(stderr, "s1lisp-fuzz: %s\n", Err.c_str());
    return 2;
  }
  unsigned Diverged = 0, ConvertErrors = 0, Rows = 0, TolOverflow = 0,
           TolElision = 0, CacheMismatch = 0;
  for (unsigned I = 0; I < Cli.Budget; ++I) {
    uint32_t Seed = Cli.Seed + I;
    fuzz::Generator G(Seed, Cli.Gen);
    fuzz::GeneratedProgram P = G.generate();
    for (size_t Row = 0; Row < P.ArgGrid.size(); ++Row) {
      std::string Wrapped = P.Source;
      Wrapped += "\n(defun __client_main () (" + P.Entry;
      for (sexpr::Value A : P.ArgGrid[Row])
        Wrapped += " (quote " + sexpr::toString(A) + ")";
      Wrapped += "))\n";

      // The reference: the unoptimized interpreter over the same wrapped
      // source, locally.
      ir::Module RefM;
      DiagEngine Diags;
      if (!frontend::convertSource(RefM, Wrapped, Diags)) {
        ++ConvertErrors;
        fprintf(stderr, "seed %u: generated program failed to convert:\n%s\n",
                Seed, Diags.str().c_str());
        break;
      }
      interp::Interpreter Interp(RefM);
      Interp.setFuel(2'000'000);
      auto RR = Interp.call("__client_main", {});
      fuzz::Outcome Ref = RR.Ok ? fuzz::Outcome::value(RR.Value.str())
                                : fuzz::Outcome::error(RR.Error);

      for (const driver::AblationConfig &Cfg : Matrix) {
        service::Message Req;
        Req.set("cmd", "compile");
        Req.set("source", Wrapped);
        Req.set("options", configFlags(Cfg.Name));
        Req.set("entry", "__client_main");
        Req.set("run", "vm");
        Req.set("engine", vm::engineName(Cli.Engine));
        Req.set("fuel", "20000000");
        service::Message R1, R2;
        if (!C.roundTrip(Req, R1, &Err) || !C.roundTrip(Req, R2, &Err)) {
          fprintf(stderr, "s1lisp-fuzz: %s\n", Err.c_str());
          return 2;
        }
        if (responseKey(R1) != responseKey(R2)) {
          ++CacheMismatch;
          fprintf(stderr,
                  "seed %u: cached response differs from fresh against %s\n",
                  Seed, Cfg.Name.c_str());
        }
        ++Rows;
        fuzz::Outcome Act = outcomeOf(R1);
        if (tainted(Ref) || tainted(Act)) {
          ++TolOverflow;
          continue;
        }
        if (Ref.K == fuzz::Outcome::Kind::Error &&
            Act.K == fuzz::Outcome::Kind::Value && Cfg.Opts.Optimize) {
          ++TolElision;
          continue;
        }
        bool Agree = false;
        if (Ref.K == fuzz::Outcome::Kind::Value &&
            Act.K == fuzz::Outcome::Kind::Value)
          Agree = Ref.Text == Act.Text;
        else if (Ref.K == fuzz::Outcome::Kind::Error &&
                 Act.K == fuzz::Outcome::Kind::Error)
          Agree = Ref.EC == Act.EC;
        if (!Agree) {
          ++Diverged;
          fuzz::Divergence D{Cfg.Name, Row, Ref, Act, ""};
          printDivergence(Seed, D, P);
        }
      }
    }
  }
  printf("s1lisp-fuzz: %u programs, %u configs, %u rows compared, "
         "%u divergent, %u convert errors, %u tolerated overflows, "
         "%u tolerated elisions, %u cached-vs-fresh mismatches\n",
         Cli.Budget, static_cast<unsigned>(Matrix.size()), Rows, Diverged,
         ConvertErrors, TolOverflow, TolElision, CacheMismatch);
  return (Diverged || ConvertErrors || CacheMismatch) ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli))
    return 2;

  std::vector<driver::AblationConfig> Matrix = driver::ablationMatrix();
  if (Cli.ListConfigs) {
    for (const driver::AblationConfig &C : Matrix)
      printf("%s\n", C.Name.c_str());
    return 0;
  }
  if (!Cli.Config.empty()) {
    auto C = driver::ablationByName(Cli.Config);
    if (!C) {
      fprintf(stderr, "s1lisp-fuzz: unknown config '%s' (--list-configs)\n",
              Cli.Config.c_str());
      return 2;
    }
    Matrix = {*C};
  }
  if (Cli.FaultFold)
    for (driver::AblationConfig &C : Matrix)
      if (C.Opts.Optimize)
        C.Opts.Opt.FaultConstantFold = true;

  if (!Cli.Server.empty())
    return runServerMode(Cli, Matrix);

  fuzz::OracleOptions Oracle;
  Oracle.Configs = Matrix;
  Oracle.CaptureStats = Cli.Stats;
  Oracle.Jobs = Cli.Jobs;
  Oracle.Engine = Cli.Engine;
  Oracle.GcEvery = Cli.GcEvery;

  unsigned Diverged = 0, ConvertErrors = 0, Rows = 0, TolOverflow = 0,
           TolElision = 0, Reduced = 0;
  for (unsigned I = 0; I < Cli.Budget; ++I) {
    uint32_t Seed = Cli.Seed + I;
    fuzz::Generator G(Seed, Cli.Gen);
    fuzz::GeneratedProgram P = G.generate();
    fuzz::CheckResult R = fuzz::checkProgram(P, Oracle);
    Rows += R.RowsCompared;
    TolOverflow += R.ToleratedOverflows;
    TolElision += R.ToleratedElisions;
    if (R.St == fuzz::CheckResult::Status::ConvertError) {
      ++ConvertErrors;
      fprintf(stderr, "seed %u: generated program failed to convert:\n%s\n",
              Seed, R.ConvertMessage.c_str());
      continue;
    }
    if (R.St != fuzz::CheckResult::Status::Diverged)
      continue;
    ++Diverged;
    const fuzz::Divergence &D = R.Divergences.front();
    printDivergence(Seed, D, P);
    if (!Cli.Reduce)
      continue;
    const driver::AblationConfig *Offender = nullptr;
    for (const driver::AblationConfig &C : Matrix)
      if (C.Name == D.Config)
        Offender = &C;
    if (!Offender)
      continue;
    fuzz::ReduceOptions RO;
    RO.Oracle = Oracle;
    auto Min = fuzz::reduceDivergence(P, D, *Offender, RO);
    if (!Min) {
      fprintf(stderr, "seed %u: divergence did not reproduce for reduction\n",
              Seed);
      continue;
    }
    std::error_code Ec;
    std::filesystem::create_directories(Cli.OutDir, Ec);
    std::string Path =
        Cli.OutDir + "/repro-seed" + std::to_string(Seed) + "-" + D.Config +
        ".lisp";
    if (fuzz::writeRepro(Path, *Min, Seed)) {
      ++Reduced;
      fprintf(stderr,
              "seed %u: reduced to %u forms in %u checks -> %s\n", Seed,
              Min->Forms, Min->Checks, Path.c_str());
    } else {
      fprintf(stderr, "seed %u: could not write repro to %s\n", Seed,
              Path.c_str());
    }
  }

  printf("s1lisp-fuzz: %u programs, %u configs, %u rows compared, "
         "%u divergent, %u convert errors, %u tolerated overflows, "
         "%u tolerated elisions, %u repros written\n",
         Cli.Budget, static_cast<unsigned>(Matrix.size()), Rows, Diverged,
         ConvertErrors, TolOverflow, TolElision, Reduced);
  return (Diverged || ConvertErrors) ? 1 : 0;
}
