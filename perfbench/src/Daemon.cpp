//===- perfbench/src/Daemon.cpp -------------------------------------------===//

#include "Daemon.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <thread>

#include <unistd.h>

using namespace s1lisp;

namespace perfbench {

Daemon::Daemon(const std::string &BinDir, const std::string &Tag, int Cpu)
    : Socket(BinDir + "/s1bench-" + Tag + "-" + std::to_string(getpid()) +
             ".sock") {
  ::unlink(Socket.c_str());
  auto T0 = Clock::now();
  Proc.start({BinDir + "/s1lispd", "--socket=" + Socket,
              "--workers=" + std::to_string(workers()),
              "--cache-max-mb=" + std::to_string(CacheMb)});
  if (Cpu >= 0)
    pinProcess(Proc.pid(), Cpu);
  service::Message Ping, Pong;
  Ping.set("cmd", "ping");
  while (true) {
    service::Client C;
    if (C.connectUnix(Socket) && C.roundTrip(Ping, Pong) &&
        Pong.getOr("ok") == "1")
      break;
    if (msSince(T0) > 10000)
      fatal("s1lispd did not answer ping within 10 s");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  StartSeconds = msSince(T0) / 1000.0;
}

Daemon::~Daemon() { ::unlink(Socket.c_str()); }

void Daemon::connect(service::Client &C) const {
  std::string Err;
  if (!C.connectUnix(Socket, &Err))
    fatal("cannot connect to s1lispd: " + Err);
}

void Daemon::shutdown() {
  service::Client C;
  connect(C);
  service::Message Req, Resp;
  Req.set("cmd", "shutdown");
  if (!C.roundTrip(Req, Resp))
    fatal("s1lispd did not answer shutdown");
  C.close();
  if (Proc.wait() != 0)
    fatal("s1lispd exited with an error");
}

namespace {

std::string suffixOf(unsigned Client) { return "-c" + std::to_string(Client); }

/// The entry the service runs: fib over a fixed argument, so the
/// simulated instructions per round do not depend on the seed.
constexpr const char *EntryKernel =
    "\n(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))\n"
    "(defun bench-main () (fib 15))\n";
constexpr const char *EntryValue = "610"; // fib(15)

/// Generated helpers of every module the service is sent; with the entry
/// `fut`, fib and bench-main a module has 15 functions.
constexpr unsigned ModuleHelpers = 12;

/// A module of the service's one size from generator seed \p GenSeed,
/// every function name given \p Suffix.
std::string serviceModule(uint32_t GenSeed, const std::string &Suffix) {
  return renameFunctions(
      generateModule(GenSeed, ModuleHelpers, false).Source + EntryKernel,
      Suffix);
}

unsigned functionCount(const std::string &Source) {
  return static_cast<unsigned>(definedFunctions(Source).size());
}

} // namespace

ClientLibrary::ClientLibrary(uint64_t Seed, unsigned C)
    : Seed(Seed), Client(C) {
  Rng R(Seed * 2654435761ull + 97 * C + 5);
  for (size_t I = 0; I < Variants.size(); ++I) {
    Variant &V = Variants[I];
    V.Suffix = suffixOf(C) + "v" + std::to_string(I);
    V.Source = serviceModule(R.seed32(), V.Suffix);
  }
}

Request ClientLibrary::compile(const std::string &Kind,
                               const std::string &Source, unsigned Hits,
                               unsigned Misses) const {
  Request Q;
  Q.Kind = Kind;
  Q.Msg.set("cmd", "compile");
  Q.Msg.set("source", Source);
  Q.Msg.set("options", "-O2 --cse");
  Q.ExpectHits = Hits;
  Q.ExpectMisses = Misses;
  return Q;
}

std::vector<Request> ClientLibrary::priming() const {
  std::vector<Request> Out;
  for (const Variant &V : Variants)
    Out.push_back(compile("prime", V.Source, 0, functionCount(V.Source)));
  return Out;
}

// Nothing records real s1lispd traffic, so the mix is assumed: one request
// of each kind per round, on modules of one size, so that each kind
// differs from `warm` in one respect and the per-kind latencies printed
// after a run can be reweighted for another mix.
std::vector<Request> ClientLibrary::round(uint64_t Round) const {
  const Variant &V = Variants[Round % Variants.size()];
  const unsigned N = functionCount(V.Source);
  std::vector<Request> Out;
  Out.push_back(compile("warm", V.Source, N, 0));
  Request Entry = compile("entry", V.Source, N, 0);
  Entry.Msg.set("entry", "bench-main" + V.Suffix);
  Entry.Msg.set("engine", "threaded");
  Entry.Msg.set("stats", "json");
  Entry.ExpectValue = EntryValue;
  Out.push_back(Entry);
  // Successive cycles through the variants edit successive functions, so
  // the edits spread over every function of the modules.
  const std::vector<std::string> Fns = definedFunctions(V.Source);
  const std::string &Edited = Fns[(Round / Variants.size()) % Fns.size()];
  Out.push_back(compile("edited", editFunction(V.Source, Edited, Round + 1),
                        N - 1, 1));
  Request Remarks = compile("remarks", V.Source, N, 0);
  Remarks.Msg.set("remarks", "1");
  Out.push_back(Remarks);
  // New modules are drawn afresh every round: a miss costs a heavy-tailed
  // amount (remark capture grows with function size), so a run averages
  // over hundreds of them rather than over a few fixed draws. Each has its
  // own suffix: two draws can share a function (a small helper), which
  // under one name would be a memo hit.
  Rng Fresh(Seed * 11400714819323198485ull + Client * 1000003 + Round);
  std::string New = serviceModule(
      Fresh.seed32(), suffixOf(Client) + "r" + std::to_string(Round) + "n");
  Out.push_back(compile("new", New, 0, functionCount(New)));
  return Out;
}

std::vector<std::string> ClientLibrary::roundSources() const {
  // 64 rounds: each warm variant, and enough new modules that the seed
  // moves the total by about a percent (8 rounds moved it by 4%). An
  // edited module is its warm module's program plus a dead binding, so
  // it is not counted again.
  constexpr uint64_t Rounds = 64;
  std::set<std::string> Distinct;
  for (uint64_t R = 0; R < Rounds; ++R)
    for (const Request &Q : round(R))
      if (Q.Kind != "edited")
        Distinct.insert(*Q.Msg.get("source"));
  return {Distinct.begin(), Distinct.end()};
}

uint64_t jsonCounter(const std::string &Json, const std::string &Key) {
  size_t At = Json.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + Key.size() + 3, nullptr, 10);
}

} // namespace perfbench
