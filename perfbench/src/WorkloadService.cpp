//===- perfbench/src/WorkloadService.cpp - The service workload -----------===//
//
// The real s1lispd binary under a closed loop of clients on its unix
// socket: each client sends its next request when the previous answer has
// arrived, as `s1lispc --server` does. One operation is one round trip.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "Workloads.h"

#include <atomic>
#include <map>
#include <cstdio>
#include <thread>

using namespace s1lisp;

namespace perfbench {

namespace {

constexpr unsigned Clients = 3;

/// What the timed window leaves for the checks after it.
struct ClientRun {
  std::vector<double> LatencyMs;
  uint64_t Ops = 0, Failed = 0, Hits = 0, Misses = 0, Rounds = 0;
  uint64_t RoundInsns = 0; ///< simulated instructions of round 0
  /// The last round's requests and answers, for the cache-identity check.
  std::vector<Request> LastRequests;
  std::vector<service::Message> LastAnswers;
  std::string Error; ///< first wrong output, empty when all were right
};

/// Sends \p Q and checks the answer against its expectations: exact memo
/// counts (a mismatch stops the run), the interpreter's value for entry
/// requests. Returns false when the request failed.
bool send(service::Client &C, const Request &Q, service::Message &A,
          ClientRun &Run, uint64_t &Insns) {
  if (!C.roundTrip(Q.Msg, A))
    fatal("lost the connection to s1lispd");
  if (A.getOr("ok") != "1") {
    if (Run.Error.empty())
      Run.Error = Q.Kind + " request failed: " + A.getOr("error");
    return false;
  }
  const uint64_t H = std::stoull(A.getOr("memo-hits", "0"));
  const uint64_t M = std::stoull(A.getOr("memo-misses", "0"));
  requireRepeat("memo hits of a " + Q.Kind + " request", Q.ExpectHits, H, Run.Rounds);
  requireRepeat("memo misses of a " + Q.Kind + " request", Q.ExpectMisses, M,
                Run.Rounds);
  Run.Hits += H;
  Run.Misses += M;
  if (!Q.ExpectValue.empty()) {
    if (A.has("run-error")) {
      if (Run.Error.empty())
        Run.Error = "entry run failed: " + A.getOr("run-error");
      return false;
    }
    if (A.getOr("value") != Q.ExpectValue && Run.Error.empty())
      Run.Error = "entry returned " + A.getOr("value") + ", interpreter " +
                  Q.ExpectValue;
    Insns += jsonCounter(A.getOr("stats"), "vm.instructions");
  }
  return true;
}

/// A response with the memo traffic fields dropped: what must be
/// byte-identical between a cached and an uncached compile.
std::vector<std::pair<std::string, std::string>>
withoutMemoFields(const service::Message &M) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const auto &F : M.Fields)
    if (F.first != "memo-hits" && F.first != "memo-misses")
      Out.push_back(F);
  return Out;
}

} // namespace

RunResult runService(const Options &O) {
  RunResult Res;
  std::vector<ClientLibrary> Libraries;
  for (unsigned C = 0; C < Clients; ++C)
    Libraries.emplace_back(O.Seed, C);

  // Set-up users pay: daemon start until its first ping is answered. The
  // daemon starts on a CPU of its own, next to the one the benchmark is
  // pinned to: on one CPU the benchmark's pings would take turns with the
  // starting daemon and slow it by a varying amount.
  const std::vector<int> Cpus = allowedCpus();
  const int DaemonCpu = Cpus.size() > 1 ? Cpus[Cpus.size() - 2] : -1;
  const std::vector<double> Setups = setupTimes([&O, DaemonCpu] {
    Daemon D(O.BinDir, "setup", DaemonCpu);
    D.shutdown();
    return D.startSeconds();
  });

  Daemon D(O.BinDir, "service");
  std::vector<ClientRun> Runs(Clients);
  std::vector<std::unique_ptr<service::Client>> Conns;
  for (unsigned C = 0; C < Clients; ++C) {
    Conns.push_back(std::make_unique<service::Client>());
    D.connect(*Conns.back());
    uint64_t Unused = 0;
    service::Message A;
    for (const Request &Q : Libraries[C].priming())
      if (!send(*Conns[C], Q, A, Runs[C], Unused))
        fatal("priming failed: " + Runs[C].Error);
  }
  uint64_t PrimeHits = 0, PrimeMisses = 0;
  for (ClientRun &R : Runs) {
    PrimeHits += R.Hits;
    PrimeMisses += R.Misses;
    R.Hits = R.Misses = 0;
  }

  double DaemonCpu0 = 0, DaemonCpu1 = 0;
  if (!processCpuSeconds(D.pid(), DaemonCpu0))
    fatal("cannot read the daemon's CPU time");
  const double Cpu0 = selfCpuSeconds();
  std::atomic<uint64_t> OpsDone{0};
  const auto Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientRun &Run = Runs[C];
      for (; keepGoing(Start, O.Seconds, OpsDone.load()); ++Run.Rounds) {
        std::vector<Request> Round = Libraries[C].round(Run.Rounds);
        std::vector<service::Message> Answers(Round.size());
        uint64_t Insns = 0;
        for (size_t I = 0; I < Round.size(); ++I) {
          auto T0 = Clock::now();
          bool Ok = send(*Conns[C], Round[I], Answers[I], Run, Insns);
          Run.LatencyMs.push_back(msSince(T0));
          ++Run.Ops;
          Run.Failed += !Ok;
          OpsDone.fetch_add(1);
        }
        if (Run.Rounds == 0)
          Run.RoundInsns = Insns;
        requireRepeat("simulated instructions of a service round",
                      Run.RoundInsns, Insns, Run.Rounds);
        Run.LastRequests = std::move(Round);
        Run.LastAnswers = std::move(Answers);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  OpLog Log;
  Log.WallSeconds = msSince(Start) / 1000.0;
  if (!processCpuSeconds(D.pid(), DaemonCpu1))
    fatal("cannot read the daemon's CPU time");
  Log.CpuSeconds = selfCpuSeconds() - Cpu0 + (DaemonCpu1 - DaemonCpu0);
  double DaemonPeak = 0;
  if (!processPeakRssMb(D.pid(), DaemonPeak))
    fatal("cannot read the daemon's peak RSS");
  const double PeakMb = DaemonPeak + selfPeakRssMb();
  fprintf(stderr, "s1bench: service peak RSS: s1lispd %.1f MiB, clients %.1f MiB\n",
          DaemonPeak, PeakMb - DaemonPeak);

  {
    // Per request kind, for the README's breakdown of the mix.
    std::map<std::string, std::vector<double>> ByKind;
    for (unsigned C = 0; C < Clients; ++C) {
      const size_t PerRound = Libraries[C].round(0).size();
      for (size_t I = 0; I < Runs[C].LatencyMs.size(); ++I)
        ByKind[Libraries[C].round(0)[I % PerRound].Kind].push_back(
            Runs[C].LatencyMs[I]);
    }
    for (const auto &[Kind, Ms] : ByKind)
      fprintf(stderr, "s1bench: service %-13s median %.3f ms  p90 %.3f ms\n",
              Kind.c_str(), quantile(Ms, 0.5), quantile(Ms, 0.9));
  }

  uint64_t Hits = PrimeHits, Misses = PrimeMisses, RoundInsns = 0;
  uint64_t RoundOps = 0;
  for (unsigned C = 0; C < Clients; ++C) {
    ClientRun &Run = Runs[C];
    Log.LatencyMs.insert(Log.LatencyMs.end(), Run.LatencyMs.begin(),
                         Run.LatencyMs.end());
    Res.Attempted += Run.Ops;
    Res.Failed += Run.Failed;
    Hits += Run.Hits;
    Misses += Run.Misses;
    RoundInsns += Run.RoundInsns;
    RoundOps += Libraries[C].round(0).size();
    if (!Run.Error.empty()) {
      fprintf(stderr, "s1bench: client %u: %s\n", C, Run.Error.c_str());
      Res.Correct = false;
    }
  }

  // A cached answer must be byte-identical to the same request compiled
  // without the memo (listing included, so the linked programs are
  // compared too). The last round's answers are checked the same way.
  for (unsigned C = 0; C < Clients; ++C) {
    ClientRun &Run = Runs[C];
    for (size_t I = 0; I < Run.LastRequests.size(); ++I) {
      service::Message Cached = Run.LastRequests[I].Msg, Fresh, A, B, P;
      Cached.set("listing", "1");
      Fresh = Cached;
      Fresh.set("cache", "0");
      service::Message Plain = Run.LastRequests[I].Msg;
      Plain.set("cache", "0");
      if (!Conns[C]->roundTrip(Cached, A) || !Conns[C]->roundTrip(Fresh, B) ||
          !Conns[C]->roundTrip(Plain, P))
        fatal("lost the connection to s1lispd");
      Hits += std::stoull(A.getOr("memo-hits", "0"));
      Misses += std::stoull(A.getOr("memo-misses", "0"));
      if (withoutMemoFields(A) != withoutMemoFields(B) ||
          withoutMemoFields(Run.LastAnswers[I]) != withoutMemoFields(P)) {
        fprintf(stderr,
                "s1bench: client %u: cached and uncached answers to a %s "
                "request differ\n",
                C, Run.LastRequests[I].Kind.c_str());
        Res.Correct = false;
      }
    }
  }

  // The daemon's own traffic counters must equal the answers' sum.
  service::Message StatsReq, Stats;
  StatsReq.set("cmd", "stats");
  if (!Conns[0]->roundTrip(StatsReq, Stats))
    fatal("lost the connection to s1lispd");
  requireRepeat("daemon cache hits", Hits, std::stoull(Stats.getOr("cache-hits", "0")), 0);
  requireRepeat("daemon cache misses", Misses,
                std::stoull(Stats.getOr("cache-misses", "0")), 0);
  fprintf(stderr,
          "s1bench: service cache: %s entries, %s bytes, %s evictions\n",
          Stats.getOr("cache-entries").c_str(), Stats.getOr("cache-bytes").c_str(),
          Stats.getOr("cache-evictions").c_str());
  for (auto &Conn : Conns)
    Conn->close();
  D.shutdown();

  uint64_t Words = 0;
  for (const ClientLibrary &L : Libraries)
    for (const std::string &Src : L.roundSources()) {
      ir::Module M;
      auto Out = driver::compileSource(M, Src, o2Cse());
      if (!Out.Ok)
        fatal("service module does not compile: " + Out.Error);
      Words += codeWords(Out.Program);
    }

  addTimingMetrics(Res, Log);
  Res.add("peak_rss_mb", PeakMb, "MiB");
  Res.add("sim_insns_per_op",
          static_cast<double>(RoundInsns) / static_cast<double>(RoundOps), "count");
  Res.add("code_words", static_cast<double>(Words), "count");
  addSetupMetric(Res, Setups);
  return Res;
}

} // namespace perfbench
