//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench {

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
}

double selfCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

namespace {

/// The "VmHWM:" line of /proc/<who>/status, in MiB.
bool readHwm(const std::string &Who, double &Mb) {
  std::ifstream In("/proc/" + Who + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      Mb = std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
      return true;
    }
  return false;
}

} // namespace

double selfPeakRssMb() {
  double Mb = 0;
  if (!readHwm("self", Mb))
    fatal("cannot read VmHWM of the benchmark process");
  return Mb;
}

bool processPeakRssMb(pid_t Pid, double &Mb) {
  return readHwm(std::to_string(Pid), Mb);
}

bool processCpuSeconds(pid_t Pid, double &Seconds) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat;
  if (!std::getline(In, Stat))
    return false;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    return false;
  std::istringstream Rest(Stat.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && Rest >> Field; ++I) {
    if (I == 14)
      UTime = std::stoull(Field);
    if (I == 15)
      STime = std::stoull(Field);
  }
  Seconds = static_cast<double>(UTime + STime) /
            static_cast<double>(sysconf(_SC_CLK_TCK));
  return true;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

namespace {
std::mutex ChildrenMu;
std::vector<pid_t> LiveChildren;

void forgetChild(pid_t Pid) {
  std::lock_guard<std::mutex> L(ChildrenMu);
  LiveChildren.erase(std::remove(LiveChildren.begin(), LiveChildren.end(), Pid),
                     LiveChildren.end());
}

void reapAllChildren() {
  std::vector<pid_t> Pids;
  {
    std::lock_guard<std::mutex> L(ChildrenMu);
    Pids.swap(LiveChildren);
  }
  for (pid_t P : Pids) {
    ::kill(P, SIGTERM);
    int St = 0;
    while (::waitpid(P, &St, 0) < 0 && errno == EINTR) {
    }
  }
}
} // namespace

void fatal(const std::string &Msg) {
  fprintf(stderr, "s1bench: FATAL: %s\n", Msg.c_str());
  fflush(stderr);
  // _Exit skips destructors, so stop and reap every child here.
  reapAllChildren();
  std::_Exit(1);
}

void ChildProcess::start(const std::vector<std::string> &Argv) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  pid_t P = -1;
  int Err = posix_spawn(&P, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Err != 0)
    fatal("cannot start " + Argv[0] + ": " + std::strerror(Err));
  Pid = P;
  std::lock_guard<std::mutex> L(ChildrenMu);
  LiveChildren.push_back(Pid);
}

int ChildProcess::wait() {
  if (Pid <= 0)
    return -1;
  int St = 0;
  while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
  }
  forgetChild(Pid);
  Pid = -1;
  return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
}

ChildProcess::~ChildProcess() {
  if (Pid > 0) {
    ::kill(Pid, SIGTERM);
    wait();
  }
}

double timeProcess(const std::vector<std::string> &Argv) {
  ChildProcess C;
  auto T0 = Clock::now();
  C.start(Argv);
  int St = C.wait();
  double S = msSince(T0) / 1000.0;
  if (St != 0)
    fatal(Argv[0] + " exited with status " + std::to_string(St));
  return S;
}

std::vector<int> allowedCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    fatal("sched_getaffinity failed");
  std::vector<int> Cpus;
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &Set))
      Cpus.push_back(Cpu);
  return Cpus;
}

void pinProcess(pid_t Pid, int Cpu) {
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  if (sched_setaffinity(Pid, sizeof(One), &One) != 0)
    fatal("sched_setaffinity failed");
}

PinnedToOneCpu::PinnedToOneCpu() : Saved(sizeof(cpu_set_t)) {
  cpu_set_t Old;
  if (sched_getaffinity(0, sizeof(Old), &Old) != 0)
    fatal("sched_getaffinity failed");
  std::memcpy(Saved.data(), &Old, sizeof(Old));
  pinProcess(0, allowedCpus().back());
}

PinnedToOneCpu::~PinnedToOneCpu() {
  cpu_set_t Old;
  std::memcpy(&Old, Saved.data(), sizeof(Old));
  sched_setaffinity(0, sizeof(Old), &Old);
}

std::vector<double> setupTimes(const std::function<double()> &Once) {
  PinnedToOneCpu Pin;
  Once();
  std::vector<double> Times;
  const auto Start = Clock::now();
  while (Times.size() < SetupMinReps || msSince(Start) < SetupSeconds * 1000)
    Times.push_back(Once());
  return Times;
}

std::vector<double> processSetupTimes(const std::vector<std::string> &Argv) {
  return setupTimes([&Argv] { return timeProcess(Argv); });
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

namespace {
std::string number(double V) {
  if (!std::isfinite(V))
    fatal("non-finite metric value");
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
} // namespace

std::string RunResult::json() const {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      S += ", ";
    S += "\"" + Metrics[I].first + "\": {\"value\": " +
         number(Metrics[I].second.Value) + ", \"unit\": \"" +
         Metrics[I].second.Unit + "\"}";
  }
  S += "}}";
  return S;
}

unsigned workers() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

bool keepGoing(Clock::time_point Start, double Seconds, size_t OpsDone) {
  return OpsDone < 100 || msSince(Start) < Seconds * 1000.0;
}

void addTimingMetrics(RunResult &R, const OpLog &L) {
  const double Ops = static_cast<double>(L.LatencyMs.size());
  R.add("ops_per_s", Ops / L.WallSeconds, "1/s");
  R.add("latency_p50_ms", quantile(L.LatencyMs, 0.5), "ms");
  R.add("latency_p90_ms", quantile(L.LatencyMs, 0.9), "ms");
  R.add("cpu_ms_per_op", L.CpuSeconds * 1000.0 / Ops, "ms");
}

void addSetupMetric(RunResult &R, const std::vector<double> &Seconds) {
  fprintf(stderr, "s1bench: %zu set-ups: q1 %.3f ms  median %.3f ms  q3 %.3f ms\n",
          Seconds.size(), quantile(Seconds, 0.25) * 1000,
          quantile(Seconds, 0.5) * 1000, quantile(Seconds, 0.75) * 1000);
  R.add("setup_s", quantile(Seconds, 0.5), "s");
}

void requireRepeat(const std::string &Count, uint64_t Expected, uint64_t Got,
                   uint64_t Round) {
  if (Expected != Got)
    fatal("exact count '" + Count + "' did not repeat: round " +
          std::to_string(Round) + " gave " + std::to_string(Got) +
          ", round 0 gave " + std::to_string(Expected));
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace trace {
namespace {

struct Record {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int Parent;
  uint64_t Request;
};

struct ThreadLog {
  uint64_t Tid = 0;
  std::vector<Record> Spans;
  std::vector<int> Open;
  uint64_t Request = 0;
};

std::atomic<bool> On{false};
std::mutex LogsMu;
std::vector<std::shared_ptr<ThreadLog>> Logs;
std::atomic<uint64_t> NextTid{1};
const Clock::time_point Epoch = Clock::now();

ThreadLog &threadLog() {
  thread_local std::shared_ptr<ThreadLog> Mine;
  if (!Mine) {
    Mine = std::make_shared<ThreadLog>();
    Mine->Tid = NextTid.fetch_add(1);
    std::lock_guard<std::mutex> L(LogsMu);
    Logs.push_back(Mine);
  }
  return *Mine;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

} // namespace

void setEnabled(bool V) { On.store(V); }
bool enabled() { return On.load(std::memory_order_relaxed); }

void setRequest(uint64_t Id) { threadLog().Request = Id; }

Span::Span(const char *Name) {
  if (!enabled())
    return;
  ThreadLog &T = threadLog();
  Index = static_cast<int>(T.Spans.size());
  T.Spans.push_back({Name, nowNs(), 0, T.Open.empty() ? -1 : T.Open.back(),
                     T.Request});
  T.Open.push_back(Index);
}

Span::~Span() {
  if (Index < 0)
    return;
  ThreadLog &T = threadLog();
  T.Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  T.Open.pop_back();
}

std::map<std::string, Summary> summarize() {
  std::map<std::string, Summary> Out;
  std::lock_guard<std::mutex> L(LogsMu);
  for (auto &Log : Logs) {
    std::vector<int64_t> ChildNs(Log->Spans.size(), 0);
    for (const Record &R : Log->Spans)
      if (R.Parent >= 0)
        ChildNs[static_cast<size_t>(R.Parent)] += R.EndNs - R.StartNs;
    for (size_t I = 0; I < Log->Spans.size(); ++I) {
      const Record &R = Log->Spans[I];
      Summary &S = Out[R.Name];
      ++S.Count;
      S.TotalMs += (R.EndNs - R.StartNs) / 1e6;
      S.SelfMs += (R.EndNs - R.StartNs - ChildNs[I]) / 1e6;
    }
  }
  return Out;
}

size_t spanCount() {
  size_t N = 0;
  std::lock_guard<std::mutex> L(LogsMu);
  for (auto &Log : Logs)
    N += Log->Spans.size();
  return N;
}

bool write(const std::string &TracePath, const std::string &SummaryPath) {
  {
    FILE *F = fopen(TracePath.c_str(), "w");
    if (!F)
      return false;
    fputs("{\"traceEvents\": [\n", F);
    bool First = true;
    std::lock_guard<std::mutex> L(LogsMu);
    for (auto &Log : Logs)
      for (size_t I = 0; I < Log->Spans.size(); ++I) {
        const Record &R = Log->Spans[I];
        fprintf(F,
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                "\"parent\": %d, \"request\": %llu}}",
                First ? "" : ",\n", R.Name,
                static_cast<unsigned long long>(Log->Tid), R.StartNs / 1e3,
                (R.EndNs - R.StartNs) / 1e3, I, R.Parent,
                static_cast<unsigned long long>(R.Request));
        First = false;
      }
    fputs("\n], \"displayTimeUnit\": \"ms\"}\n", F);
    if (fclose(F) != 0)
      return false;
  }
  FILE *F = fopen(SummaryPath.c_str(), "w");
  if (!F)
    return false;
  fputs("{\n", F);
  auto Sums = summarize();
  size_t I = 0;
  for (const auto &[Name, S] : Sums)
    fprintf(F,
            "  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, \"self_ms\": "
            "%.6f}%s\n",
            Name.c_str(), static_cast<unsigned long long>(S.Count), S.TotalMs,
            S.SelfMs, ++I < Sums.size() ? "," : "");
  fputs("}\n", F);
  return fclose(F) == 0;
}

} // namespace trace

} // namespace perfbench
