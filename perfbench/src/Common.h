//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// What every workload of the S1LISP benchmark shares: the seeded random
/// source, wall/CPU/RSS probes, latency percentiles, child processes (the
/// s1lispd daemon, s1lispc and s1lisp-fuzz), the span tracer behind
/// `--trace 1`, and the result record printed as the run's last line.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_PERFBENCH_COMMON_H
#define S1LISP_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// splitmix64: the one random source every generated input is drawn from.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next();
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);
  uint32_t seed32() { return static_cast<uint32_t>(next() >> 33) + 1; }

private:
  uint64_t S;
};

using Clock = std::chrono::steady_clock;
inline double msSince(Clock::time_point T) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T).count();
}

/// User+system CPU seconds of this process (all threads).
double selfCpuSeconds();
/// Peak resident set of this process in MiB (VmHWM).
double selfPeakRssMb();
/// User+system CPU seconds and peak RSS (MiB) of another live process,
/// read from /proc; false when the process is gone.
bool processCpuSeconds(pid_t Pid, double &Seconds);
bool processPeakRssMb(pid_t Pid, double &Mb);

/// Value at quantile \p Q (0..1) by linear interpolation, as Python's
/// statistics.quantiles(method="inclusive") computes it.
double quantile(std::vector<double> V, double Q);

/// A failure of the benchmark itself or of the program's outputs: the run
/// prints the message to stderr and exits non-zero without a result.
[[noreturn]] void fatal(const std::string &Msg);

/// A child process that is always waited for: the destructor sends
/// SIGTERM to a still-running child and reaps it.
class ChildProcess {
public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  /// Starts \p Argv[0] with stdout/stderr sent to /dev/null.
  void start(const std::vector<std::string> &Argv);
  /// Waits for exit; returns the exit status (-1 when killed by a signal).
  int wait();
  pid_t pid() const { return Pid; }

private:
  pid_t Pid = -1;
};

/// Runs \p Argv to completion; returns its wall time in seconds and fails
/// the run when it exits non-zero.
double timeProcess(const std::vector<std::string> &Argv);

/// The CPUs this process may run on, in increasing order.
std::vector<int> allowedCpus();

/// Restricts process \p Pid (all its threads) to CPU \p Cpu.
void pinProcess(pid_t Pid, int Cpu);

/// While alive, keeps this process (and the children it starts) on one
/// CPU, the highest-numbered one it may use, so every run uses the same
/// one. Single-threaded workloads run pinned: migrating between CPUs made
/// their run-to-run spread 17% against 6% pinned. Timing a start-up of a
/// few milliseconds is otherwise set by whether the child lands on an idle
/// CPU that must wake up first, a bimodal ~0.5 ms.
class PinnedToOneCpu {
public:
  PinnedToOneCpu();
  ~PinnedToOneCpu();
  PinnedToOneCpu(const PinnedToOneCpu &) = delete;
  PinnedToOneCpu &operator=(const PinnedToOneCpu &) = delete;

private:
  std::vector<unsigned char> Saved; ///< the previous cpu_set_t, as bytes
};

/// Set-up times in seconds from \p Once, which performs one set-up and
/// returns how long it took: back to back for SetupSeconds and at least
/// SetupMinReps times, pinned to one CPU, after one untimed set-up (which
/// pages the binaries in). A single set-up of a few milliseconds is noise;
/// the median of hundreds taken over a second is not.
constexpr double SetupSeconds = 1.0;
constexpr size_t SetupMinReps = 21;
std::vector<double> setupTimes(const std::function<double()> &Once);

/// setupTimes of running \p Argv to its end: process start through exit.
std::vector<double> processSetupTimes(const std::vector<std::string> &Argv);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// The JSON object printed as the run's last line.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, Metric>> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  std::string json() const;
};

/// Per-operation bookkeeping of a timed window: latencies plus the CPU
/// clock at its start.
struct OpLog {
  std::vector<double> LatencyMs;
  double WallSeconds = 0;
  double CpuSeconds = 0;
};

/// Threads, client connections and oracle jobs of any workload: nproc,
/// at most 4.
unsigned workers();

/// Whether another whole round starts: until \p Seconds have passed and
/// at least 100 operations completed.
bool keepGoing(Clock::time_point Start, double Seconds, size_t OpsDone);

/// Fills the latency/throughput/CPU metrics every workload reports (the
/// memory, simulated-count, code-size and set-up metrics are per workload).
void addTimingMetrics(RunResult &R, const OpLog &L);

/// Adds `setup_s`, the median of the run's set-ups \p Seconds, and prints
/// their quartiles to stderr.
void addSetupMetric(RunResult &R, const std::vector<double> &Seconds);

/// The exact counts a workload must reproduce: every round of a run yields
/// the same value, or the run fails naming the count.
void requireRepeat(const std::string &Count, uint64_t Expected, uint64_t Got,
                   uint64_t Round);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Spans recorded around calls into the program's public functions. Off
/// (a span costs one branch) unless enabled; spans stay in memory and are
/// written once, as Chrome trace-event JSON plus a per-name summary.
namespace trace {

void setEnabled(bool On);
bool enabled();
/// The request id new spans on this thread are tagged with.
void setRequest(uint64_t Id);

class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Index = -1;
};

struct Summary {
  uint64_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0;
};
/// Per span name: count, inclusive and self time (inclusive minus the
/// time covered by child spans).
std::map<std::string, Summary> summarize();
size_t spanCount();
/// Writes the Chrome trace and the summary; returns false on I/O errors.
bool write(const std::string &TracePath, const std::string &SummaryPath);

} // namespace trace

} // namespace perfbench

#endif // S1LISP_PERFBENCH_COMMON_H
