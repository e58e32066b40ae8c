//===- stats/Stats.cpp ----------------------------------------------------===//

#include "stats/Stats.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <mutex>

using namespace s1lisp;
using namespace s1lisp::stats;

//===----------------------------------------------------------------------===//
// Counter registry
//===----------------------------------------------------------------------===//

namespace {

// Thread-local so that fuzzing worker threads (which leave collection at
// its default: off) never race the owning thread's counters. A worker that
// does want to count installs a TallyScope, which routes its updates into
// a private LocalTally instead of the shared values.
thread_local bool StatsEnabled = false;
thread_local LocalTally *ActiveTally = nullptr;

// Guards registry membership: function-local static Statistics can be
// first-constructed on a worker thread while another thread reports.
std::mutex RegistryMu;

std::vector<Statistic *> &registry() {
  static std::vector<Statistic *> R;
  return R;
}

// Dense-slot allocator for Statistic::Idx (under RegistryMu). Slots are
// recycled when a counter dies (tests create short-lived ones), keeping
// tally cell vectors as small as the live counter population.
std::vector<unsigned> &freeSlots() {
  static std::vector<unsigned> F;
  return F;
}
unsigned NextSlot = 0;

std::string formatUnsigned(uint64_t V) { return std::to_string(V); }

void appendJsonNumber(std::string &Out, double V) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}

} // namespace

bool stats::enabled() { return StatsEnabled; }
void stats::setEnabled(bool On) { StatsEnabled = On; }

Statistic::Statistic(const char *Name, const char *Desc)
    : Name(Name), Desc(Desc) {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  if (freeSlots().empty()) {
    Idx = NextSlot++;
  } else {
    Idx = freeSlots().back();
    freeSlots().pop_back();
  }
  registry().push_back(this);
}

Statistic::~Statistic() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  auto &R = registry();
  R.erase(std::remove(R.begin(), R.end(), this), R.end());
  freeSlots().push_back(Idx);
}

LocalTally::Cell &LocalTally::cell(Statistic *S) {
  if (S->Idx >= Cells.size())
    Cells.resize(std::max<size_t>(S->Idx + 1, Cells.size() * 2));
  Cell &C = Cells[S->Idx];
  C.S = S;
  return C;
}

void Statistic::record(uint64_t N) {
  if (ActiveTally)
    ActiveTally->cell(this).Add += N;
  else
    Value += N;
}

void Statistic::recordMax(uint64_t N) {
  if (ActiveTally) {
    LocalTally::Cell &C = ActiveTally->cell(this);
    if (N > C.Max)
      C.Max = N;
  } else if (N > Value) {
    Value = N;
  }
}

void LocalTally::apply() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  for (Cell &C : Cells) {
    if (!C.S)
      continue;
    C.S->Value += C.Add;
    if (C.Max > C.S->Value)
      C.S->Value = C.Max;
  }
  Cells.clear();
}

std::vector<TallyDelta> LocalTally::deltas() const {
  std::vector<TallyDelta> Out;
  for (const Cell &C : Cells)
    if (C.S)
      Out.push_back({C.S->name(), C.Add, C.Max});
  std::sort(Out.begin(), Out.end(),
            [](const TallyDelta &A, const TallyDelta &B) { return A.Name < B.Name; });
  return Out;
}

void stats::applyTallyDeltas(const std::vector<TallyDelta> &Deltas) {
  if (!StatsEnabled)
    return;
  // Resolve names outside any Statistic update: registry() order is
  // stable for the duration (counters have static storage).
  std::vector<Statistic *> Targets(Deltas.size(), nullptr);
  {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    for (size_t I = 0; I < Deltas.size(); ++I)
      for (Statistic *S : registry())
        if (Deltas[I].Name == S->name()) {
          Targets[I] = S;
          break;
        }
  }
  for (size_t I = 0; I < Deltas.size(); ++I) {
    if (!Targets[I])
      continue;
    if (Deltas[I].Add)
      *Targets[I] += Deltas[I].Add;
    if (Deltas[I].Max)
      Targets[I]->updateMax(Deltas[I].Max);
  }
}

std::string stats::tallyDeltasJson(const std::vector<TallyDelta> &Deltas) {
  std::string Out = "{";
  bool First = true;
  for (const TallyDelta &D : Deltas) {
    // max(Add, Max) is what a process that recorded only this tally would
    // report as the counter's value (high-water counters carry Max).
    uint64_t V = std::max(D.Add, D.Max);
    if (!V)
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  \"" + D.Name + "\": " + formatUnsigned(V);
  }
  Out += First ? "}" : "\n}";
  return Out;
}

TallyScope::TallyScope(LocalTally &T)
    : Prev(ActiveTally), PrevEnabled(StatsEnabled) {
  ActiveTally = &T;
  StatsEnabled = true;
}

TallyScope::~TallyScope() {
  ActiveTally = Prev;
  StatsEnabled = PrevEnabled;
}

std::vector<StatValue> stats::allStats(bool IncludeZeros) {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<StatValue> Out;
  for (const Statistic *S : registry())
    if (IncludeZeros || S->value() != 0)
      Out.push_back({S->name(), S->desc(), S->value()});
  std::sort(Out.begin(), Out.end(),
            [](const StatValue &A, const StatValue &B) { return A.Name < B.Name; });
  return Out;
}

uint64_t stats::statValue(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  uint64_t Total = 0;
  for (const Statistic *S : registry())
    if (Name == S->name())
      Total += S->value();
  return Total;
}

void stats::resetStats() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  for (Statistic *S : registry())
    S->reset();
}

std::string stats::reportStats() { return reportStats(allStats()); }

std::string stats::reportStats(const std::vector<StatValue> &Values) {
  size_t ValueWidth = 0, NameWidth = 0;
  for (const StatValue &V : Values) {
    ValueWidth = std::max(ValueWidth, formatUnsigned(V.Value).size());
    NameWidth = std::max(NameWidth, V.Name.size());
  }
  std::string Out;
  Out += "===-------------------------------------------------------------===\n";
  Out += "                        ... Statistics ...\n";
  Out += "===-------------------------------------------------------------===\n";
  for (const StatValue &V : Values) {
    std::string Num = formatUnsigned(V.Value);
    Out += std::string(ValueWidth - Num.size(), ' ') + Num + " " + V.Name +
           std::string(NameWidth - V.Name.size(), ' ') + " - " + V.Desc + "\n";
  }
  return Out;
}

StatsSnapshot stats::snapshotStats() { return allStats(/*IncludeZeros=*/true); }

std::string stats::reportStatsDeltaJson(const StatsSnapshot &Base) {
  std::map<std::string, uint64_t> Before;
  for (const StatValue &V : Base)
    Before[V.Name] += V.Value;
  std::string Out = "{";
  bool First = true;
  for (const StatValue &V : allStats(/*IncludeZeros=*/true)) {
    auto It = Before.find(V.Name);
    uint64_t Old = It == Before.end() ? 0 : It->second;
    if (V.Value <= Old)
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  \"" + V.Name + "\": " + formatUnsigned(V.Value - Old);
  }
  Out += First ? "}" : "\n}";
  return Out;
}

std::string stats::reportStatsJson(bool IncludeZeros) {
  std::string Out = "{";
  bool First = true;
  for (const StatValue &V : allStats(IncludeZeros)) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  \"" + V.Name + "\": " + formatUnsigned(V.Value);
  }
  Out += First ? "}" : "\n}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Phase timing
//===----------------------------------------------------------------------===//

namespace {

thread_local bool TimingEnabled = false;

using WallClock = std::chrono::steady_clock;

struct TimerFrame {
  const char *Phase;
  WallClock::time_point WallStart;
  std::clock_t CpuStart;
  double ChildWall = 0; ///< wall seconds consumed by nested phases
};

struct TimingState {
  std::vector<TimerFrame> Stack;
  /// Aggregation by phase name, in first-seen order.
  std::map<std::string, PhaseTime> Records;
};

TimingState &timingState() {
  static thread_local TimingState S;
  return S;
}

} // namespace

bool stats::timingEnabled() { return TimingEnabled; }
void stats::setTimingEnabled(bool On) { TimingEnabled = On; }

ThreadBaselineScope::ThreadBaselineScope()
    : PrevTally(ActiveTally), PrevEnabled(StatsEnabled),
      PrevTiming(TimingEnabled) {
  ActiveTally = nullptr;
  StatsEnabled = false;
  TimingEnabled = false;
}

ThreadBaselineScope::~ThreadBaselineScope() {
  ActiveTally = PrevTally;
  StatsEnabled = PrevEnabled;
  TimingEnabled = PrevTiming;
}

PhaseTimer::PhaseTimer(const char *Phase) : Active(TimingEnabled) {
  if (!Active)
    return;
  timingState().Stack.push_back({Phase, WallClock::now(), std::clock(), 0});
}

PhaseTimer::~PhaseTimer() {
  if (!Active)
    return;
  TimingState &S = timingState();
  assert(!S.Stack.empty() && "timer stack underflow");
  TimerFrame F = S.Stack.back();
  S.Stack.pop_back();
  double Wall =
      std::chrono::duration<double>(WallClock::now() - F.WallStart).count();
  double Cpu =
      static_cast<double>(std::clock() - F.CpuStart) / CLOCKS_PER_SEC;
  PhaseTime &R = S.Records[F.Phase];
  R.Name = F.Phase;
  ++R.Invocations;
  R.WallSeconds += Wall;
  R.SelfWallSeconds += Wall - F.ChildWall;
  R.CpuSeconds += Cpu;
  if (!S.Stack.empty())
    S.Stack.back().ChildWall += Wall;
}

std::vector<PhaseTime> stats::phaseTimes() {
  std::vector<PhaseTime> Out;
  for (const auto &[Name, R] : timingState().Records)
    Out.push_back(R);
  std::sort(Out.begin(), Out.end(), [](const PhaseTime &A, const PhaseTime &B) {
    return A.WallSeconds > B.WallSeconds;
  });
  return Out;
}

void stats::resetPhaseTimes() { timingState().Records.clear(); }

std::string stats::reportPhaseTimes() {
  std::vector<PhaseTime> Times = phaseTimes();
  double TotalWall = 0;
  for (const PhaseTime &T : Times)
    TotalWall += T.SelfWallSeconds;
  std::string Out;
  Out += "===-------------------------------------------------------------===\n";
  Out += "                 ... Phase execution timing report ...\n";
  Out += "===-------------------------------------------------------------===\n";
  char Buf[160];
  snprintf(Buf, sizeof(Buf), "  Total wall time: %.6f seconds\n\n", TotalWall);
  Out += Buf;
  Out += "   ---Wall Time---   ---Self Time---   --CPU Time--  -Runs-  Phase\n";
  for (const PhaseTime &T : Times) {
    double Pct = TotalWall > 0 ? 100.0 * T.SelfWallSeconds / TotalWall : 0;
    snprintf(Buf, sizeof(Buf), "   %10.6f      %10.6f (%5.1f%%) %10.6f  %6llu  %s\n",
             T.WallSeconds, T.SelfWallSeconds, Pct, T.CpuSeconds,
             static_cast<unsigned long long>(T.Invocations), T.Name.c_str());
    Out += Buf;
  }
  return Out;
}

std::string stats::reportPhaseTimesJson() {
  std::string Out = "[";
  bool First = true;
  for (const PhaseTime &T : phaseTimes()) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  {\"phase\": \"" + T.Name +
           "\", \"invocations\": " + std::to_string(T.Invocations) +
           ", \"wall\": ";
    appendJsonNumber(Out, T.WallSeconds);
    Out += ", \"self\": ";
    appendJsonNumber(Out, T.SelfWallSeconds);
    Out += ", \"cpu\": ";
    appendJsonNumber(Out, T.CpuSeconds);
    Out += "}";
  }
  Out += First ? "]" : "\n]";
  return Out;
}
