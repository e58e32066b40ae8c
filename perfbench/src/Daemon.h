//===- perfbench/src/Daemon.h - A running s1lispd ---------------*- C++ -*-===//
///
/// \file
/// Starts the real s1lispd binary on a unix socket, waits until it answers
/// `ping`, and shuts it down (or kills it) when done; plus the seeded
/// per-client request sequences the service workload and the traced run
/// send it.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_PERFBENCH_DAEMON_H
#define S1LISP_PERFBENCH_DAEMON_H

#include "Common.h"
#include "Inputs.h"

#include "service/Client.h"
#include "service/Protocol.h"

#include <array>
#include <string>
#include <vector>

namespace perfbench {

/// The daemon's cache budget. Every round adds new modules' entries, so
/// with the default 256 MiB the cache, and the daemon's memory, would grow
/// with the run's length; with this budget it fills within the first
/// seconds and evicts from then on. The budget holds every client's warm
/// modules (about 15 MiB) plus dozens of rounds of new entries from every
/// client, while a warm entry is requested again every few rounds, so
/// LRU eviction only ever drops entries of past rounds and the hit and
/// miss counts stay exact.
constexpr unsigned CacheMb = 16;

class Daemon {
public:
  /// Starts s1lispd from \p BinDir listening on a socket there, on CPU
  /// \p Cpu alone when it is not negative; returns once a ping round trip
  /// succeeded (fails the run after 10 s).
  Daemon(const std::string &BinDir, const std::string &Tag, int Cpu = -1);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Seconds from process start until the first ping was answered.
  double startSeconds() const { return StartSeconds; }
  pid_t pid() const { return Proc.pid(); }
  /// A new connection to the daemon.
  void connect(s1lisp::service::Client &C) const;
  /// Sends shutdown and waits for the process to exit.
  void shutdown();

private:
  std::string Socket;
  ChildProcess Proc;
  double StartSeconds = 0;
};

/// One request of a client's sequence and what its answer must show.
struct Request {
  std::string Kind; ///< warm, entry, edited, remarks or new
  s1lisp::service::Message Msg;
  unsigned ExpectHits = 0;
  unsigned ExpectMisses = 0;
  /// For entry requests: the closed-form value of bench-main, printed.
  std::string ExpectValue;
};

/// One client's seeded module library. Every function name carries the
/// client's (and the module variant's) suffix, so no two clients share a
/// memo key and the daemon's hit and miss counts do not depend on how the
/// clients interleave. The warm module has several seeded variants, used
/// in turn by successive rounds, so a run's cost averages over more than
/// one draw.
class ClientLibrary {
public:
  ClientLibrary(uint64_t Seed, unsigned Client);

  /// The requests that fill the cache before timing.
  std::vector<Request> priming() const;
  /// Round \p Round's requests, one of each kind, all on modules of one
  /// size: the warm module (all hits), the same with an entry run, with
  /// one function edited (one miss) and with remarks, and a new module
  /// (all misses).
  std::vector<Request> round(uint64_t Round) const;
  /// The distinct programs of the first 64 rounds, for code size: every
  /// warm variant and every new module.
  std::vector<std::string> roundSources() const;

private:
  Request compile(const std::string &Kind, const std::string &Source,
                  unsigned Hits, unsigned Misses) const;

  struct Variant {
    std::string Suffix; ///< of every function name: client and variant
    std::string Source;
  };
  uint64_t Seed;
  unsigned Client;
  std::array<Variant, 8> Variants;
};

/// The value of \p Key in a flat JSON object of counters (0 when absent).
uint64_t jsonCounter(const std::string &Json, const std::string &Key);

} // namespace perfbench

#endif // S1LISP_PERFBENCH_DAEMON_H
