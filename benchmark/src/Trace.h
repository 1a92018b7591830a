//===- benchmark/src/Trace.h - in-memory spans and Chrome trace export ----===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span store. Spans are recorded by the benchmark's own
/// code around its calls into the library (never from inside it), kept in
/// memory, and written once at exit as Chrome trace-event JSON, which
/// chrome://tracing and ui.perfetto.dev load. Only the main thread
/// records: per-request spans are built after a trial from timestamps the
/// serving threads wrote into their own slots.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_BENCH_TRACE_H
#define MANTI_BENCH_TRACE_H

#include "Bench.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace bench {

class TraceLog {
public:
  TraceLog() : Origin(Clock::now()) {}

  /// Nanoseconds from the log's origin to \p T.
  uint64_t at(Clock::time_point T) const;

  /// Records a complete span on track \p Tid. \p Parent is the index a
  /// previous call returned (-1 for none); spans of one request share
  /// \p Id. \returns this span's index.
  int span(const char *Name, unsigned Tid, uint64_t StartNs, uint64_t EndNs,
           int Parent = -1, uint64_t Id = 0);

  /// Records a counter event (a set of named totals at one instant).
  void counters(const char *Name, uint64_t AtNs,
                std::vector<std::pair<const char *, double>> Values);

  /// Names track \p Tid in the viewer.
  void trackName(unsigned Tid, std::string Name);

  /// Writes Chrome trace-event JSON. \returns false on I/O failure.
  bool writeChrome(const std::string &Path) const;

  /// Per span name: count, total time, and self time (total minus the
  /// part of each span its child spans cover).
  struct SelfTime {
    const char *Name;
    uint64_t Count = 0;
    double TotalMs = 0;
    double SelfMs = 0;
  };
  std::vector<SelfTime> selfTimes() const;

  void printSelfTimes(std::FILE *Out) const;

private:
  struct Span {
    const char *Name;
    unsigned Tid;
    int Parent;
    uint64_t Id;
    uint64_t StartNs, EndNs;
  };
  struct Counter {
    const char *Name;
    uint64_t AtNs;
    std::vector<std::pair<const char *, double>> Values;
  };

  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<Counter> Counters;
  std::vector<std::pair<unsigned, std::string>> Tracks;
};

} // namespace bench

#endif // MANTI_BENCH_TRACE_H
