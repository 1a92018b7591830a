//===- bench/GCBenchUtils.h - shared helpers for bench binaries -----------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#ifndef MANTI_BENCH_GCBENCHUTILS_H
#define MANTI_BENCH_GCBENCHUTILS_H

#include "gc/Handles.h"
#include "gc/Heap.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace manti::benchutil {

//===----------------------------------------------------------------------===//
// Command line (--quick / --json / --topology / --help)
//===----------------------------------------------------------------------===//

/// The one bench-driver command line, shared by every bench and figure
/// binary (no per-bench argv scanning):
///
///   --quick            scaled-down workload for CI smoke lanes
///   --json <path>      also write machine-readable rows (JsonReport)
///   --topology <name>  run only the machine whose Topology::name()
///                      matches (e.g. "amd48", "intel32"); default all
///   --help             usage text, exit 0
///
/// Unknown arguments print the usage text to stderr and exit 2, so a
/// typo'd flag can never silently run the full sweep.
struct BenchOptions {
  bool Quick = false;
  const char *JsonPath = nullptr;
  const char *TopologyName = nullptr;

  static BenchOptions parse(int argc, char **argv, const char *Bench,
                            const char *Description) {
    BenchOptions Opts;
    for (int I = 1; I < argc; ++I) {
      const char *Arg = argv[I];
      if (std::strcmp(Arg, "--quick") == 0) {
        Opts.Quick = true;
      } else if (std::strcmp(Arg, "--json") == 0 && I + 1 < argc) {
        Opts.JsonPath = argv[++I];
      } else if (std::strcmp(Arg, "--topology") == 0 && I + 1 < argc) {
        Opts.TopologyName = argv[++I];
      } else if (std::strcmp(Arg, "--help") == 0 ||
                 std::strcmp(Arg, "-h") == 0) {
        usage(stdout, Bench, Description);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown argument '%s'\n\n", Bench, Arg);
        usage(stderr, Bench, Description);
        std::exit(2);
      }
    }
    return Opts;
  }

  /// \returns true when \p Name's machine should run under the
  /// --topology filter (always true without the flag).
  bool runsTopology(const char *Name) const {
    return !TopologyName || std::strcmp(TopologyName, Name) == 0;
  }
  bool runsTopology(const std::string &Name) const {
    return runsTopology(Name.c_str());
  }

private:
  static void usage(std::FILE *Out, const char *Bench,
                    const char *Description) {
    std::fprintf(Out,
                 "usage: %s [--quick] [--json <path>] [--topology <name>]\n"
                 "\n%s\n\n"
                 "  --quick            scaled-down workload (CI smoke)\n"
                 "  --json <path>      also write machine-readable rows\n"
                 "  --topology <name>  run only that machine (e.g. amd48)\n"
                 "  --help             this text\n",
                 Bench, Description);
  }
};

//===----------------------------------------------------------------------===//
// Machine-readable results (--json <path>)
//===----------------------------------------------------------------------===//

/// Collects one JSON object per printed table row and writes them as an
/// array, one row per line:
///
///   [{"bench": "...", "topology": "...", "config": "...",
///     "metrics": {"seconds": 1.25, ...}},
///    ...]
///
/// The schema is deliberately flat -- CI uploads the file as a
/// BENCH_<name>.json artifact, and trajectory tooling needs only
/// (bench, topology, config) as the series key and metrics as numbers.
/// Metric values are finite doubles; names are plain identifiers, so
/// escaping only has to cover the free-form config strings.
class JsonReport {
public:
  /// \p Bench names the binary's series (e.g. "ablation_structures");
  /// \p Path may be nullptr (every add/write becomes a no-op).
  JsonReport(std::string Bench, const char *Path)
      : Bench(std::move(Bench)), Path(Path ? Path : "") {}

  bool enabled() const { return !Path.empty(); }

  void addRow(const std::string &Topology, const std::string &Config,
              std::vector<std::pair<std::string, double>> Metrics) {
    if (!enabled())
      return;
    std::string Row = "{\"bench\": ";
    appendString(Row, Bench);
    Row += ", \"topology\": ";
    appendString(Row, Topology);
    Row += ", \"config\": ";
    appendString(Row, Config);
    Row += ", \"metrics\": {";
    bool First = true;
    for (const auto &[Name, V] : Metrics) {
      if (!First)
        Row += ", ";
      First = false;
      appendString(Row, Name);
      char Buf[48];
      std::snprintf(Buf, sizeof(Buf), ": %.6g", V);
      Row += Buf;
    }
    Row += "}}";
    Rows.push_back(std::move(Row));
  }

  /// Writes the collected rows to the path given at construction.
  /// \returns false (after a note on stderr) when the file cannot be
  /// written; callers treat that as a bench failure so CI artifacts
  /// cannot silently go missing.
  bool write() const {
    if (!enabled())
      return true;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write --json file %s\n",
                   Path.c_str());
      return false;
    }
    std::fputs("[\n", F);
    for (std::size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F, "  %s%s\n", Rows[I].c_str(),
                   I + 1 < Rows.size() ? "," : "");
    std::fputs("]\n", F);
    std::fclose(F);
    std::printf("\nwrote %zu JSON row(s) to %s\n", Rows.size(),
                Path.c_str());
    return true;
  }

private:
  static void appendString(std::string &Out, const std::string &S) {
    Out += '"';
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += '"';
  }

  std::string Bench;
  std::string Path;
  std::vector<std::string> Rows;
};

/// Runs \p Body once per vproc, each on its own thread, then drains:
/// every thread keeps hitting safe points until all are done and no
/// global collection is pending (a collection needs all vprocs at its
/// barriers, so nobody may leave early).
template <typename BodyT> void runOnWorldThreads(GCWorld &W, BodyT Body) {
  std::atomic<unsigned> Done{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < W.numVProcs(); ++I) {
    Threads.emplace_back([&W, I, &Body, &Done] {
      VProcHeap &H = W.heap(I);
      Body(H);
      Done.fetch_add(1, std::memory_order_acq_rel);
      while (Done.load(std::memory_order_acquire) < W.numVProcs() ||
             W.globalGCPending()) {
        H.safePoint();
        std::this_thread::yield();
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
}

/// Builds a cons list of N tagged integers (vector cells [head, tail]).
inline Value makeIntListB(VProcHeap &H, int64_t N) {
  RootScope S(H);
  Ref<> List = S.root(Value::nil());
  for (int64_t I = 0; I < N; ++I) {
    RootScope Inner(H);
    Ref<> Cell = allocVectorOf(Inner, Value::fromInt(I), List);
    List = Cell.value();
  }
  return List.value();
}

/// Keeps a value observably alive without benchmark library support.
inline void benchmarkSink(int64_t V) {
  static volatile int64_t Sink;
  Sink = V;
  (void)Sink;
}

} // namespace manti::benchutil

#endif // MANTI_BENCH_GCBENCHUTILS_H
