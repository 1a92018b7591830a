//===- benchmark/src/Main.cpp - the benchmark's entry point ---------------===//
//
// Part of the manticore-gc project.
//
// Runs one workload per process (so peak RSS is the workload's own) and
// prints every metric by name with its unit, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics, print each span's self time, and write a Chrome
// trace-event file per workload.
//
// Usage: manti_bench --workload <raytrace|quicksort|kv-open|kv-drain>
//                    [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace-dir DIR] [--commit SHA]
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "numa/Topology.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sched.h>

using namespace bench;

namespace {

struct WorkloadDef {
  const char *Name;
  Outcome (*Run)(const Options &);
  unsigned MinCpus;
};

const WorkloadDef Workloads[] = {
    {"raytrace", &runRaytrace, 1},
    {"quicksort", &runQuicksort, 1},
    {"kv-open", &runKvOpen, 2}, // a generator and a shard worker
    {"kv-drain", &runKvDrain, 2},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "manti_bench: %s\n"
               "usage: manti_bench --workload <raytrace|quicksort|kv-open|"
               "kv-drain> [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-dir DIR] [--commit SHA]\n",
               Why);
  std::exit(2);
}

/// Cpus this process may run on (its affinity mask, so a cpuset or
/// taskset limit counts), which the benchmark never oversubscribes.
unsigned allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  int N = CPU_COUNT(&Set);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

void printMetric(const Metric &M) {
  std::printf("%-32s = %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool Traced = false;
  std::string WorkloadName, TraceDir = ".", Commit = "unknown";
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Arg).c_str());
    const char *Val = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      WorkloadName = Val;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val, &End, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val, &End);
      if (!(O.Seconds > 0))
        usage("--seconds must be positive");
    } else if (Arg == "--trace") {
      if (std::strcmp(Val, "0") && std::strcmp(Val, "1"))
        usage("--trace takes 0 or 1");
      Traced = Val[0] == '1';
    } else if (Arg == "--trace-dir") {
      TraceDir = Val;
    } else if (Arg == "--commit") {
      Commit = Val;
    } else {
      usage(("unknown option " + Arg).c_str());
    }
    if (End && (End == Val || *End))
      usage(("not a number: " + std::string(Val)).c_str());
  }

  const WorkloadDef *W = nullptr;
  for (const WorkloadDef &D : Workloads)
    if (WorkloadName == D.Name)
      W = &D;
  if (!W)
    usage("--workload names no workload");

  // Host label and guards: timings only from an optimized build, and never
  // more vprocs than the cpus this process may use.
  const manti::Topology Host = manti::Topology::host();
  O.Host = &Host;
  O.NProc = allowedCpus();
  std::printf("# host {\"nproc\": %u, \"topology\": \"%s\", \"nodes\": %u, "
              "\"cores\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"commit\": \"%s\"}\n",
              O.NProc, Host.name().c_str(), Host.numNodes(), Host.numCores(),
              MANTI_BENCH_COMPILER, MANTI_BENCH_BUILD_TYPE, Commit.c_str());
  if (std::strcmp(MANTI_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "manti_bench: refusing a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 MANTI_BENCH_BUILD_TYPE);
    return 2;
  }
  if (O.NProc > Host.numCores()) {
    std::fprintf(stderr,
                 "manti_bench: %u allowed cpus but the host topology has %u "
                 "cores; refusing to oversubscribe\n",
                 O.NProc, Host.numCores());
    return 2;
  }
  if (O.NProc < W->MinCpus) {
    std::fprintf(stderr, "manti_bench: %s needs %u cpus, %u allowed\n",
                 W->Name, W->MinCpus, O.NProc);
    return 2;
  }

  TraceLog Trace;
  if (Traced)
    O.Trace = &Trace;
  std::printf("# workload %s seed %llu seconds %g %s vprocs %u\n", W->Name,
              static_cast<unsigned long long>(O.Seed), O.Seconds,
              Traced ? "traced" : "untraced", O.NProc);
  std::fflush(stdout);

  const Outcome Out = W->Run(O);

  for (const Metric &M : Out.Reported)
    printMetric(M);
  for (const Metric &M : Out.Extra)
    printMetric(M);
  printMetric({"error_rate",
               Out.Attempted ? static_cast<double>(Out.Failed) /
                                   static_cast<double>(Out.Attempted)
                             : 1.0,
               "ratio"});

  bool Ok = Out.Attempted > 0 && Out.Failed == 0;
  if (Traced) {
    std::printf("\n# self time by span (traced units)\n");
    Trace.printSelfTimes(stdout);
    const std::string Path = TraceDir + "/" + W->Name + ".trace.json";
    if (Trace.writeChrome(Path)) {
      std::printf("# trace written to %s\n", Path.c_str());
    } else {
      std::fprintf(stderr, "manti_bench: cannot write %s\n", Path.c_str());
      Ok = false;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Ok ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  for (std::size_t I = 0; I < Out.Reported.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out.Reported[I].Name.c_str(),
                Out.Reported[I].Value, Out.Reported[I].Unit.c_str());
  std::printf("}}\n");
  return Ok ? 0 : 1;
}
