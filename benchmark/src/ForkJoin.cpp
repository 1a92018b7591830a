//===- benchmark/src/ForkJoin.cpp - raytrace and quicksort workloads ------===//
//
// Part of the manticore-gc project.
//
// The paper's claim is wall-clock scaling of parallel functional programs,
// so two of its fork-join benchmarks run here on real threads, each rep
// on a fresh Runtime over the probed host topology:
//
//   raytrace   compute-bound: runRaytracer renders four seeded 1024x1024
//              scenes (the pixels of one 2048x2048 frame) through a
//              parallelReduce over rows (grain 4). GC is a few percent of
//              the time, so the scheduler (steal handshake, park/wake)
//              decides the speedup.
//   quicksort  allocation-bound: the NESL quicksort over a rope of 4M
//              seeded int64s. Sub-sorts carry rope environments that a
//              steal must promote, so the collector and promotion do most
//              of the non-compute work.
//
// Every rep is checked: each image checksum against a plain tracePixel
// loop over the same scene, the sorted rope against the input's length
// and order-independent checksums.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "runtime/Rope.h"
#include "runtime/Runtime.h"
#include "support/XorShift.h"
#include "workloads/Quicksort.h"
#include "workloads/Raytracer.h"

#include <algorithm>
#include <thread>

using namespace bench;
using namespace manti;
using namespace manti::workloads;

namespace {

/// A raytrace unit renders RaytraceScenes seeded scenes at RaytraceSide^2:
/// the pixels of one 2048^2 frame. One scene's cost varies ~11% with its
/// seed; averaging four keeps the seed-to-seed spread of wall_s small.
constexpr unsigned RaytraceScenes = 4;
constexpr int RaytraceSide = 1024;
constexpr int64_t QuicksortElements = 4'000'000;
constexpr int64_t QuicksortCutoff = 4096;

RuntimeConfig configFor(const Options &O, Config C) {
  RuntimeConfig Cfg;
  Cfg.NumVProcs = C == Config::Min ? 1 : O.NProc;
  return Cfg;
}

/// Finishes a unit: layer counters, trace spans, and the rep's verdict.
void finishRep(const Options &O, Unit &U, Runtime &RT, bool Ok) {
  U.Attempted = 1;
  U.Failed = Ok ? 0 : 1;
  TraceLog *Trace = U.Traced ? O.Trace : nullptr;
  addLayerCounters(U, RT, Trace);
  if (Trace)
    traceStages(*Trace, U, "rep");
}

/// The unit's median operation latency: over its kernel calls, four for
/// a raytrace unit and one for quicksort.
void addCallLatency(Unit &U, std::vector<double> CallUs) {
  U.Values.push_back({"p50_us", percentile(CallUs, 50), "us"});
}

//===----------------------------------------------------------------------===//
// raytrace
//===----------------------------------------------------------------------===//

/// The scenes of pair \p Pair: every seed gives its own scenes, and each
/// pair of a run renders different ones.
std::vector<RaytracerParams> raytraceScenes(const Options &O, unsigned Pair) {
  std::vector<RaytracerParams> Scenes(RaytraceScenes);
  for (unsigned K = 0; K < RaytraceScenes; ++K) {
    Scenes[K].Width = Scenes[K].Height = RaytraceSide;
    Scenes[K].Seed = O.Seed * 1000003 + Pair * RaytraceScenes + K;
  }
  return Scenes;
}

/// Image checksum of a plain tracePixel loop over every pixel, outside the
/// runtime; rows are dealt across \p Threads threads.
uint64_t referenceChecksum(const RaytracerParams &P, unsigned Threads) {
  const std::vector<Sphere> Scene = makeScene(P);
  std::vector<uint64_t> Sums(Threads, 0);
  {
    std::vector<std::jthread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([&, T] {
        for (int Y = static_cast<int>(T); Y < P.Height;
             Y += static_cast<int>(Threads))
          for (int X = 0; X < P.Width; ++X)
            Sums[T] += tracePixel(Scene, X, Y, P);
      });
  }
  uint64_t Sum = 0;
  for (uint64_t S : Sums)
    Sum += S;
  return Sum;
}

struct RaytraceRep {
  const std::vector<RaytracerParams> *Scenes;
  std::vector<RaytracerResult> Results;
  std::vector<double> CallUs;
  Clock::time_point KernelStart, KernelEnd;
};

Unit raytraceUnit(const Options &O, Config C, bool Traced,
                  const std::vector<RaytracerParams> &Scenes,
                  const std::vector<uint64_t> &References) {
  Unit U;
  U.Cfg = C;
  U.Traced = Traced;
  const Clock::time_point T0 = Clock::now();
  Runtime RT(configFor(O, C), *O.Host);
  const Clock::time_point T1 = Clock::now();
  // The scenes are the input. runRaytracer derives the same ones from
  // their params, so these copies only time input generation and check
  // its shape.
  std::vector<std::vector<Sphere>> Inputs;
  for (const RaytracerParams &P : Scenes)
    Inputs.push_back(makeScene(P));
  const Clock::time_point T2 = Clock::now();

  RaytraceRep Rep{&Scenes, {}, {}, {}, {}};
  RT.run(
      [](Runtime &RT, VProc &VP, void *Ctx) {
        auto &R = *static_cast<RaytraceRep *>(Ctx);
        R.KernelStart = Clock::now();
        Clock::time_point CallStart = R.KernelStart;
        for (const RaytracerParams &P : *R.Scenes) {
          R.Results.push_back(runRaytracer(RT, VP, P));
          const Clock::time_point CallEnd = Clock::now();
          R.CallUs.push_back(secondsBetween(CallStart, CallEnd) * 1e6);
          CallStart = CallEnd;
        }
        R.KernelEnd = CallStart;
      },
      &Rep);
  const Clock::time_point T3 = Clock::now();
  bool Ok = Rep.Results.size() == Scenes.size();
  for (const RaytracerResult &R : Rep.Results)
    U.Work += static_cast<double>(R.Pixels);
  for (std::size_t K = 0; Ok && K < Scenes.size(); ++K) {
    const RaytracerParams &P = Scenes[K];
    Ok = Rep.Results[K].Checksum == References[K] &&
         Rep.Results[K].Pixels == static_cast<int64_t>(P.Width) * P.Height &&
         Inputs[K].size() == static_cast<std::size_t>(P.NumSpheres) + 1;
  }
  const Clock::time_point T4 = Clock::now();

  U.Stages = {{"setup.runtime", T0, T1},
              {"setup.input", T1, T2},
              {"kernel", Rep.KernelStart, Rep.KernelEnd},
              {"drain", Rep.KernelEnd, T3},
              {"verify", T3, T4}};
  addCallLatency(U, Rep.CallUs);
  finishRep(O, U, RT, Ok);
  return U;
}

//===----------------------------------------------------------------------===//
// quicksort
//===----------------------------------------------------------------------===//

/// splitmix64 finalizer: the order-independent checksum sums mixed
/// elements, so a lost value cannot be compensated by a duplicated one.
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

struct QuicksortRep {
  uint64_t Seed = 0;
  bool Ok = false;
  Clock::time_point InputStart, KernelStart, KernelEnd, VerifyEnd;
};

void quicksortMain(Runtime &RT, VProc &VP, void *Ctx) {
  auto &R = *static_cast<QuicksortRep *>(Ctx);
  R.InputStart = Clock::now();
  XorShift64 Rng(R.Seed);
  std::vector<uint64_t> Input(static_cast<std::size_t>(QuicksortElements));
  uint64_t Sum = 0, MixSum = 0;
  for (uint64_t &W : Input) {
    W = Rng.next() >> 8; // non-negative as int64, like runQuicksort's input
    Sum += W;
    MixSum += mix(W);
  }
  RootScope S(VP.heap());
  Ref<> Rope = rope::fromArray(S, Input.data(), QuicksortElements);
  Input = {};

  R.KernelStart = Clock::now();
  Ref<> Sorted = S.root(quicksort(RT, VP, Rope, QuicksortCutoff));
  R.KernelEnd = Clock::now();

  std::vector<uint64_t> Out(static_cast<std::size_t>(rope::length(Sorted)));
  rope::toArray(Sorted, Out.data());
  uint64_t OutSum = 0, OutMixSum = 0;
  for (uint64_t W : Out) {
    OutSum += W;
    OutMixSum += mix(W);
  }
  R.Ok = static_cast<int64_t>(Out.size()) == QuicksortElements &&
         OutSum == Sum && OutMixSum == MixSum &&
         std::is_sorted(Out.begin(), Out.end(), [](uint64_t A, uint64_t B) {
           return static_cast<int64_t>(A) < static_cast<int64_t>(B);
         });
  R.VerifyEnd = Clock::now();
}

Unit quicksortUnit(const Options &O, Config C, bool Traced) {
  Unit U;
  U.Cfg = C;
  U.Traced = Traced;
  const Clock::time_point T0 = Clock::now();
  Runtime RT(configFor(O, C), *O.Host);
  const Clock::time_point T1 = Clock::now();
  QuicksortRep Rep;
  Rep.Seed = O.Seed;
  RT.run(&quicksortMain, &Rep);
  const Clock::time_point T2 = Clock::now();
  U.Work = static_cast<double>(QuicksortElements);
  addCallLatency(U, {secondsBetween(Rep.KernelStart, Rep.KernelEnd) * 1e6});
  U.Stages = {{"setup.runtime", T0, T1},
              {"setup.input", Rep.InputStart, Rep.KernelStart},
              {"kernel", Rep.KernelStart, Rep.KernelEnd},
              {"verify", Rep.KernelEnd, Rep.VerifyEnd},
              {"drain", Rep.VerifyEnd, T2}};
  finishRep(O, U, RT, Rep.Ok);
  return U;
}

double kernelOf(const Unit &U) { return U.kernelSeconds(); }

} // namespace

Outcome bench::runRaytrace(const Options &O) {
  // Both units of a pair render the same scenes; their reference
  // checksums are computed once, when the pair starts.
  std::vector<RaytracerParams> Scenes;
  std::vector<uint64_t> References;
  unsigned ScenesOfPair = ~0u;
  double ReferenceS = 0;
  std::vector<Unit> Units =
      runPairs(O, [&](Config C, unsigned Pair, bool Traced) {
        if (Pair != ScenesOfPair) {
          const Clock::time_point Start = Clock::now();
          Scenes = raytraceScenes(O, Pair);
          References.clear();
          for (const RaytracerParams &P : Scenes)
            References.push_back(referenceChecksum(P, O.NProc));
          ReferenceS += secondsBetween(Start, Clock::now());
          ScenesOfPair = Pair;
        }
        return raytraceUnit(O, C, Traced, Scenes, References);
      });
  Outcome Out = summarize(O, Units, kernelOf);
  Out.Extra.push_back({"reference_s", ReferenceS, "s"});
  return Out;
}

Outcome bench::runQuicksort(const Options &O) {
  std::vector<Unit> Units = runPairs(
      O, [&](Config C, unsigned, bool Traced) {
        return quicksortUnit(O, C, Traced);
      });
  return summarize(O, Units, kernelOf);
}
