//===- service/TrafficGen.cpp ---------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "service/TrafficGen.h"

#include "runtime/Channel.h"
#include "runtime/Runtime.h"
#include "runtime/VProc.h"
#include "service/KVStore.h"
#include "support/Assert.h"
#include "support/Wait.h"
#include "support/XorShift.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

using namespace manti;

std::vector<Request> manti::buildSchedule(const TrafficConfig &Cfg,
                                          unsigned Generator) {
  MANTI_CHECK(Cfg.RatePerGen > 0.0, "offered rate must be positive");
  MANTI_CHECK(Cfg.GetPct + Cfg.PutPct <= 100, "op mix exceeds 100%");
  // Distinct, deterministic stream per (seed, generator).
  XorShift64 Rng(Cfg.Seed * 0x9e3779b97f4a7c15ull +
                 (Generator + 1) * 0xd1b54a32d192ed03ull);
  std::vector<Request> Sched;
  Sched.reserve(Cfg.RequestsPerGen);
  const double MeanGapNanos = 1e9 / Cfg.RatePerGen;
  double Clock = 0.0;
  for (uint64_t I = 0; I < Cfg.RequestsPerGen; ++I) {
    // Poisson arrivals: exponential inter-arrival gaps.
    double U = Rng.nextDouble();
    if (U >= 1.0)
      U = 0.999999999;
    Clock += -std::log(1.0 - U) * MeanGapNanos;
    Request R;
    R.ScheduledNanos = static_cast<uint64_t>(Clock);
    R.Key = Rng.nextBelow(Cfg.KeySpace);
    uint64_t Pick = Rng.nextBelow(100);
    R.Op = Pick < Cfg.GetPct            ? OpKind::Get
           : Pick < Cfg.GetPct + Cfg.PutPct ? OpKind::Put
                                            : OpKind::Delete;
    R.ValueBytes = Cfg.ValueBytes;
    Sched.push_back(R);
  }
  return Sched;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Shared, spawner-owned control state for one serving run (the Ctx side
/// of Task -- plain C++ state, no heap values except via the store and
/// channels, which are root providers themselves).
struct ServingState {
  const ServingConfig *Cfg = nullptr;
  KVStore *Store = nullptr;
  std::vector<std::unique_ptr<Channel>> Chans; ///< one per shard/worker
  std::vector<std::vector<Request>> Schedules; ///< one per generator
  Clock::time_point Epoch;

  struct PerWorker {
    LatencyRecorder Rec;
    uint64_t Gets = 0, Puts = 0, Deletes = 0;
    uint64_t LastDoneNanos = 0;
  };
  std::vector<PerWorker> Workers;

  JoinCounter Join;
};

uint64_t elapsedNanos(const ServingState &St) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           St.Epoch)
          .count());
}

/// Requests cross the channel as a tagged int: (generator << 32) | index
/// into that generator's schedule. Negative = poison (worker exits after
/// one per generator).
constexpr int64_t Poison = -1;

int64_t encodeToken(unsigned Generator, uint32_t Index) {
  return (static_cast<int64_t>(Generator) << 32) | Index;
}

void workerTask(Runtime &, VProc &VP, Task T) {
  auto *St = static_cast<ServingState *>(T.Ctx);
  const unsigned W = static_cast<unsigned>(T.A);
  const unsigned NumGens = St->Cfg->Workers;
  ServingState::PerWorker &Me = St->Workers[W];
  Channel &Chan = *St->Chans[W];
  unsigned Poisons = 0;
  while (Poisons < NumGens) {
    Value V = Chan.recv(VP);
    int64_t Tok = V.asInt();
    if (Tok < 0) {
      Poisons++;
      continue;
    }
    const unsigned Gen = static_cast<unsigned>(Tok >> 32);
    const uint32_t Idx = static_cast<uint32_t>(Tok & 0xffffffff);
    const Request &R = St->Schedules[Gen][Idx];
    switch (R.Op) {
    case OpKind::Get:
      St->Store->get(VP, R.Key);
      Me.Gets++;
      break;
    case OpKind::Put:
      St->Store->put(VP, R.Key, R.ValueBytes);
      Me.Puts++;
      break;
    case OpKind::Delete:
      St->Store->erase(VP, R.Key);
      Me.Deletes++;
      break;
    }
    // Open-loop latency: completion minus *scheduled* arrival. Queueing
    // delay behind a GC pause lands here -- no coordinated omission.
    uint64_t Now = elapsedNanos(*St);
    Me.Rec.record(Now > R.ScheduledNanos ? Now - R.ScheduledNanos : 0);
    if (Now > Me.LastDoneNanos)
      Me.LastDoneNanos = Now;
  }
  St->Join.sub();
}

/// Paces generator \p G's schedule: waits (polling, so global GC and
/// steal requests are serviced) until each request's scheduled time,
/// then routes it to its key's shard channel. Finishes by poisoning
/// every worker once.
void generatorBody(VProc &VP, ServingState *St, unsigned G) {
  const std::vector<Request> &Sched = St->Schedules[G];
  const std::chrono::nanoseconds Budget =
      spinBudget(VP.runtime().numVProcs());
  for (uint32_t I = 0; I < Sched.size(); ++I) {
    const Request &R = Sched[I];
    // A clock wait: nobody rings, so the park is a sleep, cut short at
    // the scheduled time.
    spinThenPark(
        Budget,
        [&] {
          if (elapsedNanos(*St) >= R.ScheduledNanos)
            return true;
          VP.poll();
          return false;
        },
        [&](unsigned Micros) {
          uint64_t Now = elapsedNanos(*St);
          if (Now < R.ScheduledNanos)
            sleepMicros(static_cast<unsigned>(std::min<uint64_t>(
                Micros, (R.ScheduledNanos - Now) / 1000)));
        });
    unsigned Shard = St->Store->shardOf(R.Key);
    St->Chans[Shard]->send(VP, Value::fromInt(encodeToken(G, I)));
  }
  for (auto &Chan : St->Chans)
    Chan->send(VP, Value::fromInt(Poison));
}

void generatorTask(Runtime &, VProc &VP, Task T) {
  auto *St = static_cast<ServingState *>(T.Ctx);
  generatorBody(VP, St, static_cast<unsigned>(T.A));
  St->Join.sub();
}

void servingMain(Runtime &, VProc &VP, void *CtxP) {
  auto *St = static_cast<ServingState *>(CtxP);
  const ServingConfig &Cfg = *St->Cfg;
  const unsigned W = Cfg.Workers;

  // Preload before the epoch so the measured window starts warm.
  for (uint64_t K = 0; K < Cfg.PreloadKeys; ++K)
    St->Store->put(VP, K % Cfg.Traffic.KeySpace, Cfg.Traffic.ValueBytes);

  St->Epoch = Clock::now();
  St->Join.add(W + (W - 1));
  for (unsigned I = 0; I < W; ++I)
    VP.spawn(Task{&workerTask, St, Value::nil(), static_cast<int64_t>(I), 0,
                  St->Store->shardHome(I)});
  for (unsigned G = 1; G < W; ++G)
    VP.spawn(Task{&generatorTask, St, Value::nil(), static_cast<int64_t>(G),
                  0, Task::NoAffinity});
  // Generator 0 runs right here; joinWait then helps drain whatever is
  // left (it can even pick up a worker -- poisons still arrive).
  generatorBody(VP, St, 0);
  VP.joinWait(St->Join);
}

} // namespace

ServingResult manti::runServing(Runtime &RT, const ServingConfig &Cfg) {
  MANTI_CHECK(Cfg.Workers > 0, "serving needs at least one worker");
  MANTI_CHECK(RT.numVProcs() >= 2 * Cfg.Workers,
              "serving needs 2*Workers vprocs (blocking recv occupies one)");

  // Store and channels are locals: global-root providers must be gone
  // before the Runtime is destroyed.
  KVStore Store(RT, Cfg.Workers);
  ServingState St;
  St.Cfg = &Cfg;
  St.Store = &Store;
  St.Workers.resize(Cfg.Workers);
  for (unsigned I = 0; I < Cfg.Workers; ++I) {
    St.Chans.push_back(std::make_unique<Channel>(RT));
    St.Schedules.push_back(buildSchedule(Cfg.Traffic, I));
  }

  RT.run(&servingMain, &St);

  ServingResult R;
  uint64_t LastNanos = 0;
  for (const ServingState::PerWorker &P : St.Workers) {
    R.Latency.merge(P.Rec);
    R.Gets += P.Gets;
    R.Puts += P.Puts;
    R.Deletes += P.Deletes;
    if (P.LastDoneNanos > LastNanos)
      LastNanos = P.LastDoneNanos;
  }
  R.Misses = Store.misses();
  R.Corruptions = Store.corruptions();
  R.Seconds = static_cast<double>(LastNanos) / 1e9;
  R.OfferedRps = Cfg.Traffic.RatePerGen * Cfg.Workers;
  R.AchievedRps =
      R.Seconds > 0 ? static_cast<double>(R.Latency.count()) / R.Seconds : 0;
  return R;
}
