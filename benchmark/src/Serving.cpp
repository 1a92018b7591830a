//===- benchmark/src/Serving.cpp - KV store serving workloads -------------===//
//
// Part of the manticore-gc project.
//
// The serving workloads drive a KVStore the way runServing does -- W
// generators send each request to its key's shard channel, W node-affine
// shard workers execute it, 2W vprocs -- but through the benchmark's own
// orchestration, so every request can be stamped at scheduled, sent,
// dequeued, and completed:
//
//   kv-open   open loop: Poisson arrivals at 200k req/s in total, latency
//             measured from the *scheduled* arrival (no coordinated
//             omission). The preloaded live set (16 Ki keys of 1 KB) and
//             overwrite churn put stop-the-world global collections on
//             the tail.
//   kv-drain  closed-loop drain: the same store and mix with every
//             request due at t=0, so the unit's time is the store's
//             capacity. A change that trades throughput for pauses, or the
//             reverse, shows on one of the two.
//
// Each trial verifies the store afterwards: every key is read back through
// KVStore::get, which re-checks payload checksums, and every scheduled
// request must have completed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "runtime/Channel.h"
#include "runtime/Runtime.h"
#include "service/KVStore.h"
#include "service/TrafficGen.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

using namespace bench;
using namespace manti;

namespace {

/// A ~17 MB live set, like 256-B values over 64 Ki keys, but 1-KB puts
/// collect about three times as often, so a run's tail is made of some
/// fifty global-GC backlogs rather than under twenty. At 200k req/s
/// the shard workers park between requests, and p50 (the park/wake
/// handoff) repeats within a few percent.
constexpr uint64_t KeySpace = 16 * 1024;
constexpr uint32_t ValueBytes = 1024;
constexpr double OpenLoopRps = 200000;
/// Full-configuration trial length: short trials give ~18 per run, so the
/// median over trials of a trial's percentile settles. The smallest
/// configuration serves the same offered load for a quarter of the time:
/// its only output is items per second, ~1 while one shard worker keeps
/// up.
constexpr double OpenTrialSeconds = 1.0;
constexpr double OpenMinTrialSeconds = 0.25;
/// kv-drain requests per generator of the full configuration; the
/// smallest configuration serves the same total from one generator.
constexpr uint64_t DrainRequestsPerGen = 1'000'000;
/// A rate whose exponential gaps round to 0 ns: the whole schedule is due
/// at t=0.
constexpr double DueAtOnce = 1e15;
/// One traced request in this many gets spans (~800 per open-loop trial,
/// ~8k per drain); stage latencies cover every request.
constexpr uint32_t SpanSampling = 256;

enum class Shape { Open, Drain };

/// Per-request stamps of one generator's schedule, in nanoseconds since
/// the trial's epoch (0 = never happened). Each slot has one writer: the
/// generator writes Sent/SendDone, the shard worker Dequeued/Done. The
/// stage stamps are taken only in a traced trial.
struct Stamps {
  std::vector<uint64_t> Sent, SendDone, Dequeued, Done;
};

struct ServeState {
  KVStore *Store = nullptr;
  std::vector<std::unique_ptr<Channel>> Chans; ///< one per shard worker
  std::vector<std::vector<Request>> Schedules; ///< one per generator
  std::vector<Stamps> Stamped;                 ///< one per generator
  bool StampStages = false;
  Clock::time_point Epoch, MainEnd;
  JoinCounter Join;
};

uint64_t sinceEpoch(const ServeState &St) {
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - St.Epoch)
                .count();
  return Ns > 0 ? static_cast<uint64_t>(Ns) : 1;
}

/// A request crosses its channel as (generator << 32) | index; negative
/// is the poison each generator sends every worker when it is done.
constexpr int64_t Poison = -1;

void workerTask(Runtime &, VProc &VP, Task T) {
  auto &St = *static_cast<ServeState *>(T.Ctx);
  Channel &Chan = *St.Chans[static_cast<std::size_t>(T.A)];
  std::size_t Poisons = 0;
  while (Poisons < St.Schedules.size()) {
    const int64_t Tok = Chan.recv(VP).asInt();
    if (Tok < 0) {
      ++Poisons;
      continue;
    }
    const auto Gen = static_cast<std::size_t>(Tok >> 32);
    const auto Idx = static_cast<std::size_t>(Tok & 0xffffffff);
    Stamps &S = St.Stamped[Gen];
    if (St.StampStages)
      S.Dequeued[Idx] = sinceEpoch(St);
    const Request &R = St.Schedules[Gen][Idx];
    switch (R.Op) {
    case OpKind::Get:
      St.Store->get(VP, R.Key);
      break;
    case OpKind::Put:
      St.Store->put(VP, R.Key, R.ValueBytes);
      break;
    case OpKind::Delete:
      St.Store->erase(VP, R.Key);
      break;
    }
    S.Done[Idx] = sinceEpoch(St);
  }
  St.Join.sub();
}

/// Paces generator \p G's schedule like runServing: polls (so collections
/// and steal requests are answered) until each request is due, then sends
/// it to its shard's channel.
void generate(VProc &VP, ServeState &St, unsigned G) {
  const std::vector<Request> &Sched = St.Schedules[G];
  Stamps &S = St.Stamped[G];
  for (uint32_t I = 0; I < Sched.size(); ++I) {
    const Request &R = Sched[I];
    uint64_t Now;
    while ((Now = sinceEpoch(St)) < R.ScheduledNanos) {
      VP.poll();
      if (R.ScheduledNanos - Now > 50000)
        std::this_thread::yield();
    }
    if (St.StampStages)
      S.Sent[I] = Now;
    const int64_t Tok = (static_cast<int64_t>(G) << 32) | I;
    St.Chans[St.Store->shardOf(R.Key)]->send(VP, Value::fromInt(Tok));
    if (St.StampStages)
      S.SendDone[I] = sinceEpoch(St);
  }
  for (auto &Chan : St.Chans)
    Chan->send(VP, Value::fromInt(Poison));
}

void generatorTask(Runtime &, VProc &VP, Task T) {
  auto &St = *static_cast<ServeState *>(T.Ctx);
  generate(VP, St, static_cast<unsigned>(T.A));
  St.Join.sub();
}

void serveMain(Runtime &, VProc &VP, void *Ctx) {
  auto &St = *static_cast<ServeState *>(Ctx);
  const auto W = static_cast<unsigned>(St.Chans.size());
  St.Epoch = Clock::now();
  St.Join.add(2 * W - 1);
  for (unsigned I = 0; I < W; ++I)
    VP.spawn(Task{&workerTask, &St, Value::nil(), static_cast<int64_t>(I), 0,
                  St.Store->shardHome(I)});
  for (unsigned G = 1; G < W; ++G)
    VP.spawn(Task{&generatorTask, &St, Value::nil(), static_cast<int64_t>(G),
                  0, Task::NoAffinity});
  generate(VP, St, 0); // generator 0 runs on the main vproc
  VP.joinWait(St.Join);
  St.MainEnd = Clock::now();
}

void preloadMain(Runtime &, VProc &VP, void *Ctx) {
  auto &Store = *static_cast<KVStore *>(Ctx);
  for (uint64_t K = 0; K < KeySpace; ++K)
    Store.put(VP, K, ValueBytes);
}

void verifyMain(Runtime &, VProc &VP, void *Ctx) {
  auto &Store = *static_cast<KVStore *>(Ctx);
  for (uint64_t K = 0; K < KeySpace; ++K)
    Store.get(VP, K);
}

/// p50 and p99 of \p V (microseconds) as "<Name>_p50_us"/"_p99_us".
void addPercentiles(Unit &U, const std::string &Name, std::vector<double> &V) {
  U.Values.push_back({Name + "_p50_us", percentile(V, 50), "us"});
  U.Values.push_back({Name + "_p99_us", percentile(V, 99), "us"});
}

double micros(uint64_t From, uint64_t To) {
  return To > From ? static_cast<double>(To - From) / 1e3 : 0.0;
}

/// Stage latencies of every request and spans for one in SpanSampling.
void addStages(const Options &O, Unit &U, const ServeState &St,
               unsigned Pair) {
  std::vector<double> Lag, Send, Queue, Service, ByOp[3];
  const char *const OpSpan[3] = {"service.get", "service.put",
                                 "service.erase"};
  TraceLog *Trace = O.Trace;
  const uint64_t Epoch = Trace->at(St.Epoch);
  for (unsigned I = 0; I < St.Schedules.size(); ++I) {
    Trace->trackName(100 + I, "generator " + std::to_string(I));
    Trace->trackName(200 + I, "worker " + std::to_string(I));
  }
  for (std::size_t G = 0; G < St.Schedules.size(); ++G) {
    const Stamps &S = St.Stamped[G];
    for (std::size_t I = 0; I < St.Schedules[G].size(); ++I) {
      const Request &R = St.Schedules[G][I];
      if (!S.Done[I])
        continue;
      const auto Op = static_cast<std::size_t>(R.Op);
      Lag.push_back(micros(R.ScheduledNanos, S.Sent[I]));
      Send.push_back(micros(S.Sent[I], S.SendDone[I]));
      Queue.push_back(micros(S.Sent[I], S.Dequeued[I]));
      Service.push_back(micros(S.Dequeued[I], S.Done[I]));
      ByOp[Op].push_back(Service.back());
      if (I % SpanSampling)
        continue;
      const unsigned GenTid = 100 + static_cast<unsigned>(G);
      const unsigned WorkerTid = 200 + St.Store->shardOf(R.Key);
      const uint64_t Id = (static_cast<uint64_t>(Pair) << 40) |
                          (static_cast<uint64_t>(G) << 32) | I;
      const int Root = Trace->span("request", GenTid, Epoch + R.ScheduledNanos,
                                   Epoch + S.Done[I], -1, Id);
      Trace->span("request.lag", GenTid, Epoch + R.ScheduledNanos,
                  Epoch + S.Sent[I], Root, Id);
      Trace->span("channel.send", GenTid, Epoch + S.Sent[I],
                  Epoch + S.SendDone[I], Root, Id);
      Trace->span("request.queue", WorkerTid, Epoch + S.Sent[I],
                  Epoch + S.Dequeued[I], Root, Id);
      Trace->span(OpSpan[Op], WorkerTid, Epoch + S.Dequeued[I],
                  Epoch + S.Done[I], Root, Id);
    }
  }
  addPercentiles(U, "request.lag", Lag);
  addPercentiles(U, "request.queue", Queue);
  addPercentiles(U, "request.send", Send);
  addPercentiles(U, "service", Service);
  addPercentiles(U, "service.get", ByOp[0]);
  addPercentiles(U, "service.put", ByOp[1]);
  addPercentiles(U, "service.erase", ByOp[2]);
}

Unit kvUnit(const Options &O, Shape Sh, Config C, unsigned Pair,
            bool Traced) {
  Unit U;
  U.Cfg = C;
  U.Traced = Traced;
  const unsigned W = C == Config::Min ? 1 : O.NProc / 2;

  TrafficConfig Traffic;
  Traffic.Seed = O.Seed * 1000003 + Pair;
  Traffic.KeySpace = KeySpace;
  Traffic.ValueBytes = ValueBytes;
  if (Sh == Shape::Open) {
    Traffic.RatePerGen = OpenLoopRps / W;
    Traffic.RequestsPerGen = static_cast<uint64_t>(
        OpenLoopRps *
        (C == Config::Min ? OpenMinTrialSeconds : OpenTrialSeconds) / W);
  } else {
    Traffic.RatePerGen = DueAtOnce;
    Traffic.RequestsPerGen = DrainRequestsPerGen * (O.NProc / 2) / W;
  }

  const Clock::time_point T0 = Clock::now();
  RuntimeConfig Cfg;
  Cfg.NumVProcs = 2 * W;
  Runtime RT(Cfg, *O.Host);
  const Clock::time_point T1 = Clock::now();
  {
    KVStore Store(RT, W);
    ServeState St;
    St.Store = &Store;
    St.StampStages = Traced;
    for (unsigned I = 0; I < W; ++I) {
      St.Chans.push_back(std::make_unique<Channel>(RT));
      St.Schedules.push_back(buildSchedule(Traffic, I));
      Stamps &S = St.Stamped.emplace_back();
      S.Done.assign(Traffic.RequestsPerGen, 0);
      if (Traced) {
        S.Sent.assign(Traffic.RequestsPerGen, 0);
        S.SendDone.assign(Traffic.RequestsPerGen, 0);
        S.Dequeued.assign(Traffic.RequestsPerGen, 0);
      }
    }
    RT.run(&preloadMain, &Store);
    const Clock::time_point T2 = Clock::now();
    RT.run(&serveMain, &St);
    const Clock::time_point T3 = Clock::now();
    const uint64_t Misses = Store.misses();
    RT.run(&verifyMain, &Store);
    const Clock::time_point T4 = Clock::now();

    std::vector<double> Latency;
    Latency.reserve(W * Traffic.RequestsPerGen);
    uint64_t LastDone = 0;
    for (std::size_t G = 0; G < W; ++G)
      for (std::size_t I = 0; I < Traffic.RequestsPerGen; ++I)
        if (uint64_t Done = St.Stamped[G].Done[I]) {
          Latency.push_back(micros(St.Schedules[G][I].ScheduledNanos, Done));
          LastDone = std::max(LastDone, Done);
        }
    U.Attempted = W * Traffic.RequestsPerGen;
    U.Failed = Store.corruptions() + (U.Attempted - Latency.size());
    U.Work = static_cast<double>(Latency.size());
    U.Stages = {{"setup.runtime", T0, T1},
                {"setup.input", T1, T2},
                {"kernel", St.Epoch,
                 St.Epoch + std::chrono::nanoseconds(LastDone)},
                {"drain", St.MainEnd, T3},
                {"verify", T3, T4}};
    const double Count = static_cast<double>(Latency.size());
    U.Values = {
        {"p50_us", percentile(Latency, 50), "us"},
        {"p99_us", percentile(Latency, 99), "us"},
        {"p999_us", percentile(Latency, 99.9), "us"},
        {"request.count", Count, "count"},
        {"request.achieved_rps", Count / U.kernelSeconds(), "1/s"},
        {"service.misses", static_cast<double>(Misses), "count"},
    };
    if (Traced)
      addStages(O, U, St, Pair);
  }
  addLayerCounters(U, RT, Traced ? O.Trace : nullptr);
  if (Traced)
    traceStages(*O.Trace, U, "trial");
  return U;
}

Outcome runKv(const Options &O, Shape Sh) {
  std::vector<Unit> Units =
      runPairs(O, [&](Config C, unsigned Pair, bool Traced) {
        return kvUnit(O, Sh, C, Pair, Traced);
      });
  // The open loop's user-visible cost is its median latency; the drain's
  // is its time.
  Outcome Out = summarize(O, Units, [Sh](const Unit &U) {
    return Sh == Shape::Open ? U.value("p50_us") : U.kernelSeconds();
  });
  if (O.Trace) {
    // Do the stage medians account for the end-to-end median? Percentiles
    // do not add exactly, so ~10% is the expected agreement.
    const double P50 = medianValue(Units, "p50_us", true);
    const double Sum = medianValue(Units, "request.lag_p50_us", true) +
                       medianValue(Units, "request.queue_p50_us", true) +
                       medianValue(Units, "service_p50_us", true);
    Out.Extra.push_back({"stage_p50_sum_us", Sum, "us"});
    Out.Extra.push_back({"stage_p50_residual_us", P50 - Sum, "us"});
    Out.Extra.push_back(
        {"stage_p50_within_10pct",
         P50 > 0 && std::abs(P50 - Sum) <= 0.1 * P50 ? 1.0 : 0.0, "bool"});
    return Out;
  }
  // The tail percentiles are printed, not in the result line: they
  // amplify the host's drift in global-GC pause length 2-3x, and their
  // run-to-run spread (20-40%) is wider than any regression bound.
  for (const char *Name : {"p99_us", "p999_us"})
    Out.Extra.push_back({Name, medianValue(Units, Name, false), "us"});
  Out.Extra.push_back(
      {"samples", medianValue(Units, "request.count", false), "count"});
  const double Rps = medianValue(Units, "request.achieved_rps", false);
  if (Sh == Shape::Open) {
    Out.Extra.push_back({"offered_rps", OpenLoopRps, "1/s"});
    Out.Extra.push_back({"achieved_rps", Rps, "1/s"});
  } else {
    Out.Extra.push_back({"capacity_rps", Rps, "1/s"});
  }
  return Out;
}

} // namespace

Outcome bench::runKvOpen(const Options &O) { return runKv(O, Shape::Open); }
Outcome bench::runKvDrain(const Options &O) { return runKv(O, Shape::Drain); }
