//===- gc/GCReport.cpp -----------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "gc/GCReport.h"

#include "support/Stats.h"

#include <cmath>
#include <cstdio>

using namespace manti;

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

namespace {

/// Section names become key prefixes: "global heap" -> "global_heap.".
std::string sanitizeKey(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name)
    Out += (C == ' ' || C == '-') ? '_' : C;
  return Out;
}

std::string formatValue(double V, Report::Unit U) {
  char Buf[48];
  switch (U) {
  case Report::Unit::Bytes:
    formatBytes(V < 0 ? 0 : static_cast<uint64_t>(V), Buf, sizeof(Buf));
    break;
  case Report::Unit::Micros:
    std::snprintf(Buf, sizeof(Buf), "%.1f us", V);
    break;
  case Report::Unit::Millis:
    std::snprintf(Buf, sizeof(Buf), "%.1f ms", V);
    break;
  case Report::Unit::Percent:
    std::snprintf(Buf, sizeof(Buf), "%.1f%%", V);
    break;
  case Report::Unit::Seconds:
    std::snprintf(Buf, sizeof(Buf), "%.3f s", V);
    break;
  case Report::Unit::Count:
    if (std::floor(V) == V && std::fabs(V) < 1e15)
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(V));
    else
      std::snprintf(Buf, sizeof(Buf), "%.2f", V);
    break;
  }
  return Buf;
}

} // namespace

Report &Report::section(std::string Name) {
  Sections.push_back(std::move(Name));
  return *this;
}

Report &Report::metric(std::string Key, double V, Unit U,
                       std::string Label) {
  Entry E;
  E.IsNote = false;
  E.Label = Label.empty() ? sanitizeKey(Key) : std::move(Label);
  if (Label.empty())
    for (char &C : E.Label)
      if (C == '_')
        C = '-';
  std::string Prefix =
      Sections.empty() ? "" : sanitizeKey(Sections.back()) + ".";
  E.Key = Prefix + std::move(Key);
  E.V = V;
  E.U = U;
  E.Section = Sections.empty() ? ~std::size_t{0} : Sections.size() - 1;
  Entries.push_back(std::move(E));
  return *this;
}

Report &Report::note(std::string Text) {
  Entry E;
  E.IsNote = true;
  E.Label = std::move(Text);
  E.Section = Sections.empty() ? ~std::size_t{0} : Sections.size() - 1;
  Entries.push_back(std::move(E));
  return *this;
}

std::string Report::human() const {
  std::string Out;
  if (!Title.empty())
    Out += "=== " + Title + " ===\n";

  // Render in entry order, emitting each section heading once and
  // wrapping its metrics onto continuation lines.
  std::size_t CurSection = ~std::size_t{0} - 1; // "nothing emitted yet"
  std::string Line;
  auto FlushLine = [&] {
    if (!Line.empty()) {
      Out += Line;
      Out += "\n";
      Line.clear();
    }
  };
  for (const Entry &E : Entries) {
    if (E.IsNote) {
      FlushLine();
      CurSection = ~std::size_t{0} - 1; // a heading reopens after a note
      Out += E.Label;
      Out += "\n";
      continue;
    }
    std::string Item = E.Label + " " + formatValue(E.V, E.U);
    if (E.Section != CurSection) {
      FlushLine();
      CurSection = E.Section;
      std::string Heading =
          E.Section == ~std::size_t{0} ? "" : Sections[E.Section] + ": ";
      Line = Heading + Item;
      continue;
    }
    if (Line.size() + 2 + Item.size() > 78) {
      Line += ",";
      FlushLine();
      Line = "  " + Item;
    } else {
      Line += ", " + Item;
    }
  }
  FlushLine();
  return Out;
}

std::vector<std::pair<std::string, double>> Report::rows() const {
  std::vector<std::pair<std::string, double>> Out;
  Out.reserve(Entries.size());
  for (const Entry &E : Entries)
    if (!E.IsNote)
      Out.emplace_back(E.Key, E.V);
  return Out;
}

double Report::value(const std::string &FullKey, double Fallback) const {
  for (const Entry &E : Entries)
    if (!E.IsNote && E.Key == FullKey)
      return E.V;
  return Fallback;
}

bool Report::has(const std::string &FullKey) const {
  for (const Entry &E : Entries)
    if (!E.IsNote && E.Key == FullKey)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

Report manti::buildGCReport(GCWorld &World) {
  Report R("manticore-gc report");
  GCStats S = World.aggregateStats();

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "vprocs: %u on %s (%u nodes, policy %s)",
                World.numVProcs(), World.topology().name().c_str(),
                World.topology().numNodes(),
                allocPolicyName(World.policy().kind()));
  R.note(Buf);

  R.section("allocation")
      .metric("local_bytes", static_cast<double>(S.BytesAllocatedLocal),
              Report::Unit::Bytes, "local")
      .metric("global_bytes", static_cast<double>(S.BytesAllocatedGlobal),
              Report::Unit::Bytes, "global");

  auto Phase = [&](const char *Name, const DurationStat &D, uint64_t Bytes,
                   const char *CopiedLabel) -> Report & {
    return R.section(Name)
        .metric("collections", static_cast<double>(D.count()))
        .metric("copied_bytes", static_cast<double>(Bytes),
                Report::Unit::Bytes, CopiedLabel)
        .metric("mean_pause_us", D.meanNanos() / 1e3, Report::Unit::Micros,
                "pauses mean")
        .metric("max_pause_us", static_cast<double>(D.maxNanos()) / 1e3,
                Report::Unit::Micros, "max");
  };
  Phase("minor", S.MinorPause, S.MinorBytesCopied, "copied");
  Phase("major", S.MajorPause, S.MajorBytesPromoted, "promoted");
  Phase("promotion", S.PromotePause, S.PromoteBytes, "promoted");
  Phase("global", S.GlobalPause, S.GlobalBytesCopied, "copied")
      .metric("completed", static_cast<double>(World.globalGCCount()),
              Report::Unit::Count, "completed collections")
      .metric("concurrent", static_cast<double>(World.concurrentGCCount()),
              Report::Unit::Count, "concurrent cycles")
      .metric("peak_live_bytes", static_cast<double>(World.peakLiveBytes()),
              Report::Unit::Bytes, "peak live after a collection");

  // The serving-workload headline: the longest single mutator pause of
  // any phase (GCStats::maxPauseNanos), broken down by what the global
  // collection spent it on. For a concurrent cycle, mark_us covers only
  // the stopped terminal re-mark -- the bulk of tracing overlaps
  // mutation and never appears as pause. safepoint_us is the longest
  // stop-the-world time-to-safepoint (mutator time the others wait
  // out), and safepoint_vproc the vproc that took it. mark_minflt and
  // mark_sys_us are the stop-the-world copy's kernel cost, summed over
  // vprocs and collections (GCStats::GlobalMarkMinorFaults).
  unsigned Slowest = 0;
  for (unsigned I = 1; I < World.numVProcs(); ++I)
    if (World.heap(I).Stats.GlobalSafepointWait.maxNanos() >
        World.heap(Slowest).Stats.GlobalSafepointWait.maxNanos())
      Slowest = I;
  R.section("pause")
      .metric("max_us", static_cast<double>(S.maxPauseNanos()) / 1e3,
              Report::Unit::Micros, "max (all phases)")
      .metric("rendezvous_us",
              static_cast<double>(S.GlobalRendezvousPause.maxNanos()) / 1e3,
              Report::Unit::Micros, "max rendezvous")
      .metric("mark_us",
              static_cast<double>(S.GlobalMarkPause.maxNanos()) / 1e3,
              Report::Unit::Micros, "max stopped mark")
      .metric("mark_minflt", static_cast<double>(S.GlobalMarkMinorFaults),
              Report::Unit::Count, "copy minor faults (total)")
      .metric("mark_sys_us", static_cast<double>(S.GlobalMarkSysNanos) / 1e3,
              Report::Unit::Micros, "copy system time (total)")
      .metric("sweep_us",
              static_cast<double>(S.GlobalSweepPause.maxNanos()) / 1e3,
              Report::Unit::Micros, "max sweep")
      .metric("safepoint_us",
              static_cast<double>(S.GlobalSafepointWait.maxNanos()) / 1e3,
              Report::Unit::Micros, "max time-to-safepoint")
      .metric("safepoint_vproc", static_cast<double>(Slowest),
              Report::Unit::Count, "slowest vproc");

  ChunkManager &CM = World.chunks();
  R.section("global heap")
      .metric("chunks_created", static_cast<double>(CM.numChunksCreated()),
              Report::Unit::Count, "chunks created")
      .metric("batch_chunks", static_cast<double>(CM.batchChunks()),
              Report::Unit::Count, "batch/mapping")
      .metric("node_local_reuses", static_cast<double>(CM.nodeLocalReuses()),
              Report::Unit::Count, "node-local reuses")
      .metric("cross_node_steals", static_cast<double>(CM.crossNodeSteals()),
              Report::Unit::Count, "cross-node steals")
      .metric("fresh_mappings", static_cast<double>(CM.freshRegistrations()))
      .metric("active_bytes", static_cast<double>(CM.activeBytes()),
              Report::Unit::Bytes, "active")
      .metric("trigger_bytes",
              static_cast<double>(World.globalGCThresholdBytes()),
              Report::Unit::Bytes, "trigger at");
  R.section("chunk requests")
      .metric("node_local", static_cast<double>(S.ChunkLocalReuses),
              Report::Unit::Count, "node-local")
      .metric("cross_node_steals",
              static_cast<double>(S.ChunkCrossNodeSteals),
              Report::Unit::Count, "cross-node steals")
      .metric("fresh", static_cast<double>(S.ChunkFreshRegistrations));

  TrafficMatrix &T = World.traffic();
  uint64_t Total = T.totalBytes();
  if (Total > 0) {
    R.section("inter-node traffic")
        .metric("total_bytes", static_cast<double>(Total),
                Report::Unit::Bytes, "total")
        .metric("remote_pct",
                100.0 * static_cast<double>(T.remoteBytes()) /
                    static_cast<double>(Total),
                Report::Unit::Percent, "remote");
    unsigned N = World.topology().numNodes();
    for (NodeId To = 0; To < N; ++To) {
      char Key[32], Label[32];
      std::snprintf(Key, sizeof(Key), "into_node_%u_bytes", To);
      std::snprintf(Label, sizeof(Label), "into node %u", To);
      R.metric(Key, static_cast<double>(T.bytesInto(To)),
               Report::Unit::Bytes, Label);
    }
  }
  return R;
}

Report manti::buildGCReport(GCWorld &World, const SchedStats &Sched) {
  Report R = buildGCReport(World);
  R.section("scheduler")
      .metric("spawns", static_cast<double>(Sched.Spawns))
      .metric("tasks_stolen", static_cast<double>(Sched.TasksStolen),
              Report::Unit::Count, "tasks stolen")
      .metric("steal_batches", static_cast<double>(Sched.StealBatches),
              Report::Unit::Count, "batches")
      .metric("mean_steal_batch", Sched.meanStealBatch(),
              Report::Unit::Count, "mean/batch")
      .metric("node_local_batches",
              static_cast<double>(Sched.NodeLocalBatches),
              Report::Unit::Count, "node-local batches")
      .metric("cross_node_batches",
              static_cast<double>(Sched.CrossNodeBatches),
              Report::Unit::Count, "cross-node batches")
      .metric("node_local_pct", 100.0 * Sched.nodeLocalFraction(),
              Report::Unit::Percent, "node-local share")
      .metric("stolen_env_bytes", static_cast<double>(Sched.StolenEnvBytes),
              Report::Unit::Bytes, "stolen-env")
      .metric("failed_steal_rounds",
              static_cast<double>(Sched.FailedStealRounds),
              Report::Unit::Count, "failed steal rounds")
      .metric("failed_steal_attempts",
              static_cast<double>(Sched.FailedStealAttempts),
              Report::Unit::Count, "failed attempts")
      .metric("parks", static_cast<double>(Sched.Parks),
              Report::Unit::Count, "parked")
      .metric("park_ms", static_cast<double>(Sched.ParkNanos) / 1e6,
              Report::Unit::Millis, "park time")
      .metric("ring_wakeups", static_cast<double>(Sched.RingWakeups),
              Report::Unit::Count, "ring wake-ups")
      .metric("park_timeouts", static_cast<double>(Sched.ParkTimeouts),
              Report::Unit::Count, "park timeouts")
      .metric("mean_wake_us", Sched.meanRingWakeupMicros(),
              Report::Unit::Micros, "mean wake latency")
      .metric("rings_sent", static_cast<double>(Sched.RingsSent),
              Report::Unit::Count, "rings sent")
      .metric("rings_wasted", static_cast<double>(Sched.RingsWasted),
              Report::Unit::Count, "rings wasted")
      .metric("affinity_handoffs",
              static_cast<double>(Sched.AffinityHandoffs),
              Report::Unit::Count, "affinity-matched handoffs")
      .metric("patience_raises", static_cast<double>(Sched.PatienceRaises),
              Report::Unit::Count, "patience raises")
      .metric("patience_drops", static_cast<double>(Sched.PatienceDrops),
              Report::Unit::Count, "patience drops");
  return R;
}
