//===- benchmark/src/Trace.cpp --------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <map>
#include <string_view>

using namespace bench;

uint64_t TraceLog::at(Clock::time_point T) const {
  if (T <= Origin)
    return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
          .count());
}

int TraceLog::span(const char *Name, unsigned Tid, uint64_t StartNs,
                   uint64_t EndNs, int Parent, uint64_t Id) {
  Spans.push_back({Name, Tid, Parent, Id, StartNs, std::max(StartNs, EndNs)});
  return static_cast<int>(Spans.size() - 1);
}

void TraceLog::counters(const char *Name, uint64_t AtNs,
                        std::vector<std::pair<const char *, double>> Values) {
  Counters.push_back({Name, AtNs, std::move(Values)});
}

void TraceLog::trackName(unsigned Tid, std::string Name) {
  for (auto &[T, N] : Tracks)
    if (T == Tid)
      return;
  Tracks.emplace_back(Tid, std::move(Name));
}

bool TraceLog::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool First = true;
  auto Sep = [&] {
    if (!First)
      std::fputs(",\n", F);
    First = false;
  };
  for (const auto &[Tid, Name] : Tracks) {
    Sep();
    std::fprintf(F,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 Tid, Name.c_str());
  }
  for (const Span &S : Spans) {
    Sep();
    // The viewer's category is the layer: the name up to its first '.'.
    std::string_view Cat = std::string_view(S.Name).substr(
        0, std::string_view(S.Name).find('.'));
    std::fprintf(F,
                 "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%.*s\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 S.Name, static_cast<int>(Cat.size()), Cat.data(), S.Tid,
                 static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Id));
  }
  for (const Counter &C : Counters) {
    Sep();
    std::fprintf(F,
                 "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":1,\"tid\":0,"
                 "\"ts\":%.3f,\"args\":{",
                 C.Name, static_cast<double>(C.AtNs) / 1e3);
    for (std::size_t I = 0; I < C.Values.size(); ++I)
      std::fprintf(F, "%s\"%s\":%.17g", I ? "," : "", C.Values[I].first,
                   C.Values[I].second);
    std::fputs("}}", F);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

std::vector<TraceLog::SelfTime> TraceLog::selfTimes() const {
  // Children of each span, clipped to the parent's interval; self time is
  // the parent's duration minus the union of those intervals.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const Span &S : Spans) {
    if (S.Parent < 0)
      continue;
    const Span &P = Spans[static_cast<std::size_t>(S.Parent)];
    uint64_t Lo = std::max(S.StartNs, P.StartNs);
    uint64_t Hi = std::min(S.EndNs, P.EndNs);
    if (Lo < Hi)
      Kids[static_cast<std::size_t>(S.Parent)].emplace_back(Lo, Hi);
  }
  std::map<std::string_view, SelfTime> ByName;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, Reach = S.StartNs;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    SelfTime &T = ByName[S.Name];
    T.Name = S.Name;
    T.Count++;
    T.TotalMs += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    T.SelfMs += static_cast<double>(S.EndNs - S.StartNs - Covered) / 1e6;
  }
  std::vector<SelfTime> Out;
  for (auto &[Name, T] : ByName)
    Out.push_back(T);
  std::sort(Out.begin(), Out.end(), [](const SelfTime &A, const SelfTime &B) {
    return A.SelfMs > B.SelfMs;
  });
  return Out;
}

void TraceLog::printSelfTimes(std::FILE *Out) const {
  std::fprintf(Out, "%-20s %9s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const SelfTime &T : selfTimes())
    std::fprintf(Out, "%-20s %9llu %12.3f %12.3f\n", T.Name,
                 static_cast<unsigned long long>(T.Count), T.TotalMs,
                 T.SelfMs);
}
