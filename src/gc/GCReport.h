//===- gc/GCReport.h - structured collector/scheduler reports -------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a world's collector statistics -- per-phase counts, bytes,
/// pause times, chunk-manager synchronization classes, scheduler
/// counters, and the inter-node traffic matrix -- from one structured
/// Report. A Report is a named-metric list: the human table and the
/// machine-readable metric rows (bench/GCBenchUtils.h JsonReport) are
/// both rendered from the same entries, so the two can never drift
/// apart. It is the library's equivalent of a runtime's `+RTS -s`
/// output.
///
/// Usage:
/// \code
///   Report R = buildGCReport(World, RT.aggregateSchedStats());
///   std::fputs(R.human().c_str(), stdout);      // the table
///   Json.addRow(Topo, Cfg, R.rows());           // the same metrics
///   double MaxPause = R.value("pause.max_us");  // a single metric
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_GC_GCREPORT_H
#define MANTI_GC_GCREPORT_H

#include "gc/Heap.h"
#include "runtime/SchedStats.h"

#include <string>
#include <utility>
#include <vector>

namespace manti {

/// A structured report: sections of named metrics plus free-form notes.
/// Metric keys are stable identifiers ("minor.collections"); the human
/// rendering groups each section onto wrapped lines, and rows() exposes
/// the identical (key, value) list for JSON emission.
class Report {
public:
  /// How a metric's value is formatted in the human table. The JSON
  /// side always gets the raw double.
  enum class Unit {
    Count,   ///< integer-ish count, "%.0f" (or %.3g when fractional)
    Bytes,   ///< formatBytes ("1.5 MB")
    Micros,  ///< "%.1f us"
    Millis,  ///< "%.1f ms"
    Percent, ///< "%.1f%%"
    Seconds, ///< "%.3f s"
  };

  explicit Report(std::string Title = "") : Title(std::move(Title)) {}

  /// Starts a new section; subsequent metrics get "<name>." key prefixes
  /// and render grouped under one "<name>:" heading.
  Report &section(std::string Name);

  /// Adds a metric to the current section. \p Key is the stable
  /// identifier within the section; \p Label (when empty, derived from
  /// the key with underscores as hyphens) is the human table's word.
  Report &metric(std::string Key, double V, Unit U = Unit::Count,
                 std::string Label = "");

  /// Adds a human-only context line (machine names, policy, captions).
  Report &note(std::string Text);

  /// The human table.
  std::string human() const;

  /// Every (full key, value) pair, in insertion order -- feed directly
  /// to benchutil::JsonReport::addRow.
  std::vector<std::pair<std::string, double>> rows() const;

  /// Looks up a single metric by full key ("pause.max_us"); \returns
  /// \p Fallback when absent.
  double value(const std::string &FullKey, double Fallback = 0.0) const;

  /// \returns true if \p FullKey names a metric in this report.
  bool has(const std::string &FullKey) const;

private:
  struct Entry {
    bool IsNote;        ///< note line vs metric
    std::string Key;    ///< full key (section-qualified); empty for notes
    std::string Label;  ///< human word; note text for notes
    double V = 0;
    Unit U = Unit::Count;
    std::size_t Section; ///< index into Sections; ~0 before any section
  };

  std::string Title;
  std::vector<std::string> Sections;
  std::vector<Entry> Entries;
};

/// Builds the collector report for \p World. Call while the vprocs are
/// quiescent.
Report buildGCReport(GCWorld &World);

/// Collector report plus a scheduler section rendered from \p Sched
/// (typically Runtime::aggregateSchedStats()).
Report buildGCReport(GCWorld &World, const SchedStats &Sched);

} // namespace manti

#endif // MANTI_GC_GCREPORT_H
