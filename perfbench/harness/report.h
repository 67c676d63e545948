#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM) since it started or
/// since the last ResetPeakRss(), in MiB.
double PeakRssMib();
/// Current resident set size (VmRSS), in MiB.
double RssMib();
/// Returns freed heap memory to the system, then lowers the peak resident
/// set size to the current one, so set-up's transient allocations do not
/// count in the timed phase's peak.
void ResetPeakRss();

/// Seconds on a monotonic clock since an arbitrary fixed origin.
double NowSeconds();

/// Spreads a run over every CPU the process may use. On a shared host one
/// CPU can run ~1.5x slower than another for seconds at a time, and the
/// scheduler keeps a busy thread where it is, so without this a whole run
/// measures whichever CPU it happened to start on. Each call moves the
/// calling thread to the next allowed CPU, then lifts the restriction
/// again, so the thread stays there until the scheduler rebalances and
/// threads it starts later may run anywhere.
class CpuRotation {
 public:
  CpuRotation();
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// An insertion-ordered set of named measurements with units.
class MetricSet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Adds or overwrites `name`.
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::vector<Entry> entries_;
};

/// Everything one benchmark run measured. main() prints `report`
/// lines for humans, then one final JSON line with the gated metrics.
struct Outcome {
  int64_t attempted = 0;
  /// Requests that errored, were refused, or returned a wrong answer.
  int64_t failed = 0;
  /// The first few failure descriptions.
  std::vector<std::string> errors;
  /// Untraced end-to-end metrics (printed with --trace 0).
  MetricSet end_to_end;
  /// Per-layer attribution from the traced run (printed with --trace 1).
  MetricSet per_layer;
  /// Report-only figures: not gated, printed on the report lines.
  MetricSet extra;
  /// Totals over the timed phase that must not depend on tracing: cache
  /// hits/misses, work counters, and a digest of every answer.
  std::vector<std::pair<std::string, std::string>> invariants;

  void Fail(const std::string& message);
};

/// Number formatting that round-trips a double (JSON has no inf/nan: those
/// render as null).
std::string FormatNumber(double value);
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
