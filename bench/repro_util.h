// Shared helpers for the repro_* binaries: section banners, paper-style
// release rendering, and a tiny expectation checker that makes every
// repro binary double as a verification pass (paper value vs measured).

#ifndef MDC_BENCH_REPRO_UTIL_H_
#define MDC_BENCH_REPRO_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "anonymize/generalizer.h"
#include "common/metrics.h"
#include "common/run_context.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "common/trace.h"
#include "core/property_vector.h"

namespace mdc::repro {

inline int g_failures = 0;

// Sink paths set by --metrics-out / --trace-out; flushed in Finish().
inline std::string g_metrics_out;
inline std::string g_trace_out;

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void Note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

// Prints "ok" or "MISMATCH" next to a paper-vs-measured comparison and
// tracks failures for the process exit code.
inline void CheckEq(const std::string& what, double paper, double measured,
                    double tolerance = 1e-9) {
  bool ok = std::abs(paper - measured) <= tolerance;
  if (!ok) ++g_failures;
  std::printf("  %-46s paper=%-10s measured=%-10s %s\n", what.c_str(),
              FormatCompact(paper, 4).c_str(),
              FormatCompact(measured, 4).c_str(), ok ? "ok" : "MISMATCH");
}

inline void CheckVec(const std::string& what, const PropertyVector& paper,
                     const PropertyVector& measured) {
  bool ok = paper == measured;
  if (!ok) ++g_failures;
  std::printf("  %-24s\n    paper    = %s\n    measured = %s   %s\n",
              what.c_str(), paper.ToString().c_str(),
              measured.ToString().c_str(), ok ? "ok" : "MISMATCH");
}

// Renders a release the way the paper prints Tables 2-3: generalized
// quasi-identifiers, with the original value of `annotated_column` shown
// in parentheses next to its generalized label.
inline std::string RenderRelease(const Anonymization& anonymization,
                                 size_t annotated_column) {
  TextTable table;
  std::vector<std::string> header = {"#"};
  const Schema& schema = anonymization.release.schema();
  for (const AttributeDef& attr : schema.attributes()) {
    header.push_back(attr.name);
  }
  table.SetHeader(std::move(header));
  for (size_t r = 0; r < anonymization.release.row_count(); ++r) {
    std::vector<std::string> row = {std::to_string(r + 1)};
    for (size_t c = 0; c < schema.attribute_count(); ++c) {
      std::string cell = anonymization.release.cell(r, c).ToString();
      if (c == annotated_column) {
        cell += " (" + anonymization.original->cell(r, c).ToString() + ")";
      }
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  return table.Render();
}

// Budget flags shared by the repro drivers: "--deadline-ms <ms>" and
// "--max-steps <n>" bound the algorithm runs (see docs/error_handling.md);
// "--threads <n>" (accepted when `threads` is non-null) sets the lattice
// searches' worker-thread count (docs/performance.md — results are
// identical for any value; values outside int are rejected, not
// wrapped). "--metrics-out <file>" / "--trace-out <file>" write the
// metrics snapshot / Chrome-trace JSON when the program finishes
// (docs/observability.md). Returns &storage when a budget was requested,
// nullptr otherwise; malformed or unknown arguments terminate with exit
// code 2.
inline RunContext* ParseBudgetFlags(int argc, char** argv,
                                    RunContext& storage,
                                    int* threads = nullptr) {
  bool budgeted = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::optional<int64_t> value;
    if (i + 1 < argc) value = ParseInt64(argv[i + 1]);
    if (flag == "--deadline-ms" && value.has_value() && *value > 0) {
      storage.set_deadline_ms(*value);
      budgeted = true;
    } else if (flag == "--max-steps" && value.has_value() && *value > 0) {
      storage.set_max_steps(static_cast<uint64_t>(*value));
      budgeted = true;
    } else if (flag == "--threads" && threads != nullptr &&
               value.has_value() && std::in_range<int>(*value)) {
      *threads = static_cast<int>(*value);
    } else if (flag == "--metrics-out" && i + 1 < argc) {
      g_metrics_out = argv[i + 1];
    } else if (flag == "--trace-out" && i + 1 < argc) {
      g_trace_out = argv[i + 1];
      trace::Enable();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--deadline-ms <ms>] [--max-steps <n>]%s"
                   " [--metrics-out <file>] [--trace-out <file>]\n",
                   argv[0], threads != nullptr ? " [--threads <n>]" : "");
      std::exit(2);
    }
    ++i;  // Consume the value.
  }
  return budgeted ? &storage : nullptr;
}

// Prints the accumulated RunStats when a budget was in force (no-op for
// unbudgeted runs, so unconditional at the end of main is fine).
inline void ReportRunStats(const RunContext* run) {
  if (run == nullptr) return;
  std::printf("\nrun stats: %s\n",
              RunContext::Stats(run, !run->exhausted().ok())
                  .ToString()
                  .c_str());
}

// True (with a console note) when `result` carries a budget error — the
// repro sections for it should be skipped, not counted as mismatches.
// Any other error still aborts via MDC_CHECK.
template <typename ResultOr>
bool BudgetSkipped(const std::string& what, const ResultOr& result) {
  if (result.ok()) return false;
  MDC_CHECK(result.status().IsBudgetError());
  Note(what + ": skipped — " + result.status().ToString());
  return true;
}

// Exit code for main(): 0 iff every CheckEq/CheckVec passed. Also flushes
// the --metrics-out / --trace-out sinks (failures there only warn: the
// repro verdict should not flip on an unwritable sink path).
inline int Finish() {
  if (!g_metrics_out.empty()) {
    if (Status status = metrics::WriteSnapshotFile(g_metrics_out);
        !status.ok()) {
      std::fprintf(stderr, "warning: --metrics-out: %s\n",
                   status.ToString().c_str());
    }
  }
  if (!g_trace_out.empty()) {
    trace::Disable();
    if (Status status = trace::WriteChromeTrace(g_trace_out); !status.ok()) {
      std::fprintf(stderr, "warning: --trace-out: %s\n",
                   status.ToString().c_str());
    }
  }
  if (g_failures == 0) {
    std::printf("\nAll reproduced values match the paper.\n");
    return 0;
  }
  std::printf("\n%d MISMATCH(es) against the paper.\n", g_failures);
  return 1;
}

}  // namespace mdc::repro

#endif  // MDC_BENCH_REPRO_UTIL_H_
