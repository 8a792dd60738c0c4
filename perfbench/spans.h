// Span aggregator: turns a trace file written by trace::stop() (one
// chrome://tracing event per line) into total and self time per span name.
//
// A span's self time is its duration minus the durations of the spans nested
// directly inside it on the same thread. Spans recorded with FG_TRACE_SPAN
// are RAII scopes, so on one thread they nest properly; `misnested` counts
// children that end after their parent (beyond timestamp rounding), which
// would make the self-time split meaningless.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace flashgen::perf {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  // sum of durations
  double self_s = 0.0;   // sum of durations minus directly nested children
};

struct SpanSummary {
  std::map<std::string, SpanTotals> spans;
  /// Sum of self time over every span at or below a `root` span, and the
  /// sum of the root spans' durations. Equal when the nesting is sound.
  double subtree_self_s = 0.0;
  double root_s = 0.0;
  std::uint64_t misnested = 0;

  /// Totals for `name` (zeros when the trace holds no such span).
  SpanTotals at(const std::string& name) const;
  /// Sum of self time over every span whose name starts with `prefix`.
  double self_with_prefix(const std::string& prefix) const;
};

/// Parses the trace file at `path`. `root` names the span whose subtree the
/// additivity check covers (e.g. "serve.infer"). Throws flashgen::Error when
/// the file cannot be read or a span line cannot be parsed.
SpanSummary aggregate_spans(const std::string& path, const std::string& root);

}  // namespace flashgen::perf
