#include "spans.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "common/error.h"

namespace flashgen::perf {

namespace {

struct Event {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

// Extracts the value following `"key": ` on a trace line.
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = line.find(tag);
  FG_CHECK(at != std::string::npos, "trace line lacks \"" << key << "\": " << line);
  std::size_t begin = at + tag.size();
  if (line[begin] == '"') {
    const std::size_t end = line.find('"', begin + 1);
    FG_CHECK(end != std::string::npos, "unterminated string in trace line: " << line);
    return line.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

}  // namespace

SpanTotals SpanSummary::at(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? SpanTotals{} : it->second;
}

double SpanSummary::self_with_prefix(const std::string& prefix) const {
  double s = 0.0;
  for (const auto& [name, totals] : spans) {
    if (name.compare(0, prefix.size(), prefix) == 0) s += totals.self_s;
  }
  return s;
}

SpanSummary aggregate_spans(const std::string& path, const std::string& root) {
  std::ifstream in(path);
  FG_CHECK(in.good(), "cannot read trace " << path);
  std::map<int, std::vector<Event>> by_thread;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    Event e;
    e.name = field(line, "name");
    e.ts_us = std::strtod(field(line, "ts").c_str(), nullptr);
    e.dur_us = std::strtod(field(line, "dur").c_str(), nullptr);
    by_thread[std::atoi(field(line, "tid").c_str())].push_back(std::move(e));
  }

  // Timestamps carry 1 ns of rounding; a child may appear to end that much
  // after its parent.
  constexpr double kSlackUs = 0.002;
  SpanSummary summary;
  for (auto& [tid, events] : by_thread) {
    // Parents sort before the children they contain: by start, then longest.
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.dur_us > b.dur_us;
    });
    struct Open {
      const Event* event;
      double end_us;
      double children_us;
      bool under_root;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& open) {
      SpanTotals& totals = summary.spans[open.event->name];
      ++totals.count;
      totals.total_s += open.event->dur_us * 1e-6;
      const double self_s = (open.event->dur_us - open.children_us) * 1e-6;
      totals.self_s += self_s;
      if (open.under_root) summary.subtree_self_s += self_s;
      if (open.event->name == root) summary.root_s += open.event->dur_us * 1e-6;
    };
    for (const Event& e : events) {
      while (!stack.empty() && stack.back().end_us <= e.ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      const double end_us = e.ts_us + e.dur_us;
      bool under_root = e.name == root;
      if (!stack.empty()) {
        Open& parent = stack.back();
        parent.children_us += e.dur_us;
        if (end_us > parent.end_us + kSlackUs) ++summary.misnested;
        under_root = under_root || parent.under_root;
      }
      stack.push_back(Open{&e, end_us, 0.0, under_root});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return summary;
}

}  // namespace flashgen::perf
