// Statistics, the metric report, span bookkeeping and peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common.hpp"
#include "obs/prof.hpp"

namespace perfbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const auto lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

Report::Entry& Report::entry(const std::string& name,
                             const std::string& unit) {
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) order_.push_back(name);
  it->second.unit = unit;
  return it->second;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  entry(name, unit).value = value;
}

void Report::sample(const std::string& name, double value,
                    const std::string& unit) {
  entry(name, unit).samples.push_back(value);
}

void Report::finish() {
  for (auto& [name, e] : entries_) {
    if (!e.samples.empty()) e.value = median(e.samples);
  }
}

double Report::value(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.value;
}

void Report::print_table(std::FILE* out) const {
  std::fprintf(out, "%-36s %16s %-6s %14s %14s %5s\n", "metric", "value",
               "unit", "q1", "q3", "n");
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    if (e.samples.empty()) {
      std::fprintf(out, "%-36s %16.6g %-6s %14s %14s %5d\n", name.c_str(),
                   e.value, e.unit.c_str(), "-", "-", 1);
      continue;
    }
    std::vector<double> s = e.samples;
    const double q1 = quantile(s, 0.25);
    const double q3 = quantile(s, 0.75);
    std::fprintf(out, "%-36s %16.6g %-6s %14.6g %14.6g %5zu\n", name.c_str(),
                 e.value, e.unit.c_str(), q1, q3, e.samples.size());
  }
}

std::string Report::json_metrics() const {
  std::string out = "{";
  char buf[64];
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

void Tracer::absorb(const Tracer& child, std::int32_t parent) {
  if (!enabled_ || parent < 0) return;
  const auto base = std::int32_t(spans_.size());
  for (const Span& span : child.spans_) {
    Span copy = span;
    copy.parent = span.parent < 0 ? parent : span.parent + base;
    spans_.push_back(copy);
  }
}

std::vector<std::uint64_t> Tracer::self_ns() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      kids[std::size_t(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < span.start_ns) continue;  // never closed
    auto& intervals = kids[i];
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = span.start_ns;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, reach);
      hi = std::min(hi, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> Tracer::layer_self_ms() const {
  std::map<std::string, double> out;
  const std::vector<std::uint64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::string layer = spans_[i].name;
    layer = layer.substr(0, layer.find('.'));
    out[layer] += double(self[i]) * 1e-6;
  }
  return out;
}

bool Tracer::write(const std::string& stem) const {
  std::FILE* tsv = std::fopen((stem + ".spans.tsv").c_str(), "w");
  if (tsv == nullptr) return false;
  std::fprintf(tsv, "id\tname\tstart_ns\tend_ns\tparent\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(tsv, "%zu\t%s\t%" PRIu64 "\t%" PRIu64 "\t%d\n", i, s.name,
                 s.start_ns, s.end_ns, int(s.parent));
  }
  const bool tsv_ok = std::fclose(tsv) == 0;

  // Fold self time by root-to-span stack, in lexicographic stack order.
  const std::vector<std::uint64_t> self = self_ns();
  std::vector<std::string> stacks(spans_.size());
  std::map<std::string, std::uint64_t> folded;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int32_t parent = spans_[i].parent;
    stacks[i] = parent < 0 ? spans_[i].name
                           : stacks[std::size_t(parent)] + ";" + spans_[i].name;
    folded[stacks[i]] += self[i] / 1000;
  }
  uap2p::obs::TraceProfile profile;
  for (const auto& [stack, weight] : folded) {
    profile.entries.push_back({stack, weight});
    profile.total_weight += weight;
  }
  std::FILE* out = std::fopen((stem + ".folded").c_str(), "w");
  if (out == nullptr) return false;
  uap2p::obs::write_folded(profile, out);
  return std::fclose(out) == 0 && tsv_ok;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
