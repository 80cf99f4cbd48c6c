#include "obs/export.h"

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_stats.h"

namespace mlcs::obs {

namespace {

/// Shortest faithful decimal for a telemetry value: integers print without
/// a fraction, everything else gets enough digits to round-trip a reading.
std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v < 1e15 &&
      v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* — the
/// engine's dotted series names map onto it by substitution.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (c >= '0' && c <= '9' && i > 0);
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

/// Exposition-format label-value escaping: backslash, double-quote, and
/// line-feed are the three characters the format reserves.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void AppendSimpleFamily(const std::vector<MetricSample>& samples,
                        const char* type, std::string* out) {
  for (const MetricSample& s : samples) {
    std::string name = SanitizeMetricName(s.name);
    *out += "# TYPE " + name + " " + type + "\n";
    *out += name + " " + FormatValue(s.value) + "\n";
  }
}

void AppendHistogramFamily(const HistogramSnapshot& h, std::string* out) {
  std::string name = SanitizeMetricName(h.name);
  *out += "# TYPE " + name + " histogram\n";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    cumulative += h.counts[i];
    *out += name + "_bucket{le=\"" + FormatValue(h.bounds[i]) + "\"} " +
            FormatValue(static_cast<double>(cumulative)) + "\n";
  }
  cumulative += h.counts.empty() ? 0 : h.counts.back();
  *out += name + "_bucket{le=\"+Inf\"} " +
          FormatValue(static_cast<double>(cumulative)) + "\n";
  *out += name + "_sum " + FormatValue(h.sum) + "\n";
  *out += name + "_count " + FormatValue(static_cast<double>(h.count)) +
          "\n";
}

/// One wait site's counters, merged across duplicate registry slots
/// (WaitStats documents the benign claim race; exporters re-merge).
struct MergedSite {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t buckets[WaitSite::kNumBounds + 1] = {};
};

void AppendWaitFamily(std::string* out) {
  std::map<std::pair<std::string, std::string>, MergedSite> merged;
  for (const WaitSite* site : WaitStats::Global().Sites()) {
    MergedSite& m =
        merged[{WaitKindName(site->kind()), site->name()}];
    m.count += site->Count();
    m.total_ns += site->TotalNs();
    for (size_t i = 0; i <= WaitSite::kNumBounds; ++i) {
      m.buckets[i] += site->BucketCount(i);
    }
  }
  if (merged.empty()) return;
  const double* bounds = WaitSite::BoundsUs();
  *out += "# TYPE mlcs_wait_us histogram\n";
  for (const auto& [key, m] : merged) {
    std::string labels = "kind=\"" + EscapeLabelValue(key.first) +
                         "\",site=\"" + EscapeLabelValue(key.second) + "\"";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < WaitSite::kNumBounds; ++i) {
      cumulative += m.buckets[i];
      *out += "mlcs_wait_us_bucket{" + labels + ",le=\"" +
              FormatValue(bounds[i]) + "\"} " +
              FormatValue(static_cast<double>(cumulative)) + "\n";
    }
    cumulative += m.buckets[WaitSite::kNumBounds];
    *out += "mlcs_wait_us_bucket{" + labels + ",le=\"+Inf\"} " +
            FormatValue(static_cast<double>(cumulative)) + "\n";
    *out += "mlcs_wait_us_sum{" + labels + "} " +
            FormatValue(static_cast<double>(m.total_ns) / 1000.0) + "\n";
    *out += "mlcs_wait_us_count{" + labels + "} " +
            FormatValue(static_cast<double>(m.count)) + "\n";
  }
}

/// Appends `value` to `out` with JSON string escaping (quotes, backslash,
/// control characters). Escapes in place: a span note can be tens of MB.
void AppendEscapedJson(const std::string& value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

std::string PrometheusText() {
  RegistrySnapshot snapshot = MetricsRegistry::Global().StructuredSnapshot();
  std::string out;
  out.reserve(4096);
  AppendSimpleFamily(snapshot.counters, "counter", &out);
  AppendSimpleFamily(snapshot.gauges, "gauge", &out);
  for (const HistogramSnapshot& h : snapshot.histograms) {
    AppendHistogramFamily(h, &out);
  }
  AppendWaitFamily(&out);
  // An export is a natural moment to refresh the crash-visible metrics
  // buffer — a scrape right before a crash leaves a current dump.
  FlightRecorder::RefreshCrashMetrics();
  return out;
}

std::string ChromeTraceJson(uint64_t trace_id) {
  std::vector<TraceSpan> spans = FlightRecorder::Global().Query(trace_id);
  std::string out;
  out.reserve(256 + spans.size() * 160);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out += ",";
    first = false;
    double ts_us = static_cast<double>(s.start_offset.count()) / 1000.0;
    double dur_us = static_cast<double>(s.duration.count()) / 1000.0;
    out += "{\"name\":\"";
    AppendEscapedJson(s.name, &out);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += FormatValue(ts_us);
    out += ",\"dur\":";
    out += FormatValue(dur_us);
    out += ",\"pid\":";
    out += std::to_string(s.trace_id);
    out += ",\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"args\":{\"span_id\":";
    out += std::to_string(s.span_id);
    out += ",\"parent_id\":";
    out += std::to_string(s.parent_id);
    out += ",\"rows_in\":";
    out += std::to_string(s.rows_in);
    out += ",\"rows_out\":";
    out += std::to_string(s.rows_out);
    out += ",\"bytes\":";
    out += std::to_string(s.bytes);
    if (!s.note.empty()) {
      out += ",\"note\":\"";
      AppendEscapedJson(s.note, &out);
      out += "\"";
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status DumpPrometheusText(const std::string& path) {
  std::string text = PrometheusText();
  return AtomicWriteFile(path, text.data(), text.size());
}

Status DumpChromeTrace(uint64_t trace_id, const std::string& path) {
  std::string json = ChromeTraceJson(trace_id);
  return AtomicWriteFile(path, json.data(), json.size());
}

}  // namespace mlcs::obs
