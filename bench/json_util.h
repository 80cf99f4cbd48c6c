#ifndef MLCS_BENCH_JSON_UTIL_H_
#define MLCS_BENCH_JSON_UTIL_H_

// Minimal streaming JSON writer for the custom benchmark harnesses (fig1,
// ablation_serving). The google-benchmark binaries get their JSON from the
// library's own JSONReporter (see bench_main.h); this exists so the custom
// harnesses emit the same machine-readable BENCH_<name>.json artifacts.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace mlcs::bench {

class JsonWriter {
 public:
  void BeginObject() {
    Comma();
    out_ << '{';
    stack_.push_back(true);
  }
  void EndObject() {
    out_ << '}';
    stack_.pop_back();
  }
  void BeginArray() {
    Comma();
    out_ << '[';
    stack_.push_back(true);
  }
  void EndArray() {
    out_ << ']';
    stack_.pop_back();
  }
  void Key(const std::string& name) {
    Comma();
    WriteString(name);
    out_ << ':';
    pending_value_ = true;
  }
  void Value(const std::string& v) {
    Comma();
    WriteString(v);
  }
  void Value(const char* v) { Value(std::string(v)); }
  void Value(double v) {
    Comma();
    std::ostringstream s;
    s.precision(12);
    s << v;
    out_ << s.str();
  }
  void Value(uint64_t v) {
    Comma();
    out_ << v;
  }
  void Value(int v) {
    Comma();
    out_ << v;
  }
  void Value(bool v) {
    Comma();
    out_ << (v ? "true" : "false");
  }

  template <typename T>
  void Field(const std::string& name, T v) {
    Key(name);
    Value(v);
  }

  std::string str() const { return out_.str(); }

  /// Writes the accumulated document to `path` with a trailing newline.
  [[nodiscard]] bool WriteTo(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << out_.str() << '\n';
    return static_cast<bool>(f);
  }

 private:
  void Comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // this value belongs to the key just written
    }
    if (!stack_.empty() && !stack_.back()) out_ << ',';
    if (!stack_.empty()) stack_.back() = false;
  }
  void WriteString(const std::string& s) {
    out_ << '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ << "\\\"";
          break;
        case '\\':
          out_ << "\\\\";
          break;
        case '\n':
          out_ << "\\n";
          break;
        case '\t':
          out_ << "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  /// One flag per open container: true = no element written yet.
  std::vector<bool> stack_;
  bool pending_value_ = false;
};

/// Writes the process-wide metrics registry snapshot as an "mlcs_metrics"
/// object field: series name → value. Every BENCH_<name>.json carries this
/// block (scripts/check.sh --bench-smoke asserts it), so a result file
/// always records the cache/pool/serving counters behind its timings.
inline void WriteMetricsBlock(JsonWriter* w) {
  w->Key("mlcs_metrics");
  w->BeginObject();
  for (const obs::MetricSample& s : obs::MetricsRegistry::Global().Snapshot()) {
    w->Field(s.name, s.value);
  }
  w->EndObject();
}

}  // namespace mlcs::bench

#endif  // MLCS_BENCH_JSON_UTIL_H_
