#include "measure.h"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "common/trace.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

void ResetPeakRss() {
  // "5" resets the kernel's peak-RSS (VmHWM) counter for this process.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

uint64_t Digest(std::string_view data) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double Samples::Percentile(double q) const {
  if (us_.empty()) return 0;
  std::vector<double> sorted = us_;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ----------------------------------------------------------- JSON

void JsonWriter::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  Quote(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Str(std::string_view value) {
  Separate();
  Quote(value);
  return *this;
}

void JsonWriter::Quote(std::string_view value) {
  out_ += '"';
  for (char c : value) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += ' ';
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Num(double value) {
  Separate();
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  // Shortest round-trip form: every digit the double carries.
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::Int(uint64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Begin() {
  Separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::End() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

// ---------------------------------------------------------- tracing

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->tid = static_cast<uint32_t>(buffers_.size());
  return buffers_.back().get();
}

ScopedSpan::ScopedSpan(Tracer* tracer, Tracer::Buffer* buffer,
                       const char* name, const char* layer) {
  if (tracer == nullptr || buffer == nullptr || !tracer->enabled()) return;
  buffer_ = buffer;
  SpanRecord span;
  span.name = name;
  span.layer = layer;
  span.id = tracer->NextId();
  span.parent = buffer->open.empty() ? 0 : buffer->open.back();
  span.tid = buffer->tid;
  index_ = buffer->spans.size();
  buffer->open.push_back(span.id);
  span.start_ns = NowNs();
  buffer->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNs();
  buffer_->open.pop_back();
}

std::string Tracer::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t origin = UINT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      origin = std::min(origin, s.start_ns);
    }
  }
  // One trace holding every span; the layer rides in the annotation.
  neptune::Trace trace;
  trace.trace_id = 1;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      neptune::Span span;
      span.trace_id = trace.trace_id;
      span.span_id = s.id;
      span.parent_id = s.parent;
      span.name = s.name;
      span.start_us = (s.start_ns - origin) / 1000;
      span.duration_us = (s.end_ns - s.start_ns) / 1000;
      span.thread_id = s.tid;
      span.annotation = std::string("layer=") + s.layer;
      trace.spans.push_back(std::move(span));
    }
  }
  return neptune::TracesToChromeJson({trace});
}

std::map<std::string, double> Tracer::SelfTimeByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Spans nest only within one thread's buffer, so children are found
  // per buffer.
  std::map<std::string, double> self_us;
  for (const auto& buffer : buffers_) {
    std::unordered_map<uint64_t, uint64_t> child_ns;
    for (const SpanRecord& s : buffer->spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const SpanRecord& s : buffer->spans) {
      const uint64_t dur = s.end_ns - s.start_ns;
      const uint64_t children = child_ns[s.id];
      self_us[s.layer] += (dur > children ? dur - children : 0) / 1000.0;
    }
  }
  return self_us;
}

Samples Tracer::Durations(std::string_view name,
                          std::string_view layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      if (name == s.name && layer == s.layer) {
        out.Add((s.end_ns - s.start_ns) / 1000.0);
      }
    }
  }
  return out;
}

}  // namespace perfbench
