// Measurement helpers for the end-to-end benchmark: clocks, latency
// samples and percentiles, process resource probes, a JSON writer, and
// the in-memory span tracer used by traced runs.

#ifndef NEPTUNE_PERFBENCH_MEASURE_H_
#define NEPTUNE_PERFBENCH_MEASURE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();
// CPU consumed by the calling thread / the whole process, in ns.
uint64_t ThreadCpuNs();
uint64_t ProcessCpuNs();
// Peak resident set since the last ResetPeakRss(), in MiB (Linux).
void ResetPeakRss();
double PeakRssMb();

// 64-bit FNV-1a; digests of node contents and reply shapes.
uint64_t Digest(std::string_view data);

// Latency samples of one operation class, in microseconds.
class Samples {
 public:
  void Add(double us) { us_.push_back(us); }
  void Append(const Samples& other) {
    us_.insert(us_.end(), other.us_.begin(), other.us_.end());
  }
  size_t size() const { return us_.size(); }
  // Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q) const;

 private:
  std::vector<double> us_;
};

// Median of a small list of repeated measurements (setup repetitions).
double Median(std::vector<double> values);

// Minimal JSON object writer: one flat or nested object on one line.
class JsonWriter {
 public:
  JsonWriter& Key(std::string_view key);
  JsonWriter& Str(std::string_view value);
  JsonWriter& Num(double value);
  JsonWriter& Int(uint64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Begin();  // '{'
  JsonWriter& End();    // '}'
  const std::string& str() const { return out_; }

 private:
  void Separate();
  void Quote(std::string_view value);
  std::string out_;
  bool need_comma_ = false;
};

// ------------------------------------------------------------ tracing
// Spans recorded from the benchmark's own code around calls into each
// layer. Each thread appends to its own buffer (no locking on the hot
// path); buffers are merged when the run ends.

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;
};

class Tracer {
 public:
  // A per-thread span buffer. Obtain one per thread with NewBuffer().
  struct Buffer {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<uint64_t> open;  // ids of the spans currently open
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  Buffer* NewBuffer();

  // Chrome trace-event JSON (loadable in Perfetto / chrome://tracing),
  // written by the program's own neptune::TracesToChromeJson.
  std::string ChromeTraceJson() const;

  // Self time per layer in microseconds: each span's duration minus the
  // time its direct children cover.
  std::map<std::string, double> SelfTimeByLayer() const;

  // Durations (us) of every span with this name and layer.
  Samples Durations(std::string_view name, std::string_view layer) const;

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the spans)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Records one span into `buffer` when the tracer is enabled; nests
// under the innermost span open on the same buffer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::Buffer* buffer, const char* name,
             const char* layer);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;  // null = tracing off
  size_t index_ = 0;
};

}  // namespace perfbench

#endif  // NEPTUNE_PERFBENCH_MEASURE_H_
