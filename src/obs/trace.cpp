#include "obs/trace.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace drift::obs {

std::int64_t trace_now_us() {
  // drift-lint: allow(random) — observability timestamps annotate trace
  // spans only; no simulation or selection decision ever reads them.
  static const auto origin = std::chrono::steady_clock::now();
  // drift-lint: allow(random) — same: wall-clock span bounds feed the
  // Chrome trace artifact, never any computed result.
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(now - origin)
      .count();
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::this_thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  // A new thread registers its buffer once; the tracer keeps a shared
  // reference so events survive thread exit until serialization.
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::begin(const char* name) {
  ThreadBuffer& buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(
      TraceEvent{name, "drift", 'B', trace_now_us(), 0, 0, buf.tid});
}

void Tracer::end(const char* name) {
  ThreadBuffer& buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(
      TraceEvent{name, "drift", 'E', trace_now_us(), 0, 0, buf.tid});
}

void Tracer::complete(const std::string& name, std::uint32_t tid,
                      std::int64_t ts, std::int64_t dur) {
  if (!enabled()) return;
  DRIFT_CHECK(dur >= 0, "complete event duration must be non-negative");
  ThreadBuffer& buf = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(TraceEvent{name, "sim", 'X', ts, dur, 1, tid});
}

std::uint32_t Tracer::sim_track(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, tid] : sim_tracks_) {
    if (existing == name) return tid;
  }
  sim_tracks_.emplace_back(name, next_sim_tid_);
  return next_sim_tid_++;
}

namespace {

void append_event(std::string& out, const TraceEvent& e) {
  out += "{\"name\": ";
  util::append_json_string(out, e.name);
  out += ", \"cat\": \"";
  out += e.category;
  out += "\", \"ph\": \"";
  out += e.ph;
  out += "\", \"ts\": " + std::to_string(e.ts);
  if (e.ph == 'X') out += ", \"dur\": " + std::to_string(e.dur);
  out += ", \"pid\": " + std::to_string(e.pid) +
         ", \"tid\": " + std::to_string(e.tid) + "}";
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  // Snapshot the buffer list, then serialize each buffer under its own
  // lock; one event per line so tests can parse without a JSON library.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::vector<std::pair<std::string, std::uint32_t>> tracks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
    tracks = sim_tracks_;
  }
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&out, &first](const TraceEvent& e) {
    out += first ? "\n" : ",\n";
    first = false;
    append_event(out, e);
  };
  // Track-name metadata so the UI labels the simulated rows.
  for (const auto& [name, tid] : tracks) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": ";
    util::append_json_string(out, name);
    out += "}}";
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    for (const TraceEvent& e : buf->events) emit(e);
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  return write_file(path, to_chrome_json());
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->events.clear();
  }
  sim_tracks_.clear();
  next_sim_tid_ = 0;
}

}  // namespace drift::obs
