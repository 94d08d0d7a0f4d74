// Windowed span tracing with per-name self-time totals.
//
// The program's trace ring holds 32768 events per thread, and one
// personalization round records far more than that, so a single
// enable_tracing()/flush pair over a whole workload drops spans. A
// TraceWindows drains the rings in windows instead: a background thread
// polls the recorded-event count and, before any ring can fill, stops
// recording, flushes the window to a Chrome trace file, and starts the next
// window. Each window file is read back and folded into per-name totals, so
// memory stays bounded however long the traced run is.
//
// Self time of a span is its duration minus the durations of its child
// spans on the same thread. A span still open when its window closes is
// closed at the window's last timestamp; the rest of its time, and the time
// recording was off during a drain, count as uncovered.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;  // inclusive duration
  double self_us = 0.0;   // duration minus child spans
  // Self time recorded on the thread that opened the first "bench." span
  // (the benchmark's driving thread).
  double main_self_us = 0.0;
};

class TraceWindows {
 public:
  // The window file is written to `dir`, which must exist; each window
  // overwrites the previous one.
  explicit TraceWindows(std::string dir);
  ~TraceWindows();

  TraceWindows(const TraceWindows&) = delete;
  TraceWindows& operator=(const TraceWindows&) = delete;

  // Starts recording and the drain thread.
  void start();
  // Stops the drain thread, drains the last window and stops recording.
  // Throws std::runtime_error if a window file cannot be written or read.
  void stop();

  const std::map<std::string, SpanTotals>& spans() const { return spans_; }
  std::uint64_t windows() const { return windows_; }
  // Wall time with recording off between windows.
  double gap_us() const { return gap_us_; }

 private:
  std::string window_path() const;
  void drain_loop();
  void drain();
  void fold(const std::string& path);

  std::string dir_;
  std::map<std::string, SpanTotals> spans_;
  std::uint64_t windows_ = 0;
  double gap_us_ = 0.0;
  int main_tid_ = 0;  // trace tid of the driving thread, 0 until seen
  std::string error_;

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread drainer_;  // declared last: uses every member above
};

}  // namespace perfbench
