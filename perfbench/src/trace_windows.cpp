#include "trace_windows.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

namespace {

// Drain once this many events are recorded across all threads: well below
// one ring's capacity, and a 1 ms poll leaves room for the events recorded
// between two polls.
constexpr std::size_t kDrainAtEvents = 24000;
constexpr auto kPollInterval = std::chrono::milliseconds(1);

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceWindows::TraceWindows(std::string dir) : dir_(std::move(dir)) {}

TraceWindows::~TraceWindows() {
  if (drainer_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    drainer_.join();
  }
  odlp::obs::disable_tracing();
}

std::string TraceWindows::window_path() const { return dir_ + "/window.json"; }

void TraceWindows::start() {
  odlp::obs::enable_tracing(window_path());
  stopping_ = false;
  drainer_ = std::thread([this] { drain_loop(); });
}

void TraceWindows::stop() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  drainer_.join();
  drain();
  odlp::obs::disable_tracing();
  if (!error_.empty()) throw std::runtime_error(error_);
}

void TraceWindows::drain_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (!wake_.wait_for(lk, kPollInterval, [this] { return stopping_; })) {
    if (odlp::obs::trace_event_count() < kDrainAtEvents) continue;
    lk.unlock();
    try {
      drain();
    } catch (const std::exception& e) {
      if (error_.empty()) error_ = e.what();
    }
    lk.lock();
  }
}

void TraceWindows::drain() {
  const double off = now_us();
  odlp::obs::disable_tracing();
  // The JSON flush writes synchronously on this thread. The binary flush
  // would hand blocks to the global pool, which the fleet scheduler resizes
  // while it runs.
  const bool written = odlp::obs::flush_trace();
  // enable_tracing() clears every ring, which starts the next window.
  odlp::obs::enable_tracing(window_path());
  gap_us_ += now_us() - off;
  if (!written) throw std::runtime_error("cannot write " + window_path());
  fold(window_path());
  ++windows_;
}

void TraceWindows::fold(const std::string& path) {
  struct Open {
    std::string name;
    std::uint64_t begin_ns;
    std::uint64_t child_ns;
  };
  // One Chrome trace event per line, grouped by thread and chronological
  // within a thread; every begin has its end (the flush balances them).
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const auto field = [](const std::string& line, const char* key) {
    const std::size_t at = line.find(key);
    return at == std::string::npos ? std::string::npos : at + std::strlen(key);
  };
  int tid = -1;
  std::vector<Open> stack;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t name_at = field(line, "{\"name\":\"");
    const std::size_t ph_at = field(line, "\"ph\":\"");
    const std::size_t tid_at = field(line, "\"tid\":");
    const std::size_t ts_at = field(line, "\"ts\":");
    if (name_at == std::string::npos || ph_at == std::string::npos ||
        tid_at == std::string::npos || ts_at == std::string::npos) {
      continue;
    }
    const int line_tid = std::atoi(line.c_str() + tid_at);
    const auto ts = static_cast<std::uint64_t>(
        std::llround(std::strtod(line.c_str() + ts_at, nullptr) * 1e3));
    if (line_tid != tid) {
      tid = line_tid;
      stack.clear();
    }
    if (line[ph_at] == 'B') {
      std::string name = line.substr(name_at, line.find('"', name_at) - name_at);
      if (main_tid_ == 0 && name.rfind("bench.", 0) == 0) main_tid_ = tid;
      stack.push_back({std::move(name), ts, 0});
      continue;
    }
    if (stack.empty()) continue;
    const Open open = std::move(stack.back());
    stack.pop_back();
    const std::uint64_t dur = ts - std::min(ts, open.begin_ns);
    SpanTotals& t = spans_[open.name];
    ++t.count;
    t.total_us += dur * 1e-3;
    const double self = (dur - std::min(dur, open.child_ns)) * 1e-3;
    t.self_us += self;
    if (tid == main_tid_) t.main_self_us += self;
    if (!stack.empty()) stack.back().child_ns += dur;
  }
}

}  // namespace perfbench
