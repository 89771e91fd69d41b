#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace xbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

// ---------------------------------------------------------------------

HostTracer::HostTracer(bool enabled, std::uint64_t trace_id)
    : enabled_(enabled), trace_id_(trace_id), origin_(Clock::now()) {}

double HostTracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

HostTracer::Scope::Scope(HostTracer& tracer, const char* name)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.start_us = tracer_.now_us();
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  tracer_.spans_.push_back(span);
  tracer_.open_.push_back(index_);
}

HostTracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_us = tracer_.now_us();
  tracer_.open_.pop_back();
}

std::vector<double> HostTracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.end_us >= s.start_us) {
      out.push_back((s.end_us - s.start_us) / 1000.0);
    }
  }
  return out;
}

std::string HostTracer::chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                  "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"trace_id\": %llu, \"span\": %zu, \"parent\": %d}}",
                  i == 0 ? "" : ",\n", s.name, s.start_us,
                  s.end_us - s.start_us,
                  static_cast<unsigned long long>(trace_id_), i, s.parent);
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

// ---------------------------------------------------------------------

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's footprint
  // whenever that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw CheckFailed("peak resident set unavailable (/proc/self/status)");
}

unsigned host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

namespace {

/// A fixed amount of dependent integer work no compiler can fold.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Where the spinning threads leave their results, so the work stays
/// observable and cannot be optimized away.
std::atomic<std::uint64_t> spin_sink{0};

double timed_spin(unsigned threads, std::uint64_t iterations) {
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([iterations, t] {
      spin_sink.fetch_xor(spin(iterations, t + 1), std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();
  return seconds_since(start);
}

}  // namespace

double host_parallel_capacity(unsigned threads) {
  threads = std::max(1u, threads);
  constexpr std::uint64_t kIterations = 60'000'000;  // ~0.1 s per thread
  // Best of three per arm, so one descheduled slice does not decide it.
  double one = 0.0;
  double all = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double a = timed_spin(1, kIterations);
    const double b = timed_spin(threads, kIterations);
    one = rep == 0 ? a : std::min(one, a);
    all = rep == 0 ? b : std::min(all, b);
  }
  return static_cast<double>(threads) * one / all;
}

bool write_text(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace xbench
