#pragma once

// Load drivers for bench_e2e. All load comes from one process with two
// threads: a generator that submits and a collector that watches the
// outstanding futures.
//
// Open loop: requests fall due on a seeded Poisson schedule, however fast
// the system answers. The generator submits every request already due
// before it sleeps, and each request is timed from its *due* time, so a
// stall is charged to every request it delays, not only to the one in
// flight. How late the generator ran (submit entry minus due) is kept as
// the request's lag.
//
// Closed loop: a fixed number of requests is kept outstanding and the rate
// is whatever the system sustains.
//
// The collector blocks on the oldest outstanding future with a short
// timeout and polls the others, so an in-order completion is stamped when
// it happens and an out-of-order one within one poll interval.

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "treu/core/rng.hpp"

namespace treu::bench_e2e {

/// CLOCK_MONOTONIC in nanoseconds: one clock shared by every process.
inline std::int64_t mono_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline void sleep_until_ns(std::int64_t t) noexcept {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// The kernel may defer a sleeping thread's wake-up by its timer slack,
/// 50 us by default: close to the mean gap between arrivals at 16 k/s.
inline void use_precise_timers() noexcept { ::prctl(PR_SET_TIMERSLACK, 1000); }

/// A quantile and the number of samples it was taken over.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
};

/// Nearest-rank quantile, q in [0, 1]; +inf samples sort last. Empty
/// input gives {0, 0}.
inline Quantile quantile(std::vector<double> v, double q) {
  if (v.empty()) return {};
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(rank == 0 ? 0 : rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return {v[idx], v.size()};
}

/// Due offsets (ns from the phase start) of a Poisson arrival process.
inline std::vector<std::int64_t> poisson_schedule(double rate_rps,
                                                  double seconds,
                                                  core::Rng rng) {
  std::vector<std::int64_t> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_rps;
    if (t >= seconds) return due;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
}

/// One request's timeline. A failed request has ok == false; latency
/// reports count it as +inf.
struct RequestTiming {
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;     // generator entered submit()
  std::int64_t submitted_ns = 0;  // submit() returned
  std::int64_t done_ns = 0;       // collector saw the future ready
  bool ok = false;
};

namespace detail {

template <typename Future>
class Handoff {
 public:
  void push(std::uint64_t i, Future f) {
    {
      std::lock_guard lock(mu_);
      in_.emplace_back(i, std::move(f));
    }
    cv_.notify_one();
  }

  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }

  /// Append what the generator handed over to `out`, blocking for more
  /// when `block`. False once the generator has closed and all is taken.
  bool take(std::vector<std::pair<std::uint64_t, Future>> &out, bool block) {
    std::unique_lock lock(mu_);
    if (block) cv_.wait(lock, [&] { return !in_.empty() || closed_; });
    for (auto &e : in_) out.push_back(std::move(e));
    in_.clear();
    return !closed_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint64_t, Future>> in_;
  bool closed_ = false;
};

struct Completion {
  std::uint64_t i = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
};

/// Collector loop. `done(i, future)` consumes a ready future and returns
/// whether the request succeeded; it runs on this thread, so it must be
/// cheap.
template <typename Future, typename Done>
std::vector<Completion> collect(Handoff<Future> &handoff, Done &done) {
  constexpr auto kPoll = std::chrono::microseconds(20);
  use_precise_timers();
  std::vector<Completion> out;
  std::vector<std::pair<std::uint64_t, Future>> pending;
  bool open = true;
  while (open || !pending.empty()) {
    if (open) open = handoff.take(pending, pending.empty());
    bool progressed = false;
    std::size_t kept = 0;
    for (std::size_t r = 0; r < pending.size(); ++r) {
      auto &[i, fut] = pending[r];
      if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        if (kept != r) pending[kept] = std::move(pending[r]);
        ++kept;
        continue;
      }
      Completion c;
      c.i = i;
      c.done_ns = mono_ns();
      try {
        c.ok = done(i, fut);
      } catch (...) {
        c.ok = false;
      }
      out.push_back(c);
      progressed = true;
    }
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(kept),
                  pending.end());
    if (!progressed && !pending.empty()) {
      (void)pending.front().second.wait_for(kPoll);
    }
  }
  return out;
}

inline void merge(std::vector<RequestTiming> &timings,
                  const std::vector<Completion> &done) {
  for (const Completion &c : done) {
    timings[c.i].done_ns = c.done_ns;
    timings[c.i].ok = c.ok;
  }
}

}  // namespace detail

/// Open loop: request i falls due at start_ns + due[i]. `make(i)` builds
/// its payload ahead of time, `send(i, payload)` submits it and returns its
/// future, and `done(i, future)` consumes the future on the collector.
/// `during()` runs on the calling thread while the load runs.
template <typename Future, typename Make, typename Send, typename Done,
          typename During>
std::vector<RequestTiming> open_loop(std::int64_t start_ns,
                                     const std::vector<std::int64_t> &due,
                                     Make make, Send send, Done done,
                                     During during) {
  std::vector<RequestTiming> timings(due.size());
  detail::Handoff<Future> handoff;
  std::vector<detail::Completion> completions;
  std::exception_ptr error;
  std::thread collector(
      [&] { completions = detail::collect(handoff, done); });
  std::thread generator([&] {
    use_precise_timers();
    try {
      for (std::size_t i = 0; i < due.size(); ++i) {
        RequestTiming &t = timings[i];
        t.due_ns = start_ns + due[i];
        auto payload = make(i);
        if (mono_ns() < t.due_ns) sleep_until_ns(t.due_ns);
        t.submit_ns = mono_ns();
        Future f = send(i, std::move(payload));
        t.submitted_ns = mono_ns();
        handoff.push(i, std::move(f));
      }
    } catch (...) {
      error = std::current_exception();
    }
    handoff.close();
  });
  std::exception_ptr during_error;
  try {
    during();
  } catch (...) {
    during_error = std::current_exception();
  }
  generator.join();
  collector.join();
  if (error) std::rethrow_exception(error);
  if (during_error) std::rethrow_exception(during_error);
  detail::merge(timings, completions);
  return timings;
}

/// Closed loop: keep `concurrency` requests outstanding from start until
/// end_ns, then let the outstanding ones finish. Due time = submit time.
template <typename Future, typename Make, typename Send, typename Done>
std::vector<RequestTiming> closed_loop(std::size_t concurrency,
                                       std::int64_t end_ns, Make make,
                                       Send send, Done done) {
  std::vector<RequestTiming> timings;
  detail::Handoff<Future> handoff;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0;
  const auto counted_done = [&](std::uint64_t i, Future &f) {
    bool ok = false;
    try {
      ok = done(i, f);
    } catch (...) {
    }
    {
      std::lock_guard lock(mu);
      --inflight;
    }
    cv.notify_one();
    return ok;
  };
  std::vector<detail::Completion> completions;
  std::exception_ptr error;
  std::thread collector(
      [&] { completions = detail::collect(handoff, counted_done); });
  std::thread generator([&] {
    try {
      for (std::uint64_t i = 0;; ++i) {
        auto payload = make(i);
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return inflight < concurrency; });
          if (mono_ns() >= end_ns) break;
          ++inflight;
        }
        RequestTiming t;
        t.submit_ns = mono_ns();
        t.due_ns = t.submit_ns;
        Future f = send(i, std::move(payload));
        t.submitted_ns = mono_ns();
        timings.push_back(t);
        handoff.push(i, std::move(f));
      }
    } catch (...) {
      error = std::current_exception();
    }
    handoff.close();
  });
  generator.join();
  collector.join();
  if (error) std::rethrow_exception(error);
  detail::merge(timings, completions);
  return timings;
}

}  // namespace treu::bench_e2e
