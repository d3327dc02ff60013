// stream_small and video_4k: the SharpenService workloads.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "image/generate.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sharp::ServiceResponse;

/// The second parameter set of stream_small: stronger, sharper-knee
/// sharpening than the defaults.
sharp::SharpenParams strong_params() {
  sharp::SharpenParams p;
  p.amount = 2.25f;
  p.gamma = 0.75f;
  p.strength_max = 6.0f;
  p.osc_gain = 0.4f;
  return p;
}

double mpx(const sharp::img::ImageU8& im) {
  return static_cast<double>(im.width()) * im.height() / 1e6;
}

bool response_ok(const ServiceResponse& r, const Frame& f) {
  return r.outcome == sharp::RequestOutcome::kOk &&
         r.result.output == f.expected;
}

/// Interpolated quantile of one Prometheus histogram in `text`, in the
/// histogram's own unit. The service exposes wall-clock histograms only
/// through its registry's text exposition.
double histogram_quantile(const std::string& text, const std::string& family,
                          double q) {
  std::vector<std::pair<double, double>> buckets;  // (upper bound, cumulative)
  std::istringstream is(text);
  std::string line;
  const std::string prefix = family + "_bucket{le=\"";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) != 0) {
      continue;
    }
    const std::size_t close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const double count = std::stod(line.substr(line.rfind(' ') + 1));
    if (le != "+Inf") {
      buckets.emplace_back(std::stod(le), count);
    } else if (!buckets.empty()) {
      buckets.emplace_back(2.0 * buckets.back().first, count);
    }
  }
  if (buckets.empty() || buckets.back().second <= 0.0) {
    return 0.0;
  }
  const double target = q * buckets.back().second;
  double lo = 0.0;
  double below = 0.0;
  for (const auto& [ub, cum] : buckets) {
    if (cum >= target && cum > below) {
      return lo + (ub - lo) * (target - below) / (cum - below);
    }
    lo = ub;
    below = cum;
  }
  return buckets.back().first;
}

void read_service_side(const sharp::SharpenService& svc, Phase& p) {
  const std::string text = svc.registry().expose_text();
  const double wait50 =
      histogram_quantile(text, "sharp_service_queue_wait_us", 0.50);
  p.queue_wait_p50_ms = wait50 / 1e3;
  p.queue_wait_p99_ms =
      histogram_quantile(text, "sharp_service_queue_wait_us", 0.99) / 1e3;
  // The registry keeps submit-to-response and queue-wait histograms;
  // execution is their difference at the median.
  p.exec_p50_ms =
      (histogram_quantile(text, "sharp_service_e2e_latency_us", 0.50) -
       wait50) /
      1e3;
  const sharp::ServiceStats st = svc.stats();
  p.queue_depth_hwm = static_cast<double>(st.queue_depth_hwm);
  p.service_failed = static_cast<double>(st.rejected + st.expired);
}

}  // namespace

std::vector<Frame> stream_small_pool(std::uint64_t seed) {
  const int sizes[4][2] = {{256, 256}, {320, 240}, {512, 512}, {640, 360}};
  std::vector<Frame> pool;
  for (int k = 0; k < 2; ++k) {
    for (const auto& wh : sizes) {
      for (int p = 0; p < 2; ++p) {
        Frame f;
        f.image = sharp::img::make_natural(wh[0], wh[1],
                                           seed * 1000 + pool.size());
        f.params = p == 0 ? sharp::SharpenParams{} : strong_params();
        compute_reference(f);
        pool.push_back(std::move(f));
      }
    }
  }
  return pool;
}

std::vector<Frame> video_4k_pool(std::uint64_t seed) {
  std::vector<Frame> pool;
  for (int k = 0; k < 3; ++k) {
    Frame f;
    f.image = sharp::img::make_natural(4096, 2160, seed * 1000 + 500 + k);
    compute_reference(f);
    pool.push_back(std::move(f));
  }
  return pool;
}

Schedule poisson_schedule(std::uint64_t seed, double rate_hz, double seconds,
                          std::size_t pool) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_hz);
  std::uniform_int_distribution<std::size_t> pick(0, pool - 1);
  Schedule s;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    s.due_s.push_back(t);
    s.frame.push_back(pick(rng));
  }
  return s;
}

double service_setup_s(const sharp::ServiceConfig& cfg, const Frame& first,
                       int reps,
                       std::unique_ptr<sharp::SharpenService>& keep) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    keep.reset();
    sharp::img::ImageU8 copy = first.image;
    const double t0 = now_s();
    keep = std::make_unique<sharp::SharpenService>(cfg);
    const ServiceResponse resp =
        keep->submit(std::move(copy), first.params).get();
    const bool ok = response_ok(resp, first);
    times.push_back(now_s() - t0);
    if (!ok) {
      mark_invalid("service setup: first response differs from reference");
    }
  }
  return median(times);
}

Phase run_open_loop(sharp::SharpenService& svc, const std::vector<Frame>& pool,
                    const Schedule& schedule, double warmup_s) {
  struct Pending {
    std::size_t i = 0;
    double due = 0.0;
    double sent = 0.0;
    std::uint64_t root = 0;  ///< span id of the request
    std::future<ServiceResponse> fut;
  };
  struct Done {
    bool ok = false;
    double latency_ms = 0.0;
  };
  const std::size_t n = schedule.due_s.size();
  std::vector<Done> done(n);
  std::deque<Pending> pending;
  std::mutex mu;
  std::condition_variable cv;
  bool sending = true;

  // Waiters block on futures in parallel so a request that finishes ahead
  // of an older one is timed when it completes, not when it is reached.
  const auto waiter = [&] {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !pending.empty() || !sending; });
        if (pending.empty()) {
          return;
        }
        p = std::move(pending.front());
        pending.pop_front();
      }
      bool ok = false;
      double t_done = 0.0;
      try {
        const ServiceResponse r = p.fut.get();
        t_done = now_s();
        ok = response_ok(r, pool[schedule.frame[p.i]]);
      } catch (...) {
        t_done = now_s();
      }
      done[p.i] = {ok, (t_done - p.due) * 1e3};
      tracer().add("e2e.request", p.due, t_done, 0, p.i + 1, p.root);
      tracer().add("service.request", p.sent, t_done, p.root, p.i + 1);
    }
  };
  std::vector<std::thread> waiters;
  for (int k = 0; k < 6; ++k) {
    waiters.emplace_back(waiter);
  }

  Phase phase;
  phase.late_ms.reserve(n);
  const double t0 = now_s();
  const Clock::time_point c0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Frame& f = pool[schedule.frame[i]];
    sharp::img::ImageU8 copy = f.image;
    std::this_thread::sleep_until(
        c0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(schedule.due_s[i])));
    Pending p;
    p.i = i;
    p.due = t0 + schedule.due_s[i];
    p.sent = now_s();
    p.root = tracer().on() ? tracer().new_id() : 0;
    phase.late_ms.push_back((p.sent - p.due) * 1e3);
    try {
      p.fut = svc.submit(std::move(copy), f.params);
    } catch (...) {
      std::promise<ServiceResponse> failed;
      failed.set_exception(std::current_exception());
      p.fut = failed.get_future();
    }
    tracer().add("loadgen.submit", p.sent, now_s(), p.root, i + 1);
    {
      std::lock_guard<std::mutex> lk(mu);
      pending.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    sending = false;
  }
  cv.notify_all();
  for (std::thread& t : waiters) {
    t.join();
  }

  phase.attempted = static_cast<std::int64_t>(n);
  double first_due = 0.0;
  double last_due = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool measured = schedule.due_s[i] >= warmup_s;
    if (measured) {
      ++phase.measured;
      first_due = phase.measured == 1 ? schedule.due_s[i] : first_due;
      last_due = schedule.due_s[i];
    }
    if (!done[i].ok) {
      ++phase.failed;
    } else if (measured) {
      phase.latency_ms.push_back(done[i].latency_ms);
      phase.steady_mpx += mpx(pool[schedule.frame[i]].image);
    }
  }
  phase.steady_s = last_due - first_due;
  read_service_side(svc, phase);
  return phase;
}

Phase run_closed_loop(sharp::SharpenService& svc,
                      const std::vector<Frame>& pool, double warmup_s,
                      double seconds, int inflight) {
  struct Pending {
    std::size_t frame = 0;
    std::uint64_t request = 0;  ///< 1-based send order
    double sent = 0.0;
    std::uint64_t root = 0;  ///< span id of the request
    std::future<ServiceResponse> fut;
  };
  Phase phase;
  std::deque<Pending> pending;
  std::uint64_t next = 0;
  double ready = now_s();  // when the client decided to send
  const auto send = [&] {
    Pending p;
    p.request = ++next;
    p.frame = (p.request - 1) % pool.size();
    sharp::img::ImageU8 copy = pool[p.frame].image;
    p.sent = now_s();
    p.root = tracer().on() ? tracer().new_id() : 0;
    phase.late_ms.push_back((p.sent - ready) * 1e3);
    try {
      p.fut = svc.submit(std::move(copy), pool[p.frame].params);
    } catch (...) {
      std::promise<ServiceResponse> failed;
      failed.set_exception(std::current_exception());
      p.fut = failed.get_future();
    }
    tracer().add("loadgen.submit", p.sent, now_s(), p.root, p.request);
    ++phase.attempted;
    pending.push_back(std::move(p));
  };

  const double t0 = now_s();
  const double t_measure = t0 + warmup_s;
  const double t_stop = t_measure + seconds;
  for (int k = 0; k < inflight; ++k) {
    send();
  }
  // The steady window runs from the last completion before t_measure to
  // the last completion before t_stop, while the client still refills the
  // queue (the drain after t_stop runs a shorter pipeline).
  double prev_done = t0;
  double window_start = -1.0;
  double window_end = 0.0;
  while (!pending.empty()) {
    Pending p = std::move(pending.front());
    pending.pop_front();
    bool ok = false;
    double modeled = 0.0;
    try {
      const ServiceResponse r = p.fut.get();
      ok = response_ok(r, pool[p.frame]);
      modeled = r.result.total_modeled_us;
    } catch (...) {
    }
    const double t_done = now_s();
    ready = t_done;
    tracer().add("e2e.request", p.sent, t_done, 0, p.request, p.root);
    tracer().add("service.request", p.sent, t_done, p.root, p.request);
    const bool in_window = t_done >= t_measure && t_done <= t_stop;
    phase.measured += in_window ? 1 : 0;
    if (!ok) {
      ++phase.failed;
    } else if (in_window) {
      window_start = window_start < 0.0 ? prev_done : window_start;
      window_end = t_done;
      phase.latency_ms.push_back((t_done - p.sent) * 1e3);
      phase.steady_mpx += mpx(pool[p.frame].image);
      phase.modeled_us.push_back(modeled);
    }
    prev_done = t_done;
    if (t_done < t_stop) {
      send();
    }
  }
  phase.steady_s = window_start >= 0.0 ? window_end - window_start : 0.0;
  read_service_side(svc, phase);
  return phase;
}

}  // namespace perfbench
