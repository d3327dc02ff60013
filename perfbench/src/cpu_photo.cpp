// cpu_photo: decode an in-memory PGM, sharpen it on the 3-thread CPU
// path, encode the result. No simcl and no service on this path.
#include <sstream>

#include "image/generate.hpp"
#include "image/pnm.hpp"
#include "sharpen/cpu_parallel.hpp"
#include "sharpen/execution.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kThreads = 3;

std::string encode(const sharp::img::ImageU8& im) {
  std::ostringstream os;
  sharp::img::write_pgm(os, im);
  return std::move(os).str();
}

sharp::img::ImageU8 decode(const std::string& pgm) {
  std::istringstream is(pgm);
  return sharp::img::read_pgm(is);
}

double mpx(const Photo& p) {
  return static_cast<double>(p.frame.image.width()) *
         p.frame.image.height() / 1e6;
}

}  // namespace

std::vector<Photo> cpu_photo_pool(std::uint64_t seed) {
  // Two 12 Mpx photos around one 24 Mpx photo: the per-image median stays
  // inside the 12 Mpx cluster whatever the number of images completed.
  const int sizes[3][2] = {{4000, 3000}, {6000, 4000}, {4000, 3000}};
  std::vector<Photo> pool;
  for (const auto& wh : sizes) {
    Photo p;
    p.frame.image =
        sharp::img::make_natural(wh[0], wh[1], seed * 1000 + 900 + pool.size());
    compute_reference(p.frame);
    p.pgm = encode(p.frame.image);
    p.expected_pgm = encode(p.frame.expected);
    pool.push_back(std::move(p));
  }
  return pool;
}

double photo_setup_s(const std::vector<Photo>& pool, int reps) {
  const Photo& first = pool.front();
  const sharp::Execution exec = sharp::Execution::max_throughput(kThreads);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    const sharp::ParallelCpuPipeline pipeline(kThreads, exec.host,
                                              exec.options);
    const std::string out =
        encode(pipeline.run(decode(first.pgm), first.frame.params).output);
    times.push_back(now_s() - t0);
    if (out != first.expected_pgm) {
      mark_invalid("cpu_photo setup: first response differs from reference");
    }
  }
  return median(times);
}

double photo_modeled_us(const std::vector<Photo>& pool) {
  const sharp::Execution exec = sharp::Execution::max_throughput(kThreads);
  const sharp::ParallelCpuPipeline pipeline(kThreads, exec.host,
                                            exec.options);
  double sum = 0.0;
  for (const Photo& p : pool) {
    sum += pipeline.run(p.frame.image, p.frame.params).total_modeled_us;
  }
  return sum / static_cast<double>(pool.size());
}

Phase run_photo_loop(const std::vector<Photo>& pool, double warmup_s,
                     double seconds) {
  const sharp::Execution exec = sharp::Execution::max_throughput(kThreads);
  Phase phase;
  const double t0 = now_s();
  const double t_measure = t0 + warmup_s;
  const double t_stop = t_measure + seconds;
  double window_start = -1.0;
  double window_end = 0.0;
  double ready = t0;  // when the caller decided to send the next image
  for (std::size_t i = 0; ready < t_stop; ++i) {
    const Photo& p = pool[i % pool.size()];
    const std::uint64_t rid = i + 1;
    Scoped root("e2e.image", 0, rid);
    const double t_send = now_s();
    phase.late_ms.push_back((t_send - ready) * 1e3);
    bool ok = false;
    try {
      Scoped dec("image.decode", root.id(), rid);
      sharp::img::ImageU8 in = decode(p.pgm);
      dec.end();
      Scoped run("cpu_pipeline.sharpen", root.id(), rid);
      sharp::img::ImageU8 out = sharp::sharpen(in, p.frame.params, exec);
      run.end();
      Scoped enc("image.encode", root.id(), rid);
      const std::string encoded = encode(out);
      enc.end();
      ok = encoded == p.expected_pgm;
    } catch (...) {
    }
    const double t_done = now_s();
    root.end();
    ++phase.attempted;
    const bool in_window = t_done >= t_measure && t_done <= t_stop;
    phase.measured += in_window ? 1 : 0;
    if (!ok) {
      ++phase.failed;
    } else if (in_window) {
      window_start = window_start < 0.0 ? ready : window_start;
      window_end = t_done;
      phase.latency_ms.push_back((t_done - t_send) * 1e3);
      phase.steady_mpx += mpx(p);
    }
    ready = t_done;
  }
  phase.steady_s = window_start >= 0.0 ? window_end - window_start : 0.0;
  return phase;
}

}  // namespace perfbench
