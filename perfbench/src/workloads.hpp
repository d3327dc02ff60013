// The three benchmark workloads and the per-layer probes of traced runs.
//
//   stream_small  open loop: seeded Poisson arrivals of small mixed frames
//                 into a default SharpenService (2 workers, depth 2)
//   video_4k      closed loop: 4096x2160 frames into a 1-worker service,
//                 more frames in flight than the pipeline depth
//   cpu_photo     closed loop: in-memory PGM decode, sharp::sharpen on
//                 Execution::max_throughput(3), PGM encode
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sharpen/service/service.hpp"
#include "support.hpp"

namespace perfbench {

/// What one end-to-end phase measured. A phase first runs a warm-up
/// (caches, allocator and buffer pools fill), then a measurement window;
/// latencies cover requests of the window that completed with correct
/// pixels. `failed` counts exceptions, rejected or expired requests and
/// pixel mismatches.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< send time minus due time
  std::int64_t attempted = 0;   ///< every request, warm-up included
  std::int64_t failed = 0;      ///< every failure, warm-up included
  std::int64_t measured = 0;    ///< requests in the measurement window
  /// Megapixels completed and wall seconds elapsed in the steady-state
  /// window (warm-up and drain excluded).
  double steady_mpx = 0.0;
  double steady_s = 0.0;
  /// Modeled microseconds of the steady-state frames.
  std::vector<double> modeled_us;
  /// Service-side metrics when the phase ran through a SharpenService.
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double exec_p50_ms = 0.0;
  double queue_depth_hwm = 0.0;
  double service_failed = 0.0;

  [[nodiscard]] double mpx_per_s() const {
    return steady_s > 0.0 ? steady_mpx / steady_s : 0.0;
  }
};

// --- GPU workloads (SharpenService) ------------------------------------------

[[nodiscard]] std::vector<Frame> stream_small_pool(std::uint64_t seed);
[[nodiscard]] std::vector<Frame> video_4k_pool(std::uint64_t seed);

/// Seeded open-loop arrival schedule: due offsets (s) and pool indices.
struct Schedule {
  std::vector<double> due_s;
  std::vector<std::size_t> frame;
};
[[nodiscard]] Schedule poisson_schedule(std::uint64_t seed, double rate_hz,
                                        double seconds, std::size_t pool);

/// Constructs a service and serves `first` once, `reps` times; returns the
/// median seconds from construction to the first correct response and
/// keeps the last service in `keep`.
[[nodiscard]] double service_setup_s(const sharp::ServiceConfig& cfg,
                                     const Frame& first, int reps,
                                     std::unique_ptr<sharp::SharpenService>& keep);

/// Sends `schedule`; requests due before `warmup_s` are the warm-up.
[[nodiscard]] Phase run_open_loop(sharp::SharpenService& svc,
                                  const std::vector<Frame>& pool,
                                  const Schedule& schedule, double warmup_s);
/// Keeps `inflight` requests outstanding for warmup_s + seconds.
[[nodiscard]] Phase run_closed_loop(sharp::SharpenService& svc,
                                    const std::vector<Frame>& pool,
                                    double warmup_s, double seconds,
                                    int inflight);

// --- cpu_photo ---------------------------------------------------------------

struct Photo {
  std::string pgm;           ///< encoded input
  std::string expected_pgm;  ///< encoded serial-reference output
  Frame frame;               ///< decoded input and reference
};
[[nodiscard]] std::vector<Photo> cpu_photo_pool(std::uint64_t seed);
/// Constructs the 3-thread pipeline and serves photo 0 once, `reps`
/// times; median seconds to the first correct encoded response.
[[nodiscard]] double photo_setup_s(const std::vector<Photo>& pool, int reps);
/// Cost-model microseconds per photo, averaged over one pass of the pool.
[[nodiscard]] double photo_modeled_us(const std::vector<Photo>& pool);
[[nodiscard]] Phase run_photo_loop(const std::vector<Photo>& pool,
                                   double warmup_s, double seconds);

// --- per-layer probes (traced runs) ------------------------------------------

/// Sharpens a small frame on a benchmark-owned simcl context and marks the
/// run invalid if the engine fell back from its warp bodies or the pixels
/// differ from the reference.
void preflight(std::uint64_t seed);
/// Modeled microseconds of each frame served alone by a fresh worker of
/// `cfg` (deterministic: no neighbouring frames overlap it).
[[nodiscard]] std::vector<double> standalone_modeled_us(
    const std::vector<Frame>& frames, const sharp::ServiceConfig& cfg);

/// simcl: one launch per pipeline kernel at each frame's geometry plus an
/// empty launch, on an engine configured like the workers of `svc`.
/// Returns, per frame, the standalone wall seconds of the kernels that
/// frame's pipeline launches (for frame_runner overhead).
[[nodiscard]] std::vector<double> simcl_layer(const std::vector<Frame>& frames,
                                              const sharp::ServiceConfig& svc,
                                              Metrics& out);
/// FrameRunner + BufferPool replay of `sequence` (indices into `frames`)
/// with the queue, slot and slice setup of a worker of `svc`.
void frame_runner_layer(const std::vector<Frame>& frames,
                        const std::vector<std::size_t>& sequence,
                        const std::vector<double>& simcl_wall_s,
                        const sharp::ServiceConfig& svc, Metrics& out);
/// CpuPipeline / ParallelCpuPipeline, SIMD stages and PNM codec on `f`.
void cpu_layers(const Frame& f, Metrics& out);

}  // namespace perfbench
