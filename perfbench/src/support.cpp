#include "support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <unistd.h>

#include "sharpen/cpu_pipeline.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void compute_reference(Frame& f) {
  const sharp::PipelineResult r =
      sharp::CpuPipeline().run(f.image, f.params);
  f.expected = r.output;
  f.mean_edge = r.mean_edge;
}

// --- tracing -----------------------------------------------------------------

std::uint64_t Tracer::add(std::string name, double start_s, double end_s,
                          std::uint64_t parent, std::uint64_t request,
                          std::uint64_t id) {
  if (!on_) {
    return 0;
  }
  if (id == 0) {
    id = new_id();
  }
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({id, std::move(name), start_s, end_s, parent, request});
  return id;
}

double Tracer::self_ms(const std::string& layer) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children of each span, as intervals clipped to the parent.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      kids[s.parent].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self;
  for (const Span& s : spans_) {
    if (s.name.rfind(layer, 0) != 0) {
      continue;
    }
    double covered = 0.0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_a = 0.0;
      double cur_b = -1.0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_s);
        b = std::min(b, s.end_s);
        if (b <= a) {
          continue;
        }
        if (a > cur_b) {
          covered += std::max(0.0, cur_b - cur_a);
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += std::max(0.0, cur_b - cur_a);
    }
    self.push_back((s.end_s - s.start_s - covered) * 1e3);
  }
  return median(std::move(self));
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  os << std::setprecision(15) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
       << ",\"dur\":" << (s.end_s - s.start_s) * 1e6 << ",\"args\":{\"id\":"
       << s.id << ",\"parent\":" << s.parent << ",\"req\":" << s.request
       << "}}";
  }
  os << "\n]}\n";
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Scoped::Scoped(std::string name, std::uint64_t parent, std::uint64_t request)
    : name_(std::move(name)),
      parent_(parent),
      request_(request),
      start_s_(now_s()),
      id_(tracer().on() ? tracer().new_id() : 0) {}

Scoped::~Scoped() { end(); }

void Scoped::end() {
  if (!ended_) {
    ended_ = true;
    tracer().add(name_, start_s_, now_s(), parent_, request_, id_);
  }
}

// --- memory ------------------------------------------------------------------

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RssSampler::RssSampler() : base_mb_(rss_mb()), peak_mb_(base_mb_) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const double mb = rss_mb();
      if (mb > peak_mb_.load()) {
        peak_mb_.store(mb);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

double RssSampler::peak_growth_mb() const {
  return std::max(peak_mb_.load(), rss_mb()) - base_mb_;
}

// --- result ------------------------------------------------------------------

std::string Metrics::json() const {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << v
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string Metrics::table() const {
  std::ostringstream os;
  for (const auto& [name, vu] : values_) {
    os << "  " << std::left << std::setw(36) << name << std::right
       << std::setw(16) << std::setprecision(6) << vu.first << " "
       << vu.second << "\n";
  }
  return os.str();
}

namespace {
std::mutex invalid_mu;
std::vector<std::string> invalid;
}  // namespace

void mark_invalid(const std::string& why) {
  std::lock_guard<std::mutex> lk(invalid_mu);
  invalid.push_back(why);
}

std::vector<std::string> invalid_reasons() {
  std::lock_guard<std::mutex> lk(invalid_mu);
  return invalid;
}

}  // namespace perfbench
