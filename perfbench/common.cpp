#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/path.hpp"
#include "io/pattern_io.hpp"
#include "sched/bounds.hpp"
#include "svc/serialize.hpp"

namespace perfbench {

using namespace optdm;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  const auto rank = std::max(std::ceil(p / 100.0 * n), 1.0);
  return sample[static_cast<std::size_t>(rank) - 1];
}

double median(std::vector<double> sample) {
  return percentile(std::move(sample), 50);
}

PassStats pass_stats(const std::vector<std::vector<double>>& call_ms,
                     const std::vector<double>& pass_rates) {
  std::vector<double> best;
  for (const auto& times : call_ms) best.push_back(percentile(times, 0));
  return {percentile(pass_rates, 100), percentile(best, 50),
          percentile(best, 99)};
}

namespace {

double status_field_mb(const std::string& path, const std::string& field) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
  throw std::runtime_error("no " + field + " in " + path);
}

}  // namespace

double peak_rss_mb(int pid) {
  return status_field_mb(
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status",
      "VmHWM");
}

double current_rss_mb() {
  return status_field_mb("/proc/self/status", "VmRSS");
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

core::RequestSet random_pairs(int nodes, int count, Rng& rng) {
  core::RequestSet all;
  for (int s = 0; s < nodes; ++s)
    for (int d = 0; d < nodes; ++d)
      if (s != d) all.push_back({s, d});
  if (count > static_cast<int>(all.size()))
    throw std::invalid_argument("random_pairs: more pairs than exist");
  rng.shuffle(all);
  all.resize(static_cast<std::size_t>(count));
  return all;
}

core::RequestSet random_derangement(int nodes, Rng& rng) {
  std::vector<int> dst(static_cast<std::size_t>(nodes));
  for (;;) {
    for (int i = 0; i < nodes; ++i) dst[static_cast<std::size_t>(i)] = i;
    rng.shuffle(dst);
    bool fixed_point = false;
    for (int i = 0; i < nodes; ++i)
      fixed_point |= dst[static_cast<std::size_t>(i)] == i;
    if (!fixed_point) break;
  }
  core::RequestSet pattern;
  for (int i = 0; i < nodes; ++i)
    pattern.push_back({i, dst[static_cast<std::size_t>(i)]});
  return pattern;
}

core::RequestSet torus_shift(const topo::TorusNetwork& net, int dx, int dy) {
  core::RequestSet pattern;
  for (int y = 0; y < net.rows(); ++y)
    for (int x = 0; x < net.cols(); ++x) {
      const int tx = (x + dx) % net.cols();
      const int ty = (y + dy) % net.rows();
      pattern.push_back({y * net.cols() + x, ty * net.cols() + tx});
    }
  return pattern;
}

std::int64_t Tracer::now_ns() const {
  // One epoch for every tracer, so spans of client threads line up.
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void Tracer::absorb(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (auto span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

int Tracer::open(const std::string& name) {
  spans_.push_back(Span{name, now_ns(), 0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index) {
  auto& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

void Tracer::record(const std::string& name, std::int64_t duration_ns) {
  const auto end = now_ns();
  spans_.push_back(Span{name, end - duration_ns, end, current_});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& span : spans_)
    if (span.name == name)
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  return out;
}

double Tracer::median_us(const std::string& name) const {
  return median(durations_ms(name)) * 1000.0;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0;
  for (const double ms : durations_ms(name)) total += ms;
  return total;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& span : spans_)
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << "}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

std::string check_schedule(const topo::TorusNetwork& net,
                           const core::RequestSet& pattern,
                           const std::string& text, int degree) {
  core::Schedule schedule;
  try {
    std::istringstream in(text);
    schedule = io::read_schedule(in, net);
  } catch (const std::exception& e) {
    return std::string("schedule does not reload: ") + e.what();
  }
  if (const auto err = schedule.validate_against(pattern)) return *err;
  if (schedule.degree() != degree)
    return "degree " + std::to_string(schedule.degree()) +
           " differs from the reported " + std::to_string(degree);
  const auto bound =
      sched::multiplexing_lower_bound(net, core::route_all(net, pattern));
  if (schedule.degree() < bound)
    return "degree " + std::to_string(schedule.degree()) +
           " below the lower bound " + std::to_string(bound);
  return {};
}

void report_slots(const Config& config, std::int64_t slots, RunResult& result) {
  result.metrics["slots_total"] = {static_cast<double>(slots), "slots"};
  if (config.expect_slots >= 0 && slots != config.expect_slots)
    result.problems.push_back("slots_total " + std::to_string(slots) +
                              " != recorded " +
                              std::to_string(config.expect_slots));
}

bool same_result(const svc::CompileResponse& a,
                 const svc::CompileResponse& b) {
  return a.degree == b.degree && a.lower_bound == b.lower_bound &&
         a.winner == b.winner && a.schedule_text == b.schedule_text;
}

std::string result_bytes(svc::SimulateResponse response) {
  response.compiled.cache_hit = false;
  response.compiled.disk_hit = false;
  return svc::encode(response);
}

Daemon::Daemon(const std::string& binary, int workers) {
  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe failed");
  const std::string workers_flag = "--workers=" + std::to_string(workers);
  std::vector<char*> argv{const_cast<char*>(binary.c_str()),
                          const_cast<char*>("--listen=0"),
                          const_cast<char*>(workers_flag.c_str()), nullptr};
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: async-signal-safe calls only until exec.  The daemon dies with
    // the driver, so a killed benchmark leaves no server behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  if (pid < 0) {
    close(out[0]);
    throw std::runtime_error("cannot start " + binary);
  }
  pid_ = pid;

  // The daemon announces "optdm_served: listening on HOST:PORT (...)"
  // once its socket is live; everything after that line is ignored.
  std::string text;
  char buf[256];
  const std::string marker = "listening on 127.0.0.1:";
  for (;;) {
    const auto n = read(out[0], buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const auto at = text.find(marker);
    if (at != std::string::npos &&
        text.find(' ', at + marker.size()) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::stoi(text.substr(at + marker.size())));
      break;
    }
  }
  // The read end stays open until the daemon is reaped: its farewell line
  // must not die of SIGPIPE.
  stdout_fd_ = out[0];
  if (port_ == 0) {
    stop();
    throw std::runtime_error("optdm_served never announced its port");
  }
}

svc::Client::Options Daemon::client_options() const {
  svc::Client::Options options;
  options.host = "127.0.0.1";
  options.port = port_;
  return options;
}

bool Daemon::stop() {
  if (pid_ < 0) return true;
  bool asked = false;
  if (port_ != 0) {
    try {
      svc::Client client(client_options());
      client.shutdown_server();
      asked = true;
    } catch (const std::exception&) {
    }
  }
  if (!asked) kill(pid_, SIGKILL);
  int status = 0;
  // A daemon that acknowledged shutdown exits within its drain time; one
  // that hangs past 20 s is killed so the benchmark never leaves it behind.
  for (int waited = 0; waitpid(pid_, &status, WNOHANG) == 0; ++waited) {
    if (waited == 2000) kill(pid_, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  pid_ = -1;
  close(stdout_fd_);
  stdout_fd_ = -1;
  return asked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Daemon::~Daemon() { stop(); }

}  // namespace perfbench
