#include "harness.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

extern char** environ;

namespace perfbench {

void Verdict::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  failures_.push_back(what);
}

bool Verdict::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_.empty();
}

std::vector<std::string> Verdict::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::MedianFrom(size_t begin) const {
  Samples tail;
  tail.values_.assign(values_.begin() + std::min(begin, values_.size()), values_.end());
  return tail.Median();
}

double Samples::TailQuantile(double q, std::string_view what, Verdict* verdict) const {
  double beyond = static_cast<double>(values_.size()) * (1.0 - q);
  if (beyond < 10.0) {
    verdict->Fail(std::string(what) + ": " + std::to_string(values_.size()) +
                  " samples leave fewer than ten beyond the percentile");
  }
  return Quantile(q);
}

double ReferenceMs() {
  static const std::vector<std::string> words = [] {
    std::vector<std::string> out;
    uint64_t state = 42;
    for (int i = 0; i < 20000; ++i) {
      std::string word;
      for (int c = 0; c < 6 + i % 7; ++c) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        word += static_cast<char>('a' + (state >> 59) % 13);
      }
      out.push_back(std::move(word));
    }
    return out;
  }();
  const int64_t start = NowNs();
  std::unordered_map<std::string, int> counts;
  for (const std::string& word : words) ++counts[word];
  std::vector<std::string> keys;
  keys.reserve(counts.size());
  for (const auto& [word, count] : counts) keys.push_back(word);
  std::sort(keys.begin(), keys.end());
  const double ms = static_cast<double>(NowNs() - start) / 1e6;
  return keys.empty() ? 0.0 : ms;
}

bool ReferenceInChild(int runs, Samples* out) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::string count = std::to_string(runs);
  char name[] = "perfbench";
  char flag[] = "--reference";
  char* argv[] = {name, flag, count.data(), nullptr};
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  char buf[512];
  while (spawned == 0) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (spawned != 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  Samples times;
  const char* p = text.c_str();
  char* end = nullptr;
  for (double ms = std::strtod(p, &end); end != p; ms = std::strtod(p, &end)) {
    times.Add(ms);
    p = end;
  }
  if (times.size() != static_cast<size_t>(runs)) return false;
  out->Append(times);
  return true;
}

int PrintReferenceTimes(int runs) {
  if (runs <= 0) return 2;
  // A fresh process's first runs also fault in its heap.
  for (int i = 0; i < 3; ++i) ReferenceMs();
  for (int i = 0; i < runs; ++i) std::printf("%.17g\n", ReferenceMs());
  return std::fflush(stdout) == 0 ? 0 : 1;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void OpCounts::Record(const std::string& type, const insightnotes::Status& status,
                      Verdict* verdict) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Count& count = counts_[type];
    ++count.attempted;
    if (!status.ok()) ++count.failed;
  }
  if (!status.ok()) verdict->Fail(type + " failed: " + status.ToString());
}

uint64_t OpCounts::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [type, count] : counts_) total += count.attempted;
  return total;
}

uint64_t OpCounts::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [type, count] : counts_) total += count.failed;
  return total;
}

std::string OpCounts::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  for (const auto& [type, count] : counts_) {
    if (out.size() > 1) out += ", ";
    AppendJsonString(&out, type);
    out += ": {\"attempted\": " + std::to_string(count.attempted) +
           ", \"failed\": " + std::to_string(count.failed) + "}";
  }
  return out + "}";
}

namespace {
// The calling thread's innermost open span and its operation id.
thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_op = 0;
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) {
    tracer_ = nullptr;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    record_.id = tracer_->next_id_++;
  }
  record_.parent = tl_parent;
  record_.op = tl_parent == 0 ? record_.id : tl_op;
  record_.name = name;
  saved_parent_ = tl_parent;
  saved_op_ = tl_op;
  tl_parent = record_.id;
  tl_op = record_.op;
  record_.start_ns = NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = NowNs();
  tl_parent = saved_parent_;
  tl_op = saved_op_;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(record_);
}

Samples Tracer::DurationsUs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Samples out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  return out;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"spans\": [\n", file);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(file,
                 "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, ec == std::errc() ? end : buf);
}

void AppendJsonString(std::string* out, std::string_view text) {
  *out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (const auto& [name, metric] : metrics_) {
    if (out.size() > 1) out += ", ";
    AppendJsonString(&out, name);
    out += ": {\"value\": ";
    AppendJsonNumber(&out, metric.first);
    out += ", \"unit\": ";
    AppendJsonString(&out, metric.second);
    out += "}";
  }
  return out + "}";
}

}  // namespace perfbench
