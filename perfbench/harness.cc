#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

namespace {
// Histogram buckets: [kHistMin * kHistGrowth^i, kHistMin * kHistGrowth^(i+1))
// covering 0.01 .. 1e9 (us), plus underflow and overflow buckets.
constexpr double kHistMin = 0.01;
constexpr double kHistGrowth = 1.001;
const double kLogGrowth = std::log(kHistGrowth);
const size_t kHistBuckets =
    static_cast<size_t>(std::log(1e9 / kHistMin) / kLogGrowth) + 2;

// Spans kept for the trace file; aggregation covers every op regardless.
constexpr size_t kRetainedSpans = 200000;

// Derived spans come from the program's own clock readings, taken inside
// the span that contains them; allow rounding of their ms/us doubles.
constexpr int64_t kNestSlackNs = 1000;
}  // namespace

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t BlockOrder::At(int64_t op) {
  const int64_t n = static_cast<int64_t>(perm_.size());
  if (op / n != block_) {
    block_ = op / n;
    for (size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
    uint64_t h = Mix(seed_, static_cast<uint64_t>(block_));
    for (size_t i = perm_.size(); i > 1; --i) {
      h = Mix(h, i);
      std::swap(perm_[i - 1], perm_[h % i]);
    }
  }
  return perm_[op % n];
}

SpeedGauge::SpeedGauge() : buffer_(size_t{1} << 19, 0) {}

void SpeedGauge::Measure() {
  // Two parts, whose sum tracked the workloads' op times best among the
  // kernels tried: xorshift-indexed read-modify-writes over a 2 MiB buffer
  // (ALU work plus cache misses), then small-node map inserts with string
  // formatting (allocator and branchy library code).
  int64_t start = NowNs();
  uint64_t x = state_;
  const uint64_t mask = buffer_.size() - 1;
  for (int i = 0; i < 12000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    buffer_[x & mask] += static_cast<uint32_t>(x);
  }
  std::map<uint64_t, std::string> nodes;
  for (int i = 0; i < 300; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    nodes[x % 997] = std::to_string(x);
  }
  state_ = x + nodes.size();
  times_ns_.push_back(static_cast<double>(NowNs() - start));
}

double SpeedGauge::Factor(size_t recent) const {
  if (times_ns_.empty()) return 1.0;
  size_t from = times_ns_.size() > recent ? times_ns_.size() - recent : 0;
  std::vector<double> last(times_ns_.begin() + from, times_ns_.end());
  return kReferenceNs / Quantile(std::move(last), 0.5);
}

double SpeedGauge::MedianFactor() const {
  if (times_ns_.empty()) return 1.0;
  return kReferenceNs / Quantile(times_ns_, 0.5);
}

Histogram::Histogram() : buckets_(kHistBuckets, 0) {}

void Histogram::Add(double value) {
  size_t i = 0;
  if (value >= kHistMin) {
    i = std::min(kHistBuckets - 1,
                 1 + static_cast<size_t>(std::log(value / kHistMin) /
                                         kLogGrowth));
  }
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Rank as in the sorted-vector Quantile; samples inside a bucket are
  // taken as spread evenly over it (geometrically).
  double rank = q * static_cast<double>(count_ - 1);
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (rank < static_cast<double>(seen + buckets_[i])) {
      if (i == 0) return kHistMin;
      double frac = (rank - static_cast<double>(seen) + 0.5) /
                    static_cast<double>(buckets_[i]);
      return kHistMin * std::exp((static_cast<double>(i - 1) + frac) *
                                 kLogGrowth);
    }
    seen += buckets_[i];
  }
  return kHistMin * std::exp(static_cast<double>(kHistBuckets) * kLogGrowth);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tracer::Tracer() {
  Layer("bench.op");
  op_spans_.reserve(64);
}

int Tracer::Layer(const std::string& name) {
  auto [it, inserted] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    totals_.emplace_back();
  }
  return it->second;
}

void Tracer::BeginOp(int64_t op, int64_t start_ns) {
  op_ = op;
  op_spans_.clear();
  stack_.clear();
  Span root;
  root.layer = 0;
  root.op = op;
  root.start_ns = start_ns;
  op_spans_.push_back(root);
  stack_.push_back(0);
}

int Tracer::Open(int layer) {
  Span span;
  span.layer = layer;
  span.parent = stack_.back();
  span.op = op_;
  span.start_ns = NowNs();
  op_spans_.push_back(span);
  int id = static_cast<int>(op_spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int span) {
  op_spans_[span].end_ns = NowNs();
  stack_.pop_back();
}

void Tracer::AddDerived(int layer, int64_t start_ns, int64_t dur_ns) {
  Span span;
  span.layer = layer;
  span.parent = stack_.back();
  span.op = op_;
  span.start_ns = start_ns;
  span.end_ns = start_ns + dur_ns;
  span.derived = true;
  op_spans_.push_back(span);
}

disc::Status Tracer::EndOp(int64_t end_ns, double factor) {
  op_spans_[0].end_ns = end_ns;
  if (stack_.size() != 1) {
    return disc::Status::Internal("span left open at op end");
  }
  // Children of one parent are recorded in start order: each opens after
  // its previous sibling closed (derived spans are laid out sequentially).
  const size_t n = op_spans_.size();
  std::vector<int64_t> child_ns(n, 0);
  std::vector<int64_t> last_child_end(n, 0);
  for (size_t i = 0; i < n; ++i) last_child_end[i] = op_spans_[i].start_ns;
  for (size_t i = 1; i < n; ++i) {
    const Span& s = op_spans_[i];
    const Span& p = op_spans_[s.parent];
    if (s.end_ns < s.start_ns || s.start_ns < p.start_ns - kNestSlackNs ||
        s.end_ns > p.end_ns + kNestSlackNs ||
        s.start_ns < last_child_end[s.parent] - kNestSlackNs) {
      return disc::Status::Internal("span " + names_[s.layer] +
                                    " does not nest inside " +
                                    names_[p.layer]);
    }
    last_child_end[s.parent] = s.end_ns;
    child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  int64_t self_sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = op_spans_[i];
    int64_t dur = s.end_ns - s.start_ns;
    int64_t self = dur - child_ns[i];
    if (self < -kNestSlackNs) {
      return disc::Status::Internal("children of " + names_[s.layer] +
                                    " outlast it");
    }
    LayerTotals& t = totals_[s.layer];
    t.spans += 1;
    t.dur_ns += static_cast<double>(dur) * factor;
    t.self_ns += static_cast<double>(self) * factor;
    self_sum += self;
  }
  // Layer self times plus the root's own (bench.unattributed) must add up
  // to the op's wall time.
  if (self_sum != op_spans_[0].end_ns - op_spans_[0].start_ns) {
    return disc::Status::Internal("layer self times do not sum to op wall");
  }
  ++ops_;
  for (const Span& s : op_spans_) {
    if (retained_.size() < kRetainedSpans) {
      retained_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  return disc::Status::OK();
}

disc::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return disc::Status::Internal("cannot write " + path);
  int64_t base = retained_.empty() ? 0 : retained_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < retained_.size(); ++i) {
    const Span& s = retained_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld%s}}\n",
                 i == 0 ? "" : ",", names_[s.layer].c_str(),
                 static_cast<double>(s.start_ns - base) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                 static_cast<long long>(s.op),
                 s.derived ? ",\"derived\":true" : "");
  }
  std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%lld}}\n",
               static_cast<long long>(dropped_));
  if (std::fclose(f) != 0) return disc::Status::Internal("close " + path);
  return disc::Status::OK();
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

double MetricSet::Get(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

}  // namespace perfbench
