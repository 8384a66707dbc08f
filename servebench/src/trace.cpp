#include "trace.hpp"

#include <fstream>

namespace servebench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const Span_info& info(Span_name name) {
  static const Span_info table[] = {
      {"request", Layer::request, false},
      {"router.parse", Layer::io, false},
      {"router.decode", Layer::io, false},
      {"router.fingerprint", Layer::io, false},
      {"store.shard_of", Layer::store, false},
      {"store.replicas", Layer::store, false},
      {"cluster.journal_record", Layer::cluster, false},
      {"protocol.parse_op", Layer::protocol, true},
      {"io.fingerprint", Layer::io, true},
      {"instance_store.get", Layer::instance_store, true},
      {"instance_store.put", Layer::instance_store, true},
      {"model.bind", Layer::model, true},
      {"plan_cache.lookup", Layer::plan_cache, true},
      {"plan_cache.insert", Layer::plan_cache, true},
      {"opt.build", Layer::opt, true},
      {"opt.search", Layer::opt, true},
      {"protocol.encode", Layer::protocol, true},
      {"model.eval", Layer::model, false},
  };
  return table[static_cast<std::size_t>(name)];
}

void Tracer::open(Span_name name, std::uint64_t request, bool timed) {
  if (!enabled) return;
  Span span;
  span.request = request;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.timed = timed;
  span.start_ns = now_ns();
  spans.push_back(span);
  open_.push_back(static_cast<std::uint32_t>(spans.size()));
}

void Tracer::close() {
  if (!enabled) return;
  spans[open_.back() - 1].end_ns = now_ns();
  open_.pop_back();
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "request,span,parent,name,timed,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << span.request << ',' << i + 1 << ',' << span.parent << ','
        << info(span.name).name << ',' << (span.timed ? 1 : 0) << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent != 0) {
      self[span.parent - 1] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

}  // namespace servebench
