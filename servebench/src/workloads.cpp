#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "quest/common/rng.hpp"
#include "quest/core/engines.hpp"
#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/workload/generators.hpp"

namespace servebench {

using namespace quest;

namespace {

// Catalog sizes. The hits catalog is large enough that registering and
// filling it, not process start, dominates set-up; the hard catalog is
// small because each of its requests is milliseconds of search.
constexpr std::size_t k_hits_catalog = 128;
constexpr std::size_t k_hard_tsp = 192;
constexpr std::size_t k_hard_heavy = 64;
// Warm-up passes over the timed mix after the cache is filled.
constexpr std::size_t k_warmup_passes = 2;
// Rounds of the shuffled mix in the timed sequence (cycled when a
// window outlasts them).
constexpr std::size_t k_rounds = 16;
// Work-unit budgets: every request stops on node_limit, never a clock.
constexpr double k_hits_node_limit = 20000;
constexpr double k_hard_node_limit = 4000;
// One op in five of fleet-replicated is a register over this many
// distinct documents.
constexpr std::size_t k_register_set = 16;
constexpr std::size_t k_registers_per_round = k_hits_catalog / 4;

const char* const k_hard_engines[] = {"portfolio", "bnb"};

/// "c12", "q3", ...: instance names and request ids.
std::string label(char prefix, std::size_t index) {
  std::string text(1, prefix);
  text += std::to_string(index);
  return text;
}

std::uint64_t entry_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + index;
  return splitmix64(state);
}

model::Instance hits_instance(std::uint64_t seed, std::size_t index) {
  Rng rng(entry_seed(seed, index));
  const std::size_t n = 10 + (index / 4) % 7;
  switch (index % 4) {
    case 0: {
      workload::Uniform_spec spec;
      spec.n = n;
      return workload::make_uniform(spec, rng);
    }
    case 1: {
      workload::Clustered_spec spec;
      spec.n = n;
      return workload::make_clustered(spec, rng);
    }
    case 2: {
      workload::Euclidean_spec spec;
      spec.n = n;
      return workload::make_euclidean(spec, rng);
    }
    default: {
      workload::Heavy_tail_spec spec;
      spec.n = n;
      return workload::make_heavy_tailed(spec, rng);
    }
  }
}

model::Instance hard_instance(std::uint64_t seed, std::size_t index) {
  Rng rng(entry_seed(seed, index));
  if (index < k_hard_tsp) {
    workload::Bottleneck_tsp_spec spec;
    spec.n = 12 + index % 3;
    return workload::make_bottleneck_tsp(spec, rng);
  }
  workload::Heavy_tail_spec spec;
  spec.n = 15 + index % 2;
  return workload::make_heavy_tailed(spec, rng);
}

Catalog_entry make_entry(model::Instance instance, std::string name) {
  const std::uint64_t fingerprint = io::fingerprint(instance);
  return Catalog_entry{std::move(name), std::move(instance), fingerprint};
}

std::string with_newline(const io::Json& op) { return op.dump() + "\n"; }

Request register_request(const Workload& w, std::size_t entry) {
  io::Json op;
  op.set("op", io::Json("register"));
  op.set("name", io::Json(w.catalog[entry].name));
  op.set("instance", io::to_json(w.catalog[entry].instance));
  return Request{Op_kind::register_op, entry, {}, with_newline(op)};
}

struct Optimize_shape {
  bool inline_document = false;
  const char* engine = "portfolio";
  double node_limit = k_hits_node_limit;
  bool cache = true;
};

Request optimize_request(const Workload& w, std::size_t entry,
                         const std::string& id, const Optimize_shape& shape) {
  io::Json op;
  op.set("op", io::Json("optimize"));
  op.set("id", io::Json(id));
  if (shape.inline_document) {
    op.set("instance", io::to_json(w.catalog[entry].instance));
  } else {
    op.set("instance", io::Json(w.catalog[entry].name));
  }
  op.set("optimizer", io::Json(shape.engine));
  io::Json budget;
  budget.set("node_limit", io::Json(shape.node_limit));
  op.set("budget", std::move(budget));
  op.set("seed", io::Json(1));
  if (!shape.cache) op.set("cache", io::Json(false));
  return Request{Op_kind::optimize, entry, id, with_newline(op)};
}

/// Rounds of seeded shuffles of `mix`.
std::vector<Request> shuffled_rounds(const std::vector<Request>& mix,
                                     std::uint64_t seed) {
  Rng rng(seed ^ 0x5eed5eedULL);
  std::vector<Request> sequence;
  sequence.reserve(mix.size() * k_rounds);
  for (std::size_t round = 0; round < k_rounds; ++round) {
    std::vector<Request> shuffled = mix;
    rng.shuffle(shuffled);
    sequence.insert(sequence.end(), shuffled.begin(), shuffled.end());
  }
  return sequence;
}

std::vector<Request> repeated(const std::vector<Request>& pass,
                              std::size_t times) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < times; ++i) {
    out.insert(out.end(), pass.begin(), pass.end());
  }
  return out;
}

/// inline-hits, fleet-sharded and fleet-replicated share one catalog
/// shape: 128 instances over four families and n = 10..16.
void build_hits(Workload& w, std::uint64_t seed, bool named,
                bool with_registers) {
  for (std::size_t i = 0; i < k_hits_catalog; ++i) {
    w.catalog.push_back(make_entry(hits_instance(seed, i),
                                   named ? label('c', i) : ""));
  }
  Optimize_shape shape;
  shape.inline_document = !named;
  std::vector<Request> hits;
  for (std::size_t i = 0; i < w.catalog.size(); ++i) {
    hits.push_back(optimize_request(w, i, label('q', i), shape));
  }
  if (named) {
    std::vector<Request> registers;
    for (std::size_t i = 0; i < w.catalog.size(); ++i) {
      registers.push_back(register_request(w, i));
    }
    w.setup.push_back(std::move(registers));
  }
  // The fill pass computes every plan once; everything after it is an
  // exact-tier hit.
  w.setup.push_back(hits);
  std::vector<Request> mix = hits;
  if (with_registers) {
    for (std::size_t k = 0; k < k_registers_per_round; ++k) {
      mix.push_back(register_request(w, k % k_register_set));
    }
  }
  w.setup.push_back(repeated(mix, k_warmup_passes));
  w.timed = shuffled_rounds(mix, seed);
}

void build_hard(Workload& w, std::uint64_t seed) {
  for (std::size_t i = 0; i < k_hard_tsp + k_hard_heavy; ++i) {
    w.catalog.push_back(
        make_entry(hard_instance(seed, i), label('h', i)));
  }
  std::vector<Request> registers;
  for (std::size_t i = 0; i < w.catalog.size(); ++i) {
    registers.push_back(register_request(w, i));
  }
  w.setup.push_back(std::move(registers));
  std::vector<Request> mix;
  for (std::size_t i = 0; i < w.catalog.size(); ++i) {
    for (const char* engine : k_hard_engines) {
      Optimize_shape shape;
      shape.engine = engine;
      shape.node_limit = k_hard_node_limit;
      shape.cache = false;
      mix.push_back(optimize_request(
          w, i, label('q', mix.size()), shape));
    }
  }
  // One warm-up pass: every (instance, engine) pair solved once.
  w.setup.push_back(mix);
  w.timed = shuffled_rounds(mix, seed);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "inline-hits", "hard-search", "fleet-sharded", "fleet-replicated"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "inline-hits") {
    w.deployment = Deployment{1, 2, 1024, 0};
    build_hits(w, seed, /*named=*/false, /*with_registers=*/false);
  } else if (name == "hard-search") {
    w.deployment = Deployment{1, 2, 256, 0};
    build_hard(w, seed);
  } else if (name == "fleet-sharded") {
    w.deployment = Deployment{2, 1, 256, 1};
    build_hits(w, seed, /*named=*/true, /*with_registers=*/false);
  } else if (name == "fleet-replicated") {
    w.deployment = Deployment{3, 1, 256, 2};
    build_hits(w, seed, /*named=*/true, /*with_registers=*/true);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

void compute_references(Workload& workload, std::size_t threads) {
  std::atomic<std::size_t> next{0};
  auto solve = [&] {
    const auto dp = core::make_optimizer("dp");
    for (std::size_t i = next.fetch_add(1); i < workload.catalog.size();
         i = next.fetch_add(1)) {
      opt::Request request;
      request.instance = &workload.catalog[i].instance;
      const opt::Result result = dp->optimize(request);
      if (!result.proven_optimal) {
        throw std::runtime_error("dp did not prove an optimum");
      }
      workload.catalog[i].reference = result.cost;
    }
  };
  std::vector<std::thread> pool;
  std::exception_ptr failure;
  std::mutex failure_mutex;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back([&] {
      try {
        solve();
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        failure = std::current_exception();
      }
    });
  }
  for (auto& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace servebench
