#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/io/json.hpp"
#include "quest/model/cost.hpp"

namespace servebench {

using namespace quest;

namespace {

// Below this many answers per thread, one thread checks them all.
constexpr std::size_t k_answers_per_thread = 4096;

Verdict refuse(std::string reason) {
  Verdict verdict;
  verdict.reason = std::move(reason);
  return verdict;
}

Verdict check_result(const Request& request, const Catalog_entry& entry,
                     const io::Json& event) {
  if (event.at("id").as_string() != request.id) {
    return refuse("result for id '" + event.at("id").as_string() +
                  "', expected '" + request.id + "'");
  }
  if (!event.at("complete").as_bool()) return refuse("incomplete result");
  const std::size_t n = entry.instance.size();
  const model::Plan plan = io::plan_from_json(event.at("plan"), n);
  if (!plan.is_permutation_of(n)) {
    return refuse("plan is not a permutation of the services");
  }
  Verdict verdict;
  verdict.cost = event.at("cost").as_number();
  verdict.optimal = event.at("termination").as_string() == "optimal";
  // The requests carry no model fields: independent, sequential.
  const double evaluated =
      model::bottleneck_cost(entry.instance, plan, model::Cost_model{});
  if (!same_cost(verdict.cost, evaluated)) {
    return refuse("cost " + std::to_string(verdict.cost) +
                  " but the plan evaluates to " + std::to_string(evaluated));
  }
  if (verdict.cost < entry.reference && !same_cost(verdict.cost,
                                                   entry.reference)) {
    return refuse("cost below the dp optimum");
  }
  if (verdict.optimal && !same_cost(verdict.cost, entry.reference)) {
    return refuse("claimed optimal at " + std::to_string(verdict.cost) +
                  ", dp optimum is " + std::to_string(entry.reference));
  }
  verdict.ok = true;
  return verdict;
}

Verdict check_registered(const Catalog_entry& entry, const io::Json& event) {
  if (event.at("name").as_string() != entry.name) {
    return refuse("registered '" + event.at("name").as_string() + "'");
  }
  const std::string expected = io::hex64(entry.fingerprint);
  if (event.at("fingerprint").as_string() != expected) {
    return refuse("fingerprint " + event.at("fingerprint").as_string() +
                  ", client computed " + expected);
  }
  Verdict verdict;
  verdict.ok = true;
  return verdict;
}

}  // namespace

bool same_cost(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

Verdict check_answer(const Request& request, const Catalog_entry& entry,
                     std::string_view line) {
  try {
    const io::Json event = io::Json::parse(line);
    const std::string kind = event.at("event").as_string();
    const char* expected =
        request.kind == Op_kind::optimize ? "result" : "registered";
    if (kind != expected) {
      return refuse("got a '" + kind + "' event: " + std::string(line));
    }
    return request.kind == Op_kind::optimize
               ? check_result(request, entry, event)
               : check_registered(entry, event);
  } catch (const std::exception& error) {
    return refuse(std::string("malformed answer (") + error.what() + ")");
  }
}

Checked check_exchanges(const Workload& workload,
                        const std::vector<Request>& sequence,
                        const Load_result& load, Outcome& outcome) {
  // Answers are checked on a few threads (a window holds up to a few
  // hundred thousand), then counted in order.
  const std::size_t count = load.exchanges.size();
  std::vector<Verdict> verdicts(count);
  const std::size_t threads = std::min<std::size_t>(
      std::max(1U, std::thread::hardware_concurrency()),
      count / k_answers_per_thread + 1);
  auto check_range = [&](std::size_t first) {
    for (std::size_t i = first; i < count; i += threads) {
      const Exchange& exchange = load.exchanges[i];
      if (!std::isfinite(exchange.latency_seconds)) continue;
      const Request& request = sequence[exchange.request];
      verdicts[i] = check_answer(request, workload.catalog[request.entry],
                                 exchange.response);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(check_range, t);
  check_range(0);
  for (auto& thread : pool) thread.join();

  Checked checked;
  checked.ok.assign(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    const Exchange& exchange = load.exchanges[i];
    const Request& request = sequence[exchange.request];
    ++outcome.attempted;
    if (!std::isfinite(exchange.latency_seconds)) {
      outcome.fail(request.id + ": " + exchange.response);
      continue;
    }
    if (!verdicts[i].ok) {
      outcome.fail((request.id.empty() ? "register" : request.id) + ": " +
                   verdicts[i].reason);
      continue;
    }
    checked.ok[i] = true;
    if (request.kind == Op_kind::optimize) {
      checked.ratios.push_back(verdicts[i].cost /
                               workload.catalog[request.entry].reference);
    }
  }
  return checked;
}

}  // namespace servebench
