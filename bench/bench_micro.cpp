// Micro-benchmarks (google-benchmark) for the hot paths every experiment
// leans on: full-plan cost evaluation, incremental append/pop, epsilon-bar
// in both modes, the DP inner loop, the search kernels on the serving
// benchmark's hard-search shape, RNG draws, JSON round-trips, and the
// serving codec (an inline-document optimize line in, a result event out).

#include <benchmark/benchmark.h>

#include "quest/core/branch_and_bound.hpp"
#include "quest/core/engines.hpp"
#include "quest/core/measures.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/model/cost.hpp"
#include "quest/opt/dp.hpp"
#include "quest/serve/protocol.hpp"
#include "quest/workload/generators.hpp"

namespace {

using namespace quest;

model::Instance bench_instance(std::size_t n, double sigma_lo = 0.1) {
  Rng rng(12345);
  workload::Uniform_spec spec;
  spec.n = n;
  spec.selectivity_min = sigma_lo;
  return workload::make_uniform(spec, rng);
}

void BM_bottleneck_cost(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  const auto plan = model::Plan::identity(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::bottleneck_cost(instance, plan));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_bottleneck_cost)->Arg(8)->Arg(16)->Arg(32);

void BM_evaluator_append_pop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  model::Partial_plan_evaluator eval(instance);
  for (auto _ : state) {
    for (model::Service_id id = 0; id < n; ++id) eval.append(id);
    benchmark::DoNotOptimize(eval.epsilon());
    for (std::size_t i = 0; i < n; ++i) eval.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_evaluator_append_pop)->Arg(8)->Arg(16)->Arg(32);

template <core::Epsilon_bar_mode mode>
void BM_epsilon_bar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  const core::Epsilon_bar ebar(instance, model::Cost_model{}, mode);
  const core::Transfer_rows rows(instance);
  model::Partial_plan_evaluator eval(instance);
  eval.append(0);
  eval.append(1);
  std::vector<model::Service_id> remaining;
  for (model::Service_id id = 2; id < n; ++id) remaining.push_back(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebar.evaluate(eval, remaining, rows));
  }
}
BENCHMARK_TEMPLATE(BM_epsilon_bar, core::Epsilon_bar_mode::exact)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);
BENCHMARK_TEMPLATE(BM_epsilon_bar, core::Epsilon_bar_mode::loose)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

void BM_bnb_selective(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  opt::Request request;
  request.instance = &instance;
  for (auto _ : state) {
    core::Bnb_optimizer bnb;
    benchmark::DoNotOptimize(bnb.optimize(request).cost);
  }
}
BENCHMARK(BM_bnb_selective)->Arg(10)->Arg(14)->Arg(18);

void BM_bnb_hard(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n, 0.9);
  opt::Request request;
  request.instance = &instance;
  for (auto _ : state) {
    core::Bnb_optimizer bnb;
    benchmark::DoNotOptimize(bnb.optimize(request).cost);
  }
}
BENCHMARK(BM_bnb_hard)->Arg(10)->Arg(12);

void BM_dp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  opt::Request request;
  request.instance = &instance;
  for (auto _ : state) {
    opt::Dp_optimizer dp;
    benchmark::DoNotOptimize(dp.optimize(request).cost);
  }
}
BENCHMARK(BM_dp)->Arg(10)->Arg(14);

// The search kernels on hard-search's shape: a bottleneck-TSP reduction
// under node_limit 4000, the budget servebench gives every search. One
// engine per iteration, as a server job builds one.
void run_btsp(benchmark::State& state, const char* spec) {
  Rng rng(100);
  workload::Bottleneck_tsp_spec btsp;
  btsp.n = static_cast<std::size_t>(state.range(0));
  const auto instance = workload::make_bottleneck_tsp(btsp, rng);
  opt::Request request;
  request.instance = &instance;
  request.budget.node_limit = 4000;
  request.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_optimizer(spec)->optimize(request).cost);
  }
}

void BM_frontier_btsp(benchmark::State& state) {
  run_btsp(state, "frontier");
}
BENCHMARK(BM_frontier_btsp)->Arg(12)->Arg(14);

void BM_portfolio_btsp(benchmark::State& state) {
  run_btsp(state, "portfolio");
}
BENCHMARK(BM_portfolio_btsp)->Arg(12)->Arg(14);

void BM_bnb_btsp(benchmark::State& state) { run_btsp(state, "bnb"); }
BENCHMARK(BM_bnb_btsp)->Arg(12)->Arg(14);

// Correlated-model counterparts: the overhead of conditional
// selectivities on the same hot paths (the independent numbers above are
// the regression-gated baseline).
void BM_bottleneck_cost_correlated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  const auto cost_model =
      model::Cost_model::correlated_seeded(n, 0.5, 7);
  const auto plan = model::Plan::identity(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::bottleneck_cost(instance, plan, cost_model));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_bottleneck_cost_correlated)->Arg(8)->Arg(16)->Arg(32);

void BM_evaluator_append_pop_correlated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  model::Partial_plan_evaluator eval(
      instance, model::Cost_model::correlated_seeded(n, 0.5, 7));
  for (auto _ : state) {
    for (model::Service_id id = 0; id < n; ++id) eval.append(id);
    benchmark::DoNotOptimize(eval.epsilon());
    for (std::size_t i = 0; i < n; ++i) eval.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_evaluator_append_pop_correlated)->Arg(8)->Arg(16)->Arg(32);

void BM_bnb_correlated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = bench_instance(n);
  opt::Request request;
  request.instance = &instance;
  request.model = model::Cost_model::correlated_seeded(n, 0.5, 7);
  for (auto _ : state) {
    core::Bnb_optimizer bnb;
    benchmark::DoNotOptimize(bnb.optimize(request).cost);
  }
}
BENCHMARK(BM_bnb_correlated)->Arg(10)->Arg(12);

void BM_rng_uniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_rng_uniform);

void BM_json_round_trip(benchmark::State& state) {
  const auto instance = bench_instance(12);
  const std::string text = io::to_json(instance).dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        io::instance_from_json(io::Json::parse(text)).instance.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_json_round_trip);

/// The request side of an exact-tier cache hit on an inline document:
/// one optimize line (n=13) decoded into an Optimize_op.
void BM_parse_op_inline(benchmark::State& state) {
  io::Json op;
  op.set("op", "optimize");
  op.set("id", "r1");
  op.set("instance", io::to_json(bench_instance(13)));
  op.set("optimizer", "portfolio");
  io::Json budget;
  budget.set("node_limit", 4000);
  op.set("budget", std::move(budget));
  op.set("seed", 1);
  const std::string line = op.dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::parse_op(line));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_parse_op_inline);

/// The answer side of an exact-tier cache hit: a cached result event
/// (n=13) built and dumped.
void BM_result_event_dump(benchmark::State& state) {
  const auto instance = bench_instance(13);
  const auto plan = model::Plan::identity(13);
  const double cost = model::bottleneck_cost(instance, plan);
  const std::string model_key = model::Cost_model{}.key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::result_event("r1", opt::Termination::optimal, plan, cost,
                            true, true, true, false, model_key, 0.0, nullptr)
            .dump());
  }
}
BENCHMARK(BM_result_event_dump);

}  // namespace

BENCHMARK_MAIN();
