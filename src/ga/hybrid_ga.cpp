#include "src/ga/hybrid_ga.h"

#include <algorithm>
#include <stdexcept>

namespace psga::ga {

IslandsOfCellularGa::IslandsOfCellularGa(ProblemPtr problem,
                                         IslandsOfCellularConfig config,
                                         par::ThreadPool* pool)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      pool_(pool != nullptr ? pool : &par::default_pool()),
      migration_rng_(0) {
  // Shared memoization across the tori: migrants are cloned island to
  // island, so one cache catches the duplicates. Built here (not in
  // init()) so run() can snapshot per-run counter deltas.
  cache_ =
      EvalCache::make(config_.cell.eval_cache, config_.cell.shared_eval_cache);
  obs::ensure_registry(config_.cell.metrics);
  attach_obs(config_.cell.metrics, config_.cell.tracer);
  migrants_ = &config_.cell.metrics->counter("engine.migrants");
}

void IslandsOfCellularGa::init() {
  par::Rng root(config_.seed);
  migration_rng_ = root.split(0x20000);
  islands_.clear();
  islands_.reserve(static_cast<std::size_t>(config_.islands));
  // The islands step sequentially (each internally parallel over
  // cells), so their evaluators may keep any backend, the pool included.
  for (int i = 0; i < config_.islands; ++i) {
    CellularConfig cell = config_.cell;
    cell.shared_eval_cache = cache_;
    cell.seed = root.split(static_cast<std::uint64_t>(i + 1))();
    cell.termination = config_.termination;
    islands_.emplace_back(problem_, cell, pool_);
  }
  for (auto& island : islands_) island.init();
  generation_ = 0;
}

void IslandsOfCellularGa::step() {
  // The torus steps run one after another but each is internally
  // parallel over cells (that is where the work is).
  for (auto& island : islands_) island.step();
  // Ring migration between islands, far less frequent than diffusion.
  if (config_.migration_interval > 0 &&
      (generation_ + 1) % config_.migration_interval == 0 &&
      islands_.size() > 1) {
    const obs::Span span(tracer_.get(), "migration");
    for (std::size_t i = 0; i < islands_.size(); ++i) {
      CellularGa& source = islands_[i];
      CellularGa& dest = islands_[(i + 1) % islands_.size()];
      for (int m = 0; m < config_.migrants; ++m) {
        const int cell = static_cast<int>(
            migration_rng_.below(static_cast<std::uint64_t>(dest.cells())));
        dest.replace_cell(cell, source.best(), source.best_objective());
        migrants_->add();
        if (observer_ != nullptr) {
          observer_->on_migration(MigrationEvent{
              generation_ + 1, static_cast<int>(i),
              static_cast<int>((i + 1) % islands_.size()),
              source.best_objective()});
        }
      }
    }
  }
  ++generation_;
}

double IslandsOfCellularGa::best_objective() const {
  if (islands_.empty()) return 0.0;
  double best = islands_.front().best_objective();
  for (const auto& island : islands_) {
    best = std::min(best, island.best_objective());
  }
  return best;
}

const Genome& IslandsOfCellularGa::best() const {
  const CellularGa* best_island = &islands_.front();
  for (const auto& island : islands_) {
    if (island.best_objective() < best_island->best_objective()) {
      best_island = &island;
    }
  }
  return best_island->best();
}

long long IslandsOfCellularGa::evaluations() const {
  long long evaluations = 0;
  for (const auto& island : islands_) evaluations += island.evaluations();
  return evaluations;
}

int IslandsOfCellularGa::population_size() const {
  int size = 0;
  for (const auto& island : islands_) size += island.population_size();
  return size;
}

const Genome& IslandsOfCellularGa::individual(int i) const {
  for (const auto& island : islands_) {
    if (i < island.population_size()) return island.individual(i);
    i -= island.population_size();
  }
  throw std::out_of_range(
      "IslandsOfCellularGa::individual: index past population");
}

double IslandsOfCellularGa::objective_of(int i) const {
  for (const auto& island : islands_) {
    if (i < island.population_size()) return island.objective_of(i);
    i -= island.population_size();
  }
  throw std::out_of_range(
      "IslandsOfCellularGa::objective_of: index past population");
}

void IslandsOfCellularGa::fill_sections(RunResult& result) const {
  IslandSection section;
  section.best.reserve(islands_.size());
  section.best_genome.reserve(islands_.size());
  for (const auto& island : islands_) {
    section.best.push_back(island.best_objective());
    section.best_genome.push_back(island.best());
  }
  section.surviving = static_cast<int>(islands_.size());
  result.islands = std::move(section);
}

IslandGaConfig make_torus_island_config(int islands, GaConfig base,
                                        int migration_interval) {
  IslandGaConfig config;
  config.islands = islands;
  config.base = std::move(base);
  config.migration.topology = Topology::kTorus;
  config.migration.interval = migration_interval;
  config.migration.policy = MigrationPolicy::kBestReplaceRandom;
  return config;
}

}  // namespace psga::ga
