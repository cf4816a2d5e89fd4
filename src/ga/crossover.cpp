#include "src/ga/crossover.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace psga::ga {

namespace {

/// Per-thread operator scratch. Island and cellular lanes breed through
/// one shared `const` operator, so the buffers live per thread — never in
/// the operator. Marks are epoch stamps: starting a new mark set bumps
/// the epoch instead of clearing the array.
struct Scratch {
  std::vector<std::uint32_t> stamp;  ///< value -> epoch of its last mark
  std::uint32_t epoch = 0;
  std::vector<int> count;            ///< per-value counts / maps
  std::vector<int> first;            ///< per-position buffers
  std::vector<int> second;
  std::vector<std::uint8_t> flag;    ///< per-position / per-value coins

  /// Starts an empty mark set over values [0, n).
  void clear_marks(std::size_t n) {
    if (stamp.size() < n) stamp.resize(n, 0);
    if (++epoch == 0) {  // wrapped: stale stamps could alias, so reset
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
  }
  bool marked(int v) const {
    return stamp[static_cast<std::size_t>(v)] == epoch;
  }
  void mark(int v) { stamp[static_cast<std::size_t>(v)] = epoch; }
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// `count` = per-value counts of the full chromosome multiset.
void full_multiset(const GenomeTraits& traits, std::vector<int>& count) {
  if (traits.seq_kind == SeqKind::kJobRepetition) {
    count.assign(traits.repeats.begin(), traits.repeats.end());
  } else {
    count.assign(static_cast<std::size_t>(traits.seq_length), 1);
  }
}

/// Fills child positions [first, last) with the multiset `remaining`
/// (per-value counts) taken in `donor` order. Branch-free: every donor
/// gene is written to the gather buffer, and only a taken one advances
/// the cursor.
void fill_in_donor_order(const std::vector<int>& donor,
                         std::vector<int>& remaining, std::size_t first,
                         std::size_t last, std::vector<int>& child) {
  std::vector<int>& taken = scratch().first;
  taken.resize(donor.size());
  std::size_t count = 0;
  for (int v : donor) {
    int& left = remaining[static_cast<std::size_t>(v)];
    const int take = left > 0 ? 1 : 0;
    left -= take;
    taken[count] = v;
    count += static_cast<std::size_t>(take);
  }
  std::copy_n(taken.begin(), std::min(count, last - first),
              child.begin() + static_cast<std::ptrdiff_t>(first));
}

int max_value(const GenomeTraits& traits) {
  return traits.seq_kind == SeqKind::kJobRepetition
             ? traits.job_count()
             : traits.seq_length;
}

/// One-point "order" crossover on a multiset chromosome: child = parent's
/// prefix [0, cut) + the remaining multiset in donor order. `child`
/// arrives as a copy of `keep` (the cross_seq contract).
void one_point_multiset(const std::vector<int>& keep,
                        const std::vector<int>& donor,
                        const GenomeTraits& traits, std::size_t cut,
                        std::vector<int>& child) {
  std::vector<int>& remaining = scratch().count;
  full_multiset(traits, remaining);
  for (std::size_t i = 0; i < cut; ++i) {
    --remaining[static_cast<std::size_t>(keep[i])];
  }
  fill_in_donor_order(donor, remaining, cut, keep.size(), child);
}

}  // namespace

void Crossover::cross(const Genome& a, const Genome& b,
                      const GenomeTraits& traits, Genome& child1,
                      Genome& child2, par::Rng& rng) const {
  child1 = a;
  child2 = b;
  // Auxiliary channels first (sequencing operators may overwrite them).
  if (!traits.assign_domain.empty()) {
    for (std::size_t i = 0; i < child1.assign.size(); ++i) {
      if (rng.chance(0.5)) std::swap(child1.assign[i], child2.assign[i]);
    }
  }
  if (traits.key_length > 0 && supports(traits.seq_kind) &&
      traits.seq_kind != SeqKind::kNone) {
    // Whole-arithmetic blend keeps keys in range for mixed-channel genomes
    // (e.g. lot streaming: permutation + split keys).
    const double alpha = rng.uniform();
    for (std::size_t i = 0; i < child1.keys.size(); ++i) {
      const double ka = a.keys[i];
      const double kb = b.keys[i];
      child1.keys[i] = alpha * ka + (1.0 - alpha) * kb;
      child2.keys[i] = alpha * kb + (1.0 - alpha) * ka;
    }
  }
  cross_seq(a, b, traits, child1, child2, rng);
}

// --- OnePointOrderCrossover ---------------------------------------------------

bool OnePointOrderCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void OnePointOrderCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& traits,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  const std::size_t cut = 1 + rng.below(n - 1);
  one_point_multiset(a.seq, b.seq, traits, cut, child1.seq);
  one_point_multiset(b.seq, a.seq, traits, cut, child2.seq);
}

// --- TwoPointOrderCrossover ---------------------------------------------------

bool TwoPointOrderCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void TwoPointOrderCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& traits,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  std::size_t lo = rng.below(n);
  std::size_t hi = rng.below(n);
  if (lo > hi) std::swap(lo, hi);
  if (lo == hi) return;  // degenerate window: children stay parent copies

  std::vector<int>& remaining = scratch().count;
  auto build = [&](const std::vector<int>& keep, const std::vector<int>& donor,
                   std::vector<int>& child) {
    full_multiset(traits, remaining);
    for (std::size_t i = 0; i < lo; ++i) {
      --remaining[static_cast<std::size_t>(keep[i])];
    }
    for (std::size_t i = hi; i < n; ++i) {
      --remaining[static_cast<std::size_t>(keep[i])];
    }
    fill_in_donor_order(donor, remaining, lo, hi, child);
  };
  build(a.seq, b.seq, child1.seq);
  build(b.seq, a.seq, child2.seq);
}

// --- PmxCrossover ---------------------------------------------------------

void PmxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  std::size_t lo = rng.below(n);
  std::size_t hi = rng.below(n);
  if (lo > hi) std::swap(lo, hi);
  ++hi;  // window [lo, hi)

  Scratch& s = scratch();
  std::vector<int>& mapped_to = s.count;  // read only for marked values
  mapped_to.resize(static_cast<std::size_t>(traits.seq_length));
  auto build = [&](const std::vector<int>& base, const std::vector<int>& window_src,
                   std::vector<int>& child) {
    s.clear_marks(static_cast<std::size_t>(traits.seq_length));
    for (std::size_t i = lo; i < hi; ++i) {
      child[i] = window_src[i];
      s.mark(window_src[i]);
      mapped_to[static_cast<std::size_t>(window_src[i])] = base[i];
    }
    auto repair = [&](std::size_t i) {
      int v = base[i];
      while (s.marked(v)) v = mapped_to[static_cast<std::size_t>(v)];
      child[i] = v;
    };
    for (std::size_t i = 0; i < lo; ++i) repair(i);
    for (std::size_t i = hi; i < n; ++i) repair(i);
  };
  build(a.seq, b.seq, child1.seq);
  build(b.seq, a.seq, child2.seq);
}

// --- OxCrossover ---------------------------------------------------------

void OxCrossover::cross_seq(const Genome& a, const Genome& b,
                            const GenomeTraits& /*traits*/, Genome& child1,
                            Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  std::size_t lo = rng.below(n);
  std::size_t hi = rng.below(n);
  if (lo > hi) std::swap(lo, hi);
  ++hi;  // window [lo, hi)

  Scratch& s = scratch();
  std::vector<int>& genes = s.first;
  genes.resize(n);
  auto build = [&](const std::vector<int>& keep, const std::vector<int>& donor,
                   std::vector<int>& child) {
    // The window already holds keep's genes (child arrives as a copy).
    s.clear_marks(n);
    for (std::size_t i = lo; i < hi; ++i) s.mark(keep[i]);
    // Gather the donor genes missing from the window, scanning from hi
    // and wrapping around; they fill the holes [hi, n) then [0, lo).
    std::size_t count = 0;
    auto gather = [&](int v) {
      genes[count] = v;
      count += s.marked(v) ? 0 : 1;
    };
    for (std::size_t i = hi; i < n; ++i) gather(donor[i]);
    for (std::size_t i = 0; i < hi; ++i) gather(donor[i]);
    const std::size_t tail = std::min(count, n - hi);
    std::copy_n(genes.begin(), tail,
                child.begin() + static_cast<std::ptrdiff_t>(hi));
    std::copy_n(genes.begin() + static_cast<std::ptrdiff_t>(tail),
                std::min(count - tail, lo), child.begin());
  };
  build(a.seq, b.seq, child1.seq);
  build(b.seq, a.seq, child2.seq);
}

// --- CycleCrossover ---------------------------------------------------------

void CycleCrossover::cross_seq(const Genome& a, const Genome& b,
                               const GenomeTraits& /*traits*/, Genome& child1,
                               Genome& child2, par::Rng& /*rng*/) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  Scratch& s = scratch();
  std::vector<int>& pos_in_a = s.first;
  pos_in_a.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_in_a[static_cast<std::size_t>(a.seq[i])] = static_cast<int>(i);
  }
  std::vector<int>& cycle_of = s.second;
  cycle_of.assign(n, -1);
  int cycles = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (cycle_of[start] >= 0) continue;
    std::size_t i = start;
    while (cycle_of[i] < 0) {
      cycle_of[i] = cycles;
      i = static_cast<std::size_t>(pos_in_a[static_cast<std::size_t>(b.seq[i])]);
    }
    ++cycles;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cycle_of[i] % 2 != 0) {
      child1.seq[i] = b.seq[i];
      child2.seq[i] = a.seq[i];
    }
  }
}

// --- PositionBasedCrossover -------------------------------------------------

void PositionBasedCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& /*traits*/,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  Scratch& s = scratch();
  std::vector<std::uint8_t>& keep = s.flag;
  keep.resize(n);
  for (std::size_t i = 0; i < n; ++i) keep[i] = rng.chance(0.5);
  // The unkept positions, in order: the holes both children fill.
  std::vector<int>& holes = s.first;
  holes.resize(n);
  std::size_t hole_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    holes[hole_count] = static_cast<int>(i);
    hole_count += keep[i] ? 0 : 1;
  }

  std::vector<int>& genes = s.second;
  genes.resize(n);
  auto build = [&](const std::vector<int>& base, const std::vector<int>& donor,
                   std::vector<int>& child) {
    // Kept positions already hold base's genes (child arrives as a copy);
    // the holes take the donor's other genes in order. Every value occurs
    // once in a permutation, so one branch-free pass both marks the kept
    // genes and unmarks the rest.
    s.clear_marks(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.stamp[static_cast<std::size_t>(base[i])] = keep[i] ? s.epoch : 0u;
    }
    std::size_t count = 0;
    for (int v : donor) {
      genes[count] = v;
      count += s.marked(v) ? 0 : 1;
    }
    for (std::size_t k = 0, end = std::min(count, hole_count); k < end; ++k) {
      child[static_cast<std::size_t>(holes[k])] = genes[k];
    }
  };
  build(a.seq, b.seq, child1.seq);
  build(b.seq, a.seq, child2.seq);
}

// --- JoxCrossover ---------------------------------------------------------

bool JoxCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void JoxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  Scratch& s = scratch();
  std::vector<std::uint8_t>& chosen = s.flag;
  chosen.resize(static_cast<std::size_t>(max_value(traits)));
  for (auto& flag : chosen) flag = rng.chance(0.5);

  // Chosen jobs keep their positions (children arrive as parent copies).
  // The unchosen positions of each parent are the holes of its child and,
  // read in order, the genes the other child takes.
  auto unchosen = [&](const std::vector<int>& parent, std::vector<int>& pos) {
    pos.resize(n);
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      pos[count] = static_cast<int>(i);
      count += chosen[static_cast<std::size_t>(parent[i])] ? 0 : 1;
    }
    return count;
  };
  const std::size_t count = std::min(unchosen(a.seq, s.first),
                                     unchosen(b.seq, s.second));
  for (std::size_t k = 0; k < count; ++k) {
    const auto pa = static_cast<std::size_t>(s.first[k]);
    const auto pb = static_cast<std::size_t>(s.second[k]);
    child1.seq[pa] = b.seq[pb];
    child2.seq[pb] = a.seq[pa];
  }
}

// --- PpxCrossover ---------------------------------------------------------

bool PpxCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void PpxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return;
  const std::size_t values = static_cast<std::size_t>(max_value(traits));
  Scratch& s = scratch();
  std::vector<std::uint8_t>& mask = s.flag;
  mask.resize(n);
  for (auto& bit : mask) bit = rng.chance(0.5);

  // occ[i] = 1-based occurrence index of parent[i]'s value within the
  // parent, so "already emitted" can be checked in O(1) while cursors only
  // move forward.
  std::vector<int>& count = s.count;
  auto occurrence_index = [&](const std::vector<int>& parent,
                              std::vector<int>& occ) {
    occ.resize(n);
    count.assign(values, 0);
    for (std::size_t i = 0; i < n; ++i) {
      occ[i] = ++count[static_cast<std::size_t>(parent[i])];
    }
  };
  std::vector<int>& occ_a = s.first;
  std::vector<int>& occ_b = s.second;
  occurrence_index(a.seq, occ_a);
  occurrence_index(b.seq, occ_b);

  std::vector<int>& consumed = count;
  auto build = [&](bool flip, std::vector<int>& child) {
    consumed.assign(values, 0);
    std::size_t pa = 0;
    std::size_t pb = 0;
    auto take_next = [&](const std::vector<int>& parent,
                         const std::vector<int>& occ, std::size_t& cursor) {
      while (cursor < n &&
             occ[cursor] <= consumed[static_cast<std::size_t>(parent[cursor])]) {
        ++cursor;
      }
      return cursor < n ? parent[cursor] : -1;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const bool from_first = flip ? !mask[i] : mask[i] != 0;
      int v = from_first ? take_next(a.seq, occ_a, pa)
                         : take_next(b.seq, occ_b, pb);
      if (v < 0) {
        v = from_first ? take_next(b.seq, occ_b, pb)
                       : take_next(a.seq, occ_a, pa);
      }
      child[i] = v;
      ++consumed[static_cast<std::size_t>(v)];
    }
  };
  build(/*flip=*/false, child1.seq);
  build(/*flip=*/true, child2.seq);
}

// --- ThxCrossover ---------------------------------------------------------

bool ThxCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void ThxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 3) return;
  // "Time horizon": a cut in the middle third of the chromosome — the
  // prefix approximates the early part of the schedule.
  const std::size_t third = n / 3;
  const std::size_t cut = third + rng.below(std::max<std::size_t>(third, 1));
  one_point_multiset(a.seq, b.seq, traits, cut, child1.seq);
  one_point_multiset(b.seq, a.seq, traits, cut, child2.seq);
}

// --- UniformKeyCrossover -------------------------------------------------------

void UniformKeyCrossover::cross_seq(const Genome& a, const Genome& b,
                                    const GenomeTraits& /*traits*/,
                                    Genome& child1, Genome& child2,
                                    par::Rng& rng) const {
  for (std::size_t i = 0; i < child1.keys.size(); ++i) {
    const bool from_a = rng.chance(bias_);
    child1.keys[i] = from_a ? a.keys[i] : b.keys[i];
    child2.keys[i] = from_a ? b.keys[i] : a.keys[i];
  }
}

// --- ArithmeticKeyCrossover -------------------------------------------------

void ArithmeticKeyCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& /*traits*/,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  const double alpha = rng.uniform();
  for (std::size_t i = 0; i < child1.keys.size(); ++i) {
    child1.keys[i] = alpha * a.keys[i] + (1.0 - alpha) * b.keys[i];
    child2.keys[i] = alpha * b.keys[i] + (1.0 - alpha) * a.keys[i];
  }
}

// --- MsxfCrossover ---------------------------------------------------------

namespace {

/// One guided walk from `from` toward `to` by distance-reducing swaps,
/// keeping the best objective seen. Shared by MSXF and path relinking.
void guided_walk(const Problem& problem, const Genome& from, const Genome& to,
                 int max_steps, int eval_stride, Genome& out, par::Rng& rng) {
  Genome current = from;
  out = from;
  double best_obj = problem.objective(from);
  int step = 0;
  const std::size_t n = current.seq.size();
  while (step < max_steps) {
    // Differing positions.
    std::vector<std::size_t> diff;
    for (std::size_t i = 0; i < n; ++i) {
      if (current.seq[i] != to.seq[i]) diff.push_back(i);
    }
    if (diff.empty()) break;
    const std::size_t i = diff[rng.below(diff.size())];
    // Swap in the value to.seq[i] from a later differing position that
    // holds it (guaranteed to exist: multisets are equal).
    std::size_t j = i;
    for (std::size_t cand : diff) {
      if (cand != i && current.seq[cand] == to.seq[i]) {
        j = cand;
        break;
      }
    }
    if (j == i) break;  // defensive: should not happen for equal multisets
    std::swap(current.seq[i], current.seq[j]);
    ++step;
    if (step % eval_stride == 0 || step == max_steps) {
      const double obj = problem.objective(current);
      if (obj < best_obj) {
        best_obj = obj;
        out = current;
      }
    }
  }
}

}  // namespace

void MsxfCrossover::cross_seq(const Genome& a, const Genome& b,
                              const GenomeTraits& /*traits*/, Genome& child1,
                              Genome& child2, par::Rng& rng) const {
  guided_walk(*problem_, a, b, steps_, /*eval_stride=*/1, child1, rng);
  guided_walk(*problem_, b, a, steps_, /*eval_stride=*/1, child2, rng);
}

// --- PathRelinkCrossover -----------------------------------------------------

void PathRelinkCrossover::cross_seq(const Genome& a, const Genome& b,
                                    const GenomeTraits& /*traits*/,
                                    Genome& child1, Genome& child2,
                                    par::Rng& rng) const {
  const int distance = hamming_distance(a, b);
  const int stride = std::max(1, distance / std::max(1, samples_));
  guided_walk(*problem_, a, b, distance, stride, child1, rng);
  guided_walk(*problem_, b, a, distance, stride, child2, rng);
}

}  // namespace psga::ga
