// Golden traces: the breed layer's behaviour, pinned bit for bit.
//
// Every value below was recorded from the operators as they stood before
// their allocation-free rewrite. An operator or engine change that moves
// one RNG draw, or changes which child a draw produces, changes a hash
// here. The fix is always in the code, never in this table: the order of
// RNG draws is part of the behaviour.
//
// Two layers are fixed:
//   * engine runs — simple, island and cellular GAs on flowshop ta001 and
//     semi-active jobshop ft10, three seeds, 300 generations: the hash of
//     the best-objective history and of the final best genome;
//   * operators — every registry crossover that supports permutation or
//     repetition chromosomes, crossed 16 times on fixed parents from one
//     seeded RNG at n = 20 and n = 100: one hash folding every child.
//
// The operators keep per-thread scratch buffers; the last suite checks
// that reused, resized and concurrently used scratch gives the children
// a fresh thread computes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/ga/genome.h"
#include "src/ga/registry.h"
#include "src/ga/solver.h"
#include "src/par/rng.h"

namespace psga::ga {
namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- engine runs ------------------------------------------------------------

struct EngineGolden {
  const char* spec;
  std::uint64_t history_hash;
  std::uint64_t best_hash;
};

constexpr int kGoldenGenerations = 300;

/// The history as a keys-only genome: genome_hash mixes every double's
/// bit pattern, so one changed objective anywhere changes the hash.
std::uint64_t history_hash(const std::vector<double>& history) {
  Genome g;
  g.keys = history;
  return genome_hash(g);
}

constexpr EngineGolden kEngineGolden[] = {
    {"problem=flowshop instance=ta001 engine=simple pop=50 seed=1",
     0x559b35d9d6d408c5, 0x88c8863463c66b00},
    {"problem=flowshop instance=ta001 engine=simple pop=50 seed=2",
     0xb5ad5c8bc6c00211, 0x6ff0fdbe35fa4e8e},
    {"problem=flowshop instance=ta001 engine=simple pop=50 seed=3",
     0xb7db5eb0838ccc5d, 0x6fd90553860bbe3a},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=simple pop=50 seed=1",
     0x740e0afc64f50e12, 0x8ee0169ffa2a7325},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=simple pop=50 seed=2",
     0x12c1e6c14cb2964d, 0x0cbdd2e6cfac67bb},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=simple pop=50 seed=3",
     0x44fd700b77b77334, 0xb1dde3a0521c74b8},
    {"problem=flowshop instance=ta001 engine=island islands=4 pop=20 "
     "interval=5 seed=1",
     0xeb27e0f25891314f, 0x4b524a94f31696d8},
    {"problem=flowshop instance=ta001 engine=island islands=4 pop=20 "
     "interval=5 seed=2",
     0xbcd78f5ae18841a2, 0x8c21bc0a9df67451},
    {"problem=flowshop instance=ta001 engine=island islands=4 pop=20 "
     "interval=5 seed=3",
     0xa94fa71b4634767e, 0xfafc53bceca8d38a},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=island islands=4 pop=20 interval=5 seed=1",
     0x68c037aa2f8a719d, 0x6f00579d48fe800c},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=island islands=4 pop=20 interval=5 seed=2",
     0x7386c89652f5297d, 0x7630cfbf4ade30d4},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=island islands=4 pop=20 interval=5 seed=3",
     0xf6d7621c7919bcf8, 0x37bda3a8a19bdbae},
    {"problem=flowshop instance=ta001 engine=cellular width=8 "
     "height=8 seed=1",
     0x6222340a73ae4aea, 0xdec72fc50ce9095e},
    {"problem=flowshop instance=ta001 engine=cellular width=8 "
     "height=8 seed=2",
     0x479c3e91b9832fda, 0xcbb0b92df5d33b87},
    {"problem=flowshop instance=ta001 engine=cellular width=8 "
     "height=8 seed=3",
     0x64ae680b1f136d1b, 0xda9d89848ce9452e},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=cellular width=8 height=8 seed=1",
     0xd7913e5cd4f2975e, 0x9d0d5c6860aece48},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=cellular width=8 height=8 seed=2",
     0xebb55a70823960fb, 0x536270fc1fffa91f},
    {"problem=jobshop instance=ft10 decoder=semi-active "
     "engine=cellular width=8 height=8 seed=3",
     0x581809cce9d271de, 0x7eb543705f2230ba},
};

void PrintTo(const EngineGolden& golden, std::ostream* os) {
  *os << golden.spec;
}

class GoldenEngine : public ::testing::TestWithParam<EngineGolden> {};

TEST_P(GoldenEngine, HistoryAndBestGenomeUnchanged) {
  const EngineGolden& golden = GetParam();
  Solver solver = Solver::build(RunSpec::parse(golden.spec));
  const RunResult result =
      solver.run(StopCondition::generations(kGoldenGenerations));
  ASSERT_EQ(result.generations, kGoldenGenerations);
  EXPECT_EQ(hex(history_hash(result.history)), hex(golden.history_hash))
      << golden.spec;
  EXPECT_EQ(hex(genome_hash(result.best)), hex(golden.best_hash))
      << golden.spec;
}

INSTANTIATE_TEST_SUITE_P(Fixture, GoldenEngine,
                         ::testing::ValuesIn(kEngineGolden));

// --- operators --------------------------------------------------------------

/// Traits for a chromosome of length `n`: a permutation of n jobs, or n
/// operations spread over n/10 (n = 100) or n/4 (n = 20) jobs.
GenomeTraits golden_traits(SeqKind kind, int n) {
  GenomeTraits traits;
  traits.seq_kind = kind;
  traits.seq_length = n;
  if (kind == SeqKind::kJobRepetition) {
    const int per_job = n >= 100 ? 10 : 4;
    traits.repeats.assign(static_cast<std::size_t>(n / per_job), per_job);
  }
  return traits;
}

Genome golden_parent(const GenomeTraits& traits, par::Rng& rng) {
  Genome g;
  if (traits.seq_kind == SeqKind::kPermutation) {
    for (int v = 0; v < traits.seq_length; ++v) g.seq.push_back(v);
  } else {
    for (std::size_t j = 0; j < traits.repeats.size(); ++j) {
      for (int k = 0; k < traits.repeats[j]; ++k) {
        g.seq.push_back(static_cast<int>(j));
      }
    }
  }
  rng.shuffle(g.seq);
  return g;
}

/// 16 crosses of one fixed parent pair from one RNG, every child hashed
/// in order, plus the RNG's next draw (which pins the number of draws).
std::uint64_t cross_fingerprint(const std::string& name, SeqKind kind, int n) {
  const GenomeTraits traits = golden_traits(kind, n);
  par::Rng setup(0x5eed0000u + static_cast<std::uint64_t>(n));
  const Genome a = golden_parent(traits, setup);
  const Genome b = golden_parent(traits, setup);
  const CrossoverPtr cx = make_crossover(name);
  par::Rng rng(20240601);
  Genome fold;
  Genome c1;
  Genome c2;
  for (int trial = 0; trial < 16; ++trial) {
    cx->cross(a, b, traits, c1, c2, rng);
    fold.keys.push_back(static_cast<double>(genome_hash(c1) >> 11));
    fold.keys.push_back(static_cast<double>(genome_hash(c2) >> 11));
  }
  fold.keys.push_back(static_cast<double>(rng() >> 11));
  return genome_hash(fold);
}

struct CrossGolden {
  const char* name;
  SeqKind kind;
  int n;
  std::uint64_t hash;
};

constexpr SeqKind kPerm = SeqKind::kPermutation;
constexpr SeqKind kRep = SeqKind::kJobRepetition;

constexpr CrossGolden kCrossGolden[] = {
    {"one-point", kPerm, 20, 0x9a8c2fa5a680afd2},
    {"one-point", kPerm, 100, 0x4f69e8aff634ad38},
    {"two-point", kPerm, 20, 0x2ef497064250e5a9},
    {"two-point", kPerm, 100, 0x93961d101a7d0a29},
    {"pmx", kPerm, 20, 0x9c49867fbdf7a296},
    {"pmx", kPerm, 100, 0x57f854d096199d91},
    {"ox", kPerm, 20, 0x47617a89fd823613},
    {"ox", kPerm, 100, 0x4dbed24ef26604c8},
    {"cycle", kPerm, 20, 0x364b8c3a6ac5abed},
    {"cycle", kPerm, 100, 0x5efd7cfb0be4aea3},
    {"position-based", kPerm, 20, 0xe2e48d070618ba62},
    {"position-based", kPerm, 100, 0xe7b08b30e921a868},
    {"jox", kPerm, 20, 0xc31b865017d1113d},
    {"jox", kPerm, 100, 0x8e6f74200f8c78b5},
    {"ppx", kPerm, 20, 0x6bd696b82205d5b0},
    {"ppx", kPerm, 100, 0xe496049e0afe78ca},
    {"thx", kPerm, 20, 0xbeadf079a9ff2a41},
    {"thx", kPerm, 100, 0x409a91e7c4fbecd3},
    {"one-point", kRep, 20, 0x14db3a5f6ee6ee75},
    {"one-point", kRep, 100, 0x95d1315695eadd58},
    {"two-point", kRep, 20, 0xef3414d2532f27af},
    {"two-point", kRep, 100, 0xb2cbe3789c239133},
    {"jox", kRep, 20, 0x526adb61fe50b679},
    {"jox", kRep, 100, 0xd9111aa115e5648d},
    {"ppx", kRep, 20, 0x18e16b389c8f5b27},
    {"ppx", kRep, 100, 0xad71c25cad66daba},
    {"thx", kRep, 20, 0x44b4ccc8a3492e15},
    {"thx", kRep, 100, 0x82698a1e35980286},
};

TEST(GoldenCrossover, FixtureCoversEverySequencingOperator) {
  for (const SeqKind kind : {kPerm, kRep}) {
    for (const std::string& name : crossover_names(kind)) {
      int rows = 0;
      for (const CrossGolden& g : kCrossGolden) {
        rows += g.name == name && g.kind == kind;
      }
      EXPECT_EQ(rows, 2) << name << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(GoldenCrossover, ChildrenUnchanged) {
  for (const CrossGolden& g : kCrossGolden) {
    EXPECT_EQ(hex(cross_fingerprint(g.name, g.kind, g.n)), hex(g.hash))
        << g.name << (g.kind == kPerm ? " perm" : " rep") << " n=" << g.n;
  }
}

// --- per-thread scratch ------------------------------------------------------

struct Children {
  std::vector<int> c1;
  std::vector<int> c2;
  bool operator==(const Children&) const = default;
};

/// One cross at length n from a fixed parent pair and RNG seed. `c1` and
/// `c2` may hold anything beforehand, stale genes of another length too.
Children cross_once(const Crossover& cx, SeqKind kind, int n, Genome& c1,
                    Genome& c2) {
  const GenomeTraits traits = golden_traits(kind, n);
  par::Rng setup(0x5c4a7c40u + static_cast<std::uint64_t>(n));
  const Genome a = golden_parent(traits, setup);
  const Genome b = golden_parent(traits, setup);
  par::Rng rng(static_cast<std::uint64_t>(n) * 7919 + 17);
  cx.cross(a, b, traits, c1, c2, rng);
  return {c1.seq, c2.seq};
}

/// The reference: a brand-new thread (fresh scratch), empty children.
Children fresh_cross(const Crossover& cx, SeqKind kind, int n) {
  Children out;
  std::thread([&] {
    Genome c1;
    Genome c2;
    out = cross_once(cx, kind, n, c1, c2);
  }).join();
  return out;
}

TEST(CrossoverScratch, ReuseAcrossLengthsAndThreadsMatchesFreshCall) {
  for (const SeqKind kind : {kPerm, kRep}) {
    for (const std::string& name : crossover_names(kind)) {
      SCOPED_TRACE(name + (kind == kPerm ? " perm" : " rep"));
      const CrossoverPtr cx = make_crossover(name);
      const Children want100 = fresh_cross(*cx, kind, 100);
      const Children want20 = fresh_cross(*cx, kind, 20);

      // One thread, lengths 100 -> 20 -> 100; children arrive holding
      // stale genes of the other length.
      Genome c1;
      Genome c2;
      c1.seq.assign(20, 7);
      c2.seq.assign(20, 3);
      EXPECT_EQ(cross_once(*cx, kind, 100, c1, c2), want100);
      EXPECT_EQ(cross_once(*cx, kind, 20, c1, c2), want20);
      EXPECT_EQ(cross_once(*cx, kind, 100, c1, c2), want100);

      // Four threads at once through the one shared operator.
      std::atomic<int> mismatches{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
          Genome d1;
          Genome d2;
          for (int i = 0; i < 50; ++i) {
            const bool wide = (i + t) % 2 == 0;
            const Children got = cross_once(*cx, kind, wide ? 100 : 20, d1, d2);
            if (got != (wide ? want100 : want20)) ++mismatches;
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      EXPECT_EQ(mismatches.load(), 0);
    }
  }
}

}  // namespace
}  // namespace psga::ga
