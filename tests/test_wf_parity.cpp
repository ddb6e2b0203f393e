// Differential parity tests for the batched WF attack engine.
//
// The engine overhaul (flattened structure-of-arrays forest, batch
// kernels, parallel training) promises byte-identical results to the
// straightforward per-sample/per-tree path. These tests pin that contract:
// every flat/batched entry point is compared against the recursive
// DecisionTree walk it replaced, across seeds, class counts, and the
// degenerate shapes (single class, constant features, zero feature rows)
// where tie-breaking bugs hide.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "defenses/baselines.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "wf/feature_matrix.hpp"
#include "wf/features.hpp"
#include "wf/kfp.hpp"
#include "wf/leaf_knn.hpp"
#include "wf/random_forest.hpp"
#include "wf/synth_traces.hpp"

namespace stob::wf {
namespace {

struct Problem {
  FeatureMatrix x;
  std::vector<int> labels;
  int classes = 0;
};

/// Gaussian blobs; `spread` near the class separation makes trees deep and
/// tie-prone. `constant_cols` columns are all-equal (exercise the
/// constant-feature skip), and with `zero_rows` the first rows are
/// all-zero like features of an empty trace.
Problem make_problem(int classes, int per_class, std::size_t features, std::uint64_t seed,
                     std::size_t constant_cols = 0, std::size_t zero_rows = 0) {
  Problem p;
  p.classes = classes;
  p.x = FeatureMatrix(static_cast<std::size_t>(classes) * static_cast<std::size_t>(per_class),
                      features);
  Rng rng(seed);
  std::size_t r = 0;
  for (int c = 0; c < classes; ++c) {
    for (int s = 0; s < per_class; ++s, ++r) {
      for (std::size_t f = 0; f < features; ++f) {
        if (f < constant_cols) {
          p.x.at(r, f) = 7.5;
        } else if (r < zero_rows) {
          p.x.at(r, f) = 0.0;
        } else {
          p.x.at(r, f) = rng.normal(static_cast<double>(c), 2.0);
        }
      }
      p.labels.push_back(c);
    }
  }
  return p;
}

/// Reference implementations walking the per-tree recursive structures the
/// flat pool was built from.
int reference_predict(const RandomForest& forest, std::span<const double> x) {
  std::vector<int> votes(static_cast<std::size_t>(forest.num_classes()), 0);
  for (const DecisionTree& tree : forest.trees()) {
    votes[static_cast<std::size_t>(tree.predict(x))] += 1;
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<double> reference_proba(const RandomForest& forest, std::span<const double> x) {
  std::vector<double> acc(static_cast<std::size_t>(forest.num_classes()), 0.0);
  for (const DecisionTree& tree : forest.trees()) {
    const std::vector<double> p = tree.predict_proba(x);
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  for (double& v : acc) v /= static_cast<double>(forest.tree_count());
  return acc;
}

std::vector<std::uint32_t> reference_leaves(const RandomForest& forest,
                                            std::span<const double> x) {
  std::vector<std::uint32_t> leaves;
  for (const DecisionTree& tree : forest.trees()) leaves.push_back(tree.leaf_id(x));
  return leaves;
}

TEST(FlatForestParity, MatchesRecursiveTreesAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 0xF0E57ull, 42ull}) {
    for (int classes : {2, 5, 9}) {
      const Problem p = make_problem(classes, 12, 40, seed);
      RandomForest::Config cfg;
      cfg.num_trees = 20;
      cfg.seed = seed ^ 0xABCDull;
      RandomForest forest(cfg);
      forest.fit({&p.x, p.labels, p.classes});
      for (std::size_t r = 0; r < p.x.rows(); ++r) {
        const std::span<const double> row = p.x.row(r);
        EXPECT_EQ(forest.predict(row), reference_predict(forest, row));
        EXPECT_EQ(forest.predict_proba(row), reference_proba(forest, row));  // bit-exact
        EXPECT_EQ(forest.leaf_vector(row), reference_leaves(forest, row));
      }
    }
  }
}

TEST(FlatForestParity, BatchMatchesPerSample) {
  const Problem p = make_problem(6, 15, 30, 99, /*constant_cols=*/3, /*zero_rows=*/5);
  RandomForest::Config cfg;
  cfg.num_trees = 25;
  RandomForest forest(cfg);
  forest.fit({&p.x, p.labels, p.classes});

  const std::vector<int> preds = forest.predict_batch(p.x);
  const std::vector<double> probas = forest.predict_proba_batch(p.x);
  const std::vector<std::uint32_t> leaves = forest.leaf_batch(p.x);
  const auto classes = static_cast<std::size_t>(p.classes);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    const std::span<const double> row = p.x.row(r);
    EXPECT_EQ(preds[r], forest.predict(row));
    const std::vector<double> pr = forest.predict_proba(row);
    for (std::size_t c = 0; c < classes; ++c) {
      EXPECT_EQ(probas[r * classes + c], pr[c]);  // bit-exact, not NEAR
    }
    const std::vector<std::uint32_t> lv = forest.leaf_vector(row);
    for (std::size_t t = 0; t < forest.tree_count(); ++t) {
      EXPECT_EQ(leaves[r * forest.tree_count() + t], lv[t]);
    }
  }
}

TEST(FlatForestParity, SingleClassDegenerates) {
  Problem p = make_problem(1, 8, 10, 3);
  RandomForest::Config cfg;
  cfg.num_trees = 5;
  RandomForest forest(cfg);
  forest.fit({&p.x, p.labels, 1});
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    EXPECT_EQ(forest.predict(p.x.row(r)), 0);
    EXPECT_EQ(forest.predict_proba(p.x.row(r)), std::vector<double>{1.0});
  }
  EXPECT_EQ(forest.predict_batch(p.x), std::vector<int>(p.x.rows(), 0));
}

TEST(FlatForestParity, ParallelFitIdenticalToSerial) {
  const Problem p = make_problem(5, 14, 25, 7);
  for (std::size_t jobs : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    RandomForest::Config serial_cfg;
    serial_cfg.num_trees = 16;
    serial_cfg.fit_jobs = 1;
    RandomForest::Config par_cfg = serial_cfg;
    par_cfg.fit_jobs = jobs;
    RandomForest a(serial_cfg), b(par_cfg);
    a.fit({&p.x, p.labels, p.classes});
    b.fit({&p.x, p.labels, p.classes});
    for (std::size_t r = 0; r < p.x.rows(); ++r) {
      EXPECT_EQ(a.predict_proba(p.x.row(r)), b.predict_proba(p.x.row(r)));
      EXPECT_EQ(a.leaf_vector(p.x.row(r)), b.leaf_vector(p.x.row(r)));
    }
  }
}

TEST(LeafKnnKernel, MatchesNaiveCounts) {
  Rng rng(0xC0DEull);
  const std::size_t trees = 33, n_train = 150, n_query = 70;
  std::vector<std::uint32_t> train(n_train * trees), query(n_query * trees);
  // Small leaf-id alphabet so agreements are frequent.
  for (auto& v : train) v = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
  for (auto& v : query) v = static_cast<std::uint32_t>(rng.uniform_int(0, 6));

  std::vector<int> tiled(n_query * n_train);
  leaf_match_matrix(train, n_train, query, n_query, trees, tiled);
  for (std::size_t q = 0; q < n_query; ++q) {
    std::vector<int> single(n_train);
    leaf_match_counts(train, n_train, {query.data() + q * trees, trees}, single);
    for (std::size_t i = 0; i < n_train; ++i) {
      int naive = 0;
      for (std::size_t t = 0; t < trees; ++t) {
        naive += query[q * trees + t] == train[i * trees + t];
      }
      EXPECT_EQ(tiled[q * n_train + i], naive);
      EXPECT_EQ(single[i], naive);
    }
  }
}

TEST(KfpParity, KnnBatchMatchesPerSample) {
  const Problem p = make_problem(4, 20, 20, 0xBEEFull);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 15;
  cfg.use_knn = true;
  KFingerprint clf(cfg);
  clf.fit(p.x, p.labels);
  const std::vector<int> batch = clf.predict_batch(p.x);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    EXPECT_EQ(batch[r], clf.predict(p.x.row(r)));
  }
}

TEST(KfpParity, CrossValidateParallelFoldsIdentical) {
  const Problem p = make_problem(4, 12, 18, 0x5EEDull);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 12;
  const EvalResult serial = cross_validate(p.x, p.labels, cfg, 4, 77, /*jobs=*/1);
  for (std::size_t jobs : {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    const EvalResult par = cross_validate(p.x, p.labels, cfg, 4, 77, jobs);
    EXPECT_EQ(serial, par);  // defaulted ==: every field, bit for bit
  }
  // Inner training parallelism must not leak into results either.
  KFingerprint::Config inner = cfg;
  inner.forest.fit_jobs = 4;
  EXPECT_EQ(serial, cross_validate(p.x, p.labels, cfg, 4, 77, 1));
  EXPECT_EQ(serial, cross_validate(p.x, p.labels, inner, 4, 77, 2));
}

TEST(KfpParity, EmptyTraceRowsSurviveThePipeline) {
  // Feature rows of empty traces are all zeros; they must train and
  // classify without UB and identically in batch and per-sample form.
  Dataset d;
  Rng rng(5);
  for (int c = 0; c < 3; ++c) {
    for (int s = 0; s < 6; ++s) {
      Trace t;
      if (c != 0 || s != 0) {  // one genuinely empty trace in class 0
        double time = 0.0;
        for (int k = 0; k < 4 + 2 * c; ++k) {
          t.add(time, k % 2 == 0 ? +1 : -1, 600 + 100 * c);
          time += rng.uniform(0.001, 0.01);
        }
      }
      d.add(std::move(t), c);
    }
  }
  const FeatureMatrix x = kfp_features(d);
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 10;
  KFingerprint clf(cfg);
  clf.fit(x, d.labels());
  const std::vector<int> batch = clf.predict_batch(x);
  for (std::size_t r = 0; r < x.rows(); ++r) EXPECT_EQ(batch[r], clf.predict(x.row(r)));
}

// ------------------------------------------------ pinned feature values

/// Traces covering every branch of the extractor: synthetic site loads,
/// the same loads after each zoo defense, a never-normalized trace
/// (unsorted times, direction-0 packets), all-equal sizes, and the short
/// prefixes (0, 1, 2, 20 packets) where quantile ranks collapse.
std::vector<Trace> feature_pin_traces() {
  std::vector<Trace> traces;
  for (int site = 0; site < 3; ++site) {
    for (std::uint64_t instance = 0; instance < 2; ++instance) {
      traces.push_back(synth_site_trace(0x5EEDull, site, instance));
    }
  }
  const std::size_t undefended = traces.size();
  const auto zoo = defenses::all_defenses();
  for (std::size_t d = 0; d < zoo.size(); ++d) {
    for (std::size_t i = 0; i < undefended; ++i) {
      Rng rng(1000 * d + i);
      traces.push_back(zoo[d]->apply(traces[i], rng));
    }
  }
  Trace raw;
  Rng rng(77);
  for (int k = 0; k < 40; ++k) {
    raw.add(rng.uniform(-1.0, 3.0), k % 7 == 0 ? 0 : (k % 3 == 0 ? +1 : -1),
            rng.uniform_int(40, 1500));
  }
  traces.push_back(raw);
  Trace flat = traces[0];
  for (PacketRecord& p : flat.packets()) p.size = 1500;
  traces.push_back(flat);
  for (std::size_t n : {0, 1, 2, 20}) traces.push_back(traces[1].truncated(n));
  return traces;
}

TEST(FeatureParity, PinnedDigest) {
  // SHA-256 over the raw bits of every feature row. A rewrite of the
  // extractor must reproduce these bytes exactly; recorded from the
  // sort-based extractor the selection one replaced.
  util::Sha256 h;
  for (const Trace& t : feature_pin_traces()) {
    const std::vector<double> row = kfp_features(t);
    h.update(row.data(), row.size() * sizeof(double));
  }
  EXPECT_EQ(h.hex_digest(), "72ef578b705b2f2fd9684ad74a12a572ab72120663fcea78dbf24357b807f732");
}

// ----------------------------------------------- accuracy aggregation

TEST(ConfusionMatrix, ComparesByValue) {
  ConfusionMatrix a(2), b(2);
  a.add(0, 0);
  b.add(0, 0);
  EXPECT_EQ(a, b);
  b.add(1, 0);
  EXPECT_NE(a, b);
}

TEST(CrossValidate, MeanAndStdAggregateFoldAccuracies) {
  // Two cleanly separable classes: every fold should be perfect, so the
  // aggregate must be exactly mean=1, std=0 over `folds` entries.
  Problem p = make_problem(2, 10, 8, 21);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    p.x.at(r, 0) = p.labels[r] == 0 ? -100.0 : 100.0;  // trivially separable
  }
  KFingerprint::Config cfg;
  cfg.forest.num_trees = 8;
  const EvalResult res = cross_validate(p.x, p.labels, cfg, 5, 3);
  ASSERT_EQ(res.fold_accuracies.size(), 5u);
  EXPECT_EQ(res.mean_accuracy, 1.0);
  EXPECT_EQ(res.std_accuracy, 0.0);
  // Confusion matrix totals every test sample exactly once.
  std::uint64_t total = 0;
  for (int t = 0; t < 2; ++t) {
    for (int q = 0; q < 2; ++q) total += res.confusion.at(t, q);
  }
  EXPECT_EQ(total, p.x.rows());
}

TEST(CrossValidate, TestFoldMayContainClassAbsentFromTraining) {
  // Class 2 has a single sample: whichever fold holds it trains without
  // class 2 entirely. The protocol must not crash, must still test that
  // sample (it cannot be predicted correctly), and the confusion matrix
  // row for class 2 must land in some other class's column.
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  Rng rng(13);
  for (int c = 0; c < 2; ++c) {
    for (int s = 0; s < 8; ++s) {
      rows.push_back({rng.normal(c * 10.0, 1.0), rng.normal(0, 1)});
      labels.push_back(c);
    }
  }
  rows.push_back({rng.normal(20.0, 1.0), rng.normal(0, 1)});
  labels.push_back(2);
  const FeatureMatrix x = FeatureMatrix::from_rows(rows);

  KFingerprint::Config cfg;
  cfg.forest.num_trees = 8;
  const EvalResult res = cross_validate(x, labels, cfg, 4, 9);
  ASSERT_EQ(res.confusion.classes(), 3u);
  std::uint64_t class2_row = 0;
  for (int pcol = 0; pcol < 3; ++pcol) class2_row += res.confusion.at(2, pcol);
  EXPECT_EQ(class2_row, 1u);          // the lone sample was tested exactly once
  EXPECT_EQ(res.confusion.at(2, 2), 0u);  // and could not be predicted as class 2
  std::uint64_t total = 0;
  for (int t = 0; t < 3; ++t) {
    for (int pcol = 0; pcol < 3; ++pcol) total += res.confusion.at(t, pcol);
  }
  EXPECT_EQ(total, x.rows());  // every sample tested exactly once overall
}

}  // namespace
}  // namespace stob::wf
