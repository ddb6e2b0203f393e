#include "wf/random_forest.hpp"

#include <algorithm>
#include <stdexcept>

#include "exp/worker_pool.hpp"
#include "wf/simd_kernels.hpp"

namespace stob::wf {

void RandomForest::fit(const TrainView& view) {
  if (view.size() == 0) throw std::invalid_argument("RandomForest::fit: empty data");
  num_classes_ = view.num_classes;
  trees_.assign(cfg_.num_trees, DecisionTree(cfg_.tree));

  // Fork every tree's RNG from the root stream serially, in tree order:
  // tree t's stream is a function of (seed, t) alone, so the parallel
  // schedule below cannot change what any tree sees.
  Rng rng(cfg_.seed);
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(cfg_.num_trees);
  for (std::size_t t = 0; t < cfg_.num_trees; ++t) tree_rngs.push_back(rng.fork());

  const auto n = view.size();
  const auto sample_n = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg_.bootstrap_fraction * static_cast<double>(n)));
  exp::run_ordered<char>(cfg_.num_trees, cfg_.fit_jobs, [&](std::size_t t) {
    Rng tree_rng = tree_rngs[t];
    std::vector<std::size_t> indices(sample_n);
    for (std::size_t& i : indices) {
      i = static_cast<std::size_t>(tree_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    trees_[t].fit(view, indices, tree_rng);
    return char{0};
  });

  flatten();
}

void RandomForest::flatten() {
  flat_ = Flat{};
  std::size_t total_nodes = 0;
  std::size_t total_dists = 0;
  for (const DecisionTree& tree : trees_) {
    total_nodes += tree.nodes().size();
    total_dists += tree.dists().size();
  }
  flat_.nodes.reserve(total_nodes);
  flat_.dists.reserve(total_dists);
  flat_.tree_base.reserve(trees_.size() + 1);

  for (const DecisionTree& tree : trees_) {
    const auto node_base = static_cast<std::uint32_t>(flat_.nodes.size());
    const auto dist_base = static_cast<std::uint32_t>(flat_.dists.size());
    flat_.tree_base.push_back(node_base);
    for (const DecisionTree::Node& nd : tree.nodes()) {
      FlatNode fn;
      fn.threshold = nd.threshold;
      fn.feature = nd.feature;
      if (nd.feature >= 0) {
        fn.kid[0] = node_base + nd.left;
        fn.kid[1] = node_base + nd.right;
      } else {
        fn.kid[0] = dist_base + nd.dist_offset;
        fn.kid[1] = static_cast<std::uint32_t>(nd.majority);
      }
      flat_.nodes.push_back(fn);
    }
    flat_.dists.insert(flat_.dists.end(), tree.dists().begin(), tree.dists().end());
  }
  flat_.tree_base.push_back(static_cast<std::uint32_t>(flat_.nodes.size()));
}

int RandomForest::predict(std::span<const double> x) const {
  // Per-thread tally: the single-trace path runs once per query, and its
  // capacity survives assign().
  thread_local std::vector<int> votes;
  votes.assign(static_cast<std::size_t>(num_classes_), 0);
  const std::size_t num_trees = trees_.size();
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::uint32_t leaf = kernels::descend_one(flat_.nodes.data(), flat_.tree_base[t], x.data());
    votes[flat_.nodes[leaf].kid[1]] += 1;
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<double> RandomForest::predict_proba(std::span<const double> x) const {
  const auto classes = static_cast<std::size_t>(num_classes_);
  std::vector<double> acc(classes, 0.0);
  const std::size_t num_trees = trees_.size();
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::uint32_t leaf = kernels::descend_one(flat_.nodes.data(), flat_.tree_base[t], x.data());
    const double* dist = flat_.dists.data() + flat_.nodes[leaf].kid[0];
    for (std::size_t c = 0; c < classes; ++c) acc[c] += dist[c];
  }
  for (double& v : acc) v /= static_cast<double>(num_trees);
  return acc;
}

std::vector<std::uint32_t> RandomForest::leaf_vector(std::span<const double> x) const {
  std::vector<std::uint32_t> leaves;
  const std::size_t num_trees = trees_.size();
  leaves.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    leaves.push_back(kernels::descend_one(flat_.nodes.data(), flat_.tree_base[t], x.data()) - flat_.tree_base[t]);
  }
  return leaves;
}

namespace {
constexpr std::size_t kBlock = 512;  // samples walked per tree pass (block rows stay L2-resident)
}

std::vector<int> RandomForest::predict_batch(const FeatureMatrix& x) const {
  const std::size_t rows = x.rows();
  const std::size_t stride = x.row_stride();
  const auto classes = static_cast<std::size_t>(num_classes_);
  const std::size_t num_trees = trees_.size();
  std::vector<int> out(rows, 0);
  std::vector<int> votes(kBlock * classes);
  std::uint32_t leaves[kBlock];
  for (std::size_t lo = 0; lo < rows; lo += kBlock) {
    const std::size_t m = std::min(rows - lo, kBlock);
    const double* base = x.data() + lo * stride;
    std::fill(votes.begin(), votes.begin() + static_cast<std::ptrdiff_t>(m * classes), 0);
    for (std::size_t t = 0; t < num_trees; ++t) {
      kernels::descend_block(flat_.nodes.data(), flat_.tree_base[t], base, stride, m, leaves);
      for (std::size_t r = 0; r < m; ++r) votes[r * classes + flat_.nodes[leaves[r]].kid[1]] += 1;
    }
    for (std::size_t r = 0; r < m; ++r) {
      const int* v = votes.data() + r * classes;
      std::size_t best = 0;
      for (std::size_t c = 1; c < classes; ++c) {
        if (v[c] > v[best]) best = c;  // first max wins, like max_element
      }
      out[lo + r] = static_cast<int>(best);
    }
  }
  return out;
}

std::vector<double> RandomForest::predict_proba_batch(const FeatureMatrix& x) const {
  const std::size_t rows = x.rows();
  const std::size_t stride = x.row_stride();
  const auto classes = static_cast<std::size_t>(num_classes_);
  const std::size_t num_trees = trees_.size();
  std::vector<double> out(rows * classes, 0.0);
  std::uint32_t leaves[kBlock];
  // Trees outer, samples inner: per sample the accumulation still happens
  // in tree order, so sums are bit-identical to the per-sample path.
  for (std::size_t lo = 0; lo < rows; lo += kBlock) {
    const std::size_t m = std::min(rows - lo, kBlock);
    const double* base = x.data() + lo * stride;
    for (std::size_t t = 0; t < num_trees; ++t) {
      kernels::descend_block(flat_.nodes.data(), flat_.tree_base[t], base, stride, m, leaves);
      for (std::size_t r = 0; r < m; ++r) {
        const double* dist = flat_.dists.data() + flat_.nodes[leaves[r]].kid[0];
        double* acc = out.data() + (lo + r) * classes;
        for (std::size_t c = 0; c < classes; ++c) acc[c] += dist[c];
      }
    }
  }
  for (double& v : out) v /= static_cast<double>(num_trees);
  return out;
}

void RandomForest::leaf_batch(const double* x, std::size_t stride, std::size_t rows,
                              std::uint32_t* out) const {
  const std::size_t num_trees = trees_.size();
  std::uint32_t leaves[kBlock];
  for (std::size_t lo = 0; lo < rows; lo += kBlock) {
    const std::size_t m = std::min(rows - lo, kBlock);
    const double* base = x + lo * stride;
    for (std::size_t t = 0; t < num_trees; ++t) {
      const std::uint32_t root = flat_.tree_base[t];
      kernels::descend_block(flat_.nodes.data(), root, base, stride, m, leaves);
      for (std::size_t r = 0; r < m; ++r) out[(lo + r) * num_trees + t] = leaves[r] - root;
    }
  }
}

std::vector<std::uint32_t> RandomForest::leaf_batch(const FeatureMatrix& x) const {
  std::vector<std::uint32_t> out(x.rows() * trees_.size(), 0);
  leaf_batch(x.data(), x.row_stride(), x.rows(), out.data());
  return out;
}

}  // namespace stob::wf
