#include "core/conflict_graph.hpp"

#include <bit>
#include <stdexcept>

#include "core/link_occupancy.hpp"
#include "util/parallel.hpp"

namespace optdm::core {

namespace {

void set_bit(std::uint64_t* row, std::int32_t v) {
  row[static_cast<std::size_t>(v) / 64] |=
      std::uint64_t{1} << (static_cast<std::size_t>(v) % 64);
}

bool test_bit(const std::uint64_t* row, std::int32_t v) {
  return (row[static_cast<std::size_t>(v) / 64] >>
          (static_cast<std::size_t>(v) % 64)) &
         1;
}

}  // namespace

ConflictGraph::ConflictGraph(std::span<const Path> paths)
    : n_(static_cast<int>(paths.size())) {
  row_words_ = (static_cast<std::size_t>(n_) + 63) / 64;
  matrix_.assign(static_cast<std::size_t>(n_) * row_words_, 0);
  if (n_ == 0) {
    offsets_.assign(1, 0);
    return;
  }

  // Vertex i's neighborhood is the union of its links' occupant lists.
  // Each vertex owns its matrix row exclusively, so rows are filled in
  // parallel with no synchronization; each chunk dedupes paths sharing
  // several links through its own stamp array.
  const LinkOccupancy index(paths);
  std::vector<std::size_t> row_degree(static_cast<std::size_t>(n_), 0);
  util::parallel_for_chunks(
      static_cast<std::size_t>(n_),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::int32_t> stamp(static_cast<std::size_t>(n_), -1);
        for (std::size_t i = begin; i < end; ++i) {
          std::uint64_t* row = matrix_.data() + i * row_words_;
          std::size_t degree = 0;
          index.for_each_neighbor(static_cast<std::int32_t>(i), stamp,
                                  [&](std::int32_t other) {
                                    set_bit(row, other);
                                    ++degree;
                                  });
          row_degree[i] = degree;
        }
      });

  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (std::int32_t v = 0; v < n_; ++v)
    offsets_[static_cast<std::size_t>(v) + 1] =
        offsets_[static_cast<std::size_t>(v)] +
        row_degree[static_cast<std::size_t>(v)];
  adj_.resize(offsets_.back());
  edges_ = adj_.size() / 2;

  // Emit each CSR row by scanning its bitmap words; bit order gives the
  // ascending neighbor order the all-pairs construction produced.
  util::parallel_for_chunks(
      static_cast<std::size_t>(n_),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t* row = matrix_.data() + i * row_words_;
          std::int32_t* out = adj_.data() + offsets_[i];
          for (std::size_t w = 0; w < row_words_; ++w) {
            std::uint64_t word = row[w];
            while (word != 0) {
              const auto bit = std::countr_zero(word);
              *out++ = static_cast<std::int32_t>(w * 64 +
                                                 static_cast<std::size_t>(bit));
              word &= word - 1;
            }
          }
        }
      });
}

ConflictGraph ConflictGraph::brute_force(std::span<const Path> paths) {
  ConflictGraph graph;
  graph.n_ = static_cast<int>(paths.size());
  graph.row_words_ = (static_cast<std::size_t>(graph.n_) + 63) / 64;
  graph.matrix_.assign(static_cast<std::size_t>(graph.n_) * graph.row_words_,
                       0);

  std::vector<std::vector<std::int32_t>> lists(
      static_cast<std::size_t>(graph.n_));
  for (std::int32_t i = 0; i < graph.n_; ++i) {
    for (std::int32_t j = i + 1; j < graph.n_; ++j) {
      if (paths[static_cast<std::size_t>(i)].conflicts_with(
              paths[static_cast<std::size_t>(j)])) {
        lists[static_cast<std::size_t>(i)].push_back(j);
        lists[static_cast<std::size_t>(j)].push_back(i);
        set_bit(graph.matrix_.data() +
                    static_cast<std::size_t>(i) * graph.row_words_,
                j);
        set_bit(graph.matrix_.data() +
                    static_cast<std::size_t>(j) * graph.row_words_,
                i);
      }
    }
  }
  graph.finalize_csr(lists);
  return graph;
}

void ConflictGraph::finalize_csr(
    const std::vector<std::vector<std::int32_t>>& lists) {
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (std::int32_t v = 0; v < n_; ++v)
    offsets_[static_cast<std::size_t>(v) + 1] =
        offsets_[static_cast<std::size_t>(v)] +
        lists[static_cast<std::size_t>(v)].size();
  adj_.reserve(offsets_.back());
  for (const auto& list : lists)
    adj_.insert(adj_.end(), list.begin(), list.end());
  edges_ = adj_.size() / 2;
}

std::span<const std::int32_t> ConflictGraph::neighbors(std::int32_t v) const {
  if (v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::neighbors: bad vertex");
  const auto begin = offsets_[static_cast<std::size_t>(v)];
  const auto end = offsets_[static_cast<std::size_t>(v) + 1];
  return {adj_.data() + begin, end - begin};
}

int ConflictGraph::degree(std::int32_t v) const {
  if (v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::degree: bad vertex");
  return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                          offsets_[static_cast<std::size_t>(v)]);
}

bool ConflictGraph::adjacent(std::int32_t u, std::int32_t v) const {
  if (u < 0 || u >= n_ || v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::adjacent: bad vertex");
  return test_bit(matrix_.data() + static_cast<std::size_t>(u) * row_words_,
                  v);
}

}  // namespace optdm::core
