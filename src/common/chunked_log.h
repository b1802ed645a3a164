// An append-only log stored in fixed-size chunks. Growing it allocates one
// new chunk at a time and never moves what it already holds, so a log of
// millions of records costs no 2x reallocation copy (and no transient
// second copy in memory) the way a growing std::vector does. Indexing is a
// shift and a mask.

#ifndef SOAP_COMMON_CHUNKED_LOG_H_
#define SOAP_COMMON_CHUNKED_LOG_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

namespace soap {

template <typename T, unsigned kChunkBits = 12>
class ChunkedLog {
 public:
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(const T& value) {
    if ((size_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    chunks_[size_ >> kChunkBits][size_ & (kChunkSize - 1)] = value;
    ++size_;
  }

  const T& operator[](size_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator(const ChunkedLog* log, size_t i) : log_(log), i_(i) {}
    reference operator*() const { return (*log_)[i_]; }
    pointer operator->() const { return &(*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const ChunkedLog* log_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  size_t size_ = 0;
};

}  // namespace soap

#endif  // SOAP_COMMON_CHUNKED_LOG_H_
