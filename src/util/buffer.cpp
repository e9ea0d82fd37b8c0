#include "util/buffer.hpp"

namespace nvgas::util {

void Buffer::grow_copy(const std::byte* src, std::size_t n) {
  const std::size_t old = data_.size();
  data_.resize(old + n);
  if (n != 0) std::memcpy(data_.data() + old, src, n);
}

}  // namespace nvgas::util
