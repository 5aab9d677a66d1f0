#include "common/radix_order.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace mdc {
namespace {

// The first eight bytes of `text`, zero-padded, as a big-endian integer:
// unsigned order of the keys is the order of the prefixes.
uint64_t PrefixKey(std::string_view text) {
  unsigned char bytes[8] = {};
  std::memcpy(bytes, text.data(), std::min<size_t>(text.size(), 8));
  uint64_t key = 0;
  std::memcpy(&key, bytes, sizeof(key));
  if constexpr (std::endian::native == std::endian::little) {
    key = __builtin_bswap64(key);
  }
  return key;
}

}  // namespace

std::vector<uint32_t> StringOrder(std::span<const std::string_view> strings) {
  std::vector<uint64_t> keys(strings.size());
  for (size_t i = 0; i < strings.size(); ++i) keys[i] = PrefixKey(strings[i]);
  std::vector<uint32_t> order =
      RadixOrder(strings.size(), [&keys](uint32_t i) { return keys[i]; });
  for (auto run = order.begin(); run != order.end();) {
    const uint64_t key = keys[*run];
    const auto run_end = std::find_if(
        run + 1, order.end(), [&](uint32_t i) { return keys[i] != key; });
    // Ties break by index, so this equals a stable sort of the run
    // without its scratch buffer; most runs are a few entries long.
    if (run_end - run > 1) {
      std::sort(run, run_end, [&strings](uint32_t a, uint32_t b) {
        const int order = strings[a].compare(strings[b]);
        return order < 0 || (order == 0 && a < b);
      });
    }
    run = run_end;
  }
  return order;
}

}  // namespace mdc
