// Protocol-sequence assertions on span records: keep one site's records,
// then match an ordered subsequence of kinds.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "obs/span.hpp"

namespace sfc::test {

/// True when the records at @p site contain @p kinds as a subsequence: in
/// order, gaps allowed. @p records are read in the order given, so pass a
/// time-sorted SpanCollector::snapshot().
inline bool contains_sequence(const std::vector<obs::SpanRecord>& records,
                              std::uint32_t site,
                              std::initializer_list<obs::SpanKind> kinds) {
  auto want = kinds.begin();
  for (const obs::SpanRecord& r : records) {
    if (want == kinds.end()) break;
    if (r.site == site && r.kind == *want) ++want;
  }
  return want == kinds.end();
}

}  // namespace sfc::test
