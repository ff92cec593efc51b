#include "serve/loadgen.h"

#include <set>

#include "common/strings.h"

namespace kws::serve {

std::vector<std::string> QueryPool(const relational::QueryLog& log) {
  std::vector<std::string> pool;
  std::set<std::string> seen;
  for (const relational::LoggedQuery& q : log) {
    const std::string text = Join(q.keywords, " ");
    if (text.empty()) continue;
    if (seen.insert(text).second) pool.push_back(text);
  }
  return pool;
}

}  // namespace kws::serve
