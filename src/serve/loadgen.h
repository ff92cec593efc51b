#ifndef KWDB_SERVE_LOADGEN_H_
#define KWDB_SERVE_LOADGEN_H_

#include <string>
#include <vector>

#include "relational/query_log.h"

namespace kws::serve {

/// The distinct replayable query strings of `log`, in log order (rank in
/// this vector is the Zipf rank during replay): each logged query's
/// keywords joined by spaces, deduplicated, empties dropped.
std::vector<std::string> QueryPool(const relational::QueryLog& log);

}  // namespace kws::serve

#endif  // KWDB_SERVE_LOADGEN_H_
