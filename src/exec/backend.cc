#include "exec/backend.h"

#include "exec/dask_backend.h"
#include "exec/modin_backend.h"
#include "exec/pandas_backend.h"
#include "shard/shard_backend.h"

namespace lafp::exec {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kPandas:
      return "pandas";
    case BackendKind::kModin:
      return "modin";
    case BackendKind::kDask:
      return "dask";
    case BackendKind::kShard:
      return "shard";
  }
  return "?";
}

std::unique_ptr<Backend> MakeBackend(BackendKind kind, MemoryTracker* tracker,
                                     const BackendConfig& config,
                                     const ExecutionOptions& exec) {
  switch (kind) {
    case BackendKind::kPandas:
      return std::make_unique<PandasBackend>(tracker, config, exec);
    case BackendKind::kModin:
      return std::make_unique<ModinBackend>(tracker, config, exec);
    case BackendKind::kDask:
      return std::make_unique<DaskBackend>(tracker, config, exec);
    case BackendKind::kShard:
      return std::make_unique<shard::ShardBackend>(tracker, config, exec);
  }
  return nullptr;
}

}  // namespace lafp::exec
