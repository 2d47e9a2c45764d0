#include "exec/partition.h"

#include <filesystem>

#include "common/fault.h"
#include "common/macros.h"
#include "dataframe/ops.h"
#include "io/columnar.h"

namespace lafp::exec {

Status Partition::SpillTo(const std::string& dir, const std::string& name) {
  if (spilled()) return Status::OK();
  LAFP_RETURN_NOT_OK(FaultPoint("spill.write"));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/" + name + ".part.lfc";
  LAFP_RETURN_NOT_OK(io::WriteLfcFile(frame_, path));
  spill_path_ = path;
  frame_ = df::DataFrame();  // releases the memory reservation
  return Status::OK();
}

Result<df::DataFrame> Partition::Load(MemoryTracker* tracker) const {
  if (!spilled()) return frame_;
  LAFP_RETURN_NOT_OK(FaultPoint("spill.read"));
  return io::ReadLfcFile(spill_path_, {}, tracker);
}

Result<df::DataFrame> ConcatPartitions(std::vector<df::DataFrame> parts) {
  if (parts.empty()) return df::DataFrame();
  if (parts.size() == 1) return std::move(parts[0]);
  return df::Concat(parts);
}

Result<PartitionedFrame> PartitionedFrame::FromEager(
    const df::DataFrame& frame, size_t partition_rows) {
  PartitionedFrame out;
  if (partition_rows == 0) partition_rows = 65536;
  size_t n = frame.num_rows();
  if (n == 0) {
    out.Add(frame);
    return out;
  }
  for (size_t offset = 0; offset < n; offset += partition_rows) {
    LAFP_ASSIGN_OR_RETURN(df::DataFrame chunk,
                          frame.SliceRows(offset, partition_rows));
    out.Add(std::move(chunk));
  }
  return out;
}

}  // namespace lafp::exec
